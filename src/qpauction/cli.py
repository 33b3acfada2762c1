"""Command line front end.

Four subcommands: ``solve`` for a single instance, ``sweep`` for the CSV
grids, ``verify`` for the end-to-end verification suite, and
``best-response`` for the one-dimensional oracle.  Exit codes: 0 on
success, 1 on a validation problem (bad flags, bad values, unreadable spec
file), 2 when verification reports a failing criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import acceptance, mechanism
from .errors import DegenerateProfileError, DomainError
from .harness import SweepSpec, format_csv, run_sweep, write_csv
from .mechanism import AuctionInstance
from .solver import Method, SolverConfig, best_response, best_response_gap, solve


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here reserves 2
    # for verification failures, so route argument problems through the
    # normal validation path instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


def _floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise DomainError(f"expected a comma-separated list of numbers, got {text!r}")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qpauction")
    sub = parser.add_subparsers(dest="command", metavar="command")

    ps = sub.add_parser("solve", help="compute and certify one equilibrium")
    ps.add_argument("rule", help="all_pay or winners_pay")
    ps.add_argument("weight", help="weight tag, e.g. power:0.5 or log1p")
    ps.add_argument("--values", required=True, help="comma-separated valuations")
    ps.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default=None,
        help="solver (default: aggregate; best_response_iteration is the "
        "cross-check reference)",
    )
    ps.add_argument("--tolerance", type=float, default=None, help="target certified gap")
    ps.add_argument("--max-iterations", type=int, default=None)
    ps.add_argument(
        "--initial-bids",
        default=None,
        help="comma-separated start point (iterative method only)",
    )
    ps.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    pw = sub.add_parser("sweep", help="solve an alpha/n grid and emit CSV")
    pw.add_argument("--spec", default=None, help="JSON file describing the sweep")
    pw.add_argument("--rule", default=None)
    pw.add_argument("--weights", default=None, help="comma-separated weight tags")
    pw.add_argument("--alpha-start", type=float, default=None)
    pw.add_argument("--alpha-stop", type=float, default=None)
    pw.add_argument(
        "--alpha-points",
        type=int,
        default=None,
        help="grid size (default: 25 per decade)",
    )
    pw.add_argument("--ns", default=None, help="comma-separated bidder counts (default 2)")
    pw.add_argument("--low-value", type=float, default=None)
    pw.add_argument(
        "--output", required=True, help="CSV path, or - for standard output"
    )

    pv = sub.add_parser("verify", help="run the acceptance verification suite")
    pv.add_argument(
        "--only", default=None, help="run criteria whose slug contains this text"
    )
    pv.add_argument("--json", action="store_true", help="emit outcomes as JSON")

    pb = sub.add_parser("best-response", help="one bidder's exact best response")
    pb.add_argument("rule")
    pb.add_argument("weight")
    pb.add_argument("--values", required=True, help="comma-separated valuations")
    pb.add_argument("--bids", required=True, help="comma-separated current bids")
    pb.add_argument("--bidder", type=int, required=True, help="0-based bidder index")
    pb.add_argument("--json", action="store_true")
    return parser


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    overrides: dict = {}
    if args.method is not None:
        overrides["method"] = args.method
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    if args.max_iterations is not None:
        overrides["max_iterations"] = args.max_iterations
    if args.initial_bids is not None:
        overrides["initial_bids"] = tuple(_floats(args.initial_bids))
    return SolverConfig(**overrides)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = AuctionInstance.make(args.rule, _floats(args.values), args.weight)
    result = solve(instance, _solver_config(args))
    if args.json:
        payload = {"instance": mechanism.to_dict(instance), "result": result.to_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        ("rule", instance.rule.value),
        ("weight", instance.weight.tag),
        ("values", ", ".join(_fmt(v) for v in instance.values.values)),
        ("method", result.method.value),
        ("converged", "yes" if result.converged else "no"),
        ("iterations", str(result.iterations)),
        ("epsilon", _fmt(result.epsilon)),
        ("bids", ", ".join(_fmt(b) for b in result.bids.bids)),
        ("revenue", _fmt(result.revenue)),
        ("efficiency", _fmt(result.efficiency)),
    ]
    for key, value in rows:
        print(f"{key:<14}{value}")
    return 0


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    inline = {
        "--rule": args.rule,
        "--weights": args.weights,
        "--alpha-start": args.alpha_start,
        "--alpha-stop": args.alpha_stop,
        "--alpha-points": args.alpha_points,
        "--ns": args.ns,
        "--low-value": args.low_value,
    }
    if args.spec is not None:
        given = [flag for flag, value in inline.items() if value is not None]
        if given:
            raise DomainError(
                f"--spec replaces the grid flags; drop {', '.join(given)}"
            )
        try:
            with open(args.spec, encoding="utf-8") as handle:
                obj = json.load(handle)
        except OSError as exc:
            raise DomainError(f"cannot read spec file: {exc}")
        except json.JSONDecodeError as exc:
            raise DomainError(f"spec file is not valid JSON: {exc}")
        return SweepSpec.from_dict(obj)
    missing = [
        flag
        for flag in ("--rule", "--weights", "--alpha-start", "--alpha-stop")
        if inline[flag] is None
    ]
    if missing:
        raise DomainError(f"sweep needs {', '.join(missing)} (or --spec)")
    points = args.alpha_points
    if points is None:
        points = SweepSpec.default_alpha_points(args.alpha_start, args.alpha_stop)
    kwargs: dict = {}
    if args.ns is not None:
        kwargs["ns"] = tuple(int(n) for n in _floats(args.ns))
    if args.low_value is not None:
        kwargs["low_value"] = args.low_value
    return SweepSpec(
        rule=args.rule,
        weights=tuple(tag.strip() for tag in args.weights.split(",") if tag.strip()),
        alpha_start=args.alpha_start,
        alpha_stop=args.alpha_stop,
        alpha_points=points,
        **kwargs,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec(args)
    rows = run_sweep(spec)
    if args.output == "-":
        sys.stdout.write(format_csv(rows))
    else:
        write_csv(rows, args.output)
        bad = sum(1 for row in rows if not row.converged)
        tail = "" if bad == 0 else f" ({bad} unconverged, flagged in place)"
        print(f"wrote {len(rows)} rows to {args.output}{tail}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    stream = sys.stderr if args.json else sys.stdout

    def report(outcome: acceptance.CriterionOutcome) -> None:
        mark = "PASS" if outcome.passed else "FAIL"
        print(
            f"{mark}  {outcome.slug:<20} {outcome.seconds:7.2f}s  {outcome.title}",
            file=stream,
            flush=True,
        )
        for line in outcome.failures:
            print(f"      fail: {line}", file=stream)
        for line in outcome.notes:
            print(f"      note: {line}", file=stream)

    outcomes = acceptance.run(only=args.only, report=report)
    failed = sum(1 for o in outcomes if not o.passed)
    total = sum(o.seconds for o in outcomes)
    print(
        f"{len(outcomes)} criteria: {len(outcomes) - failed} passed, "
        f"{failed} failed ({total:.1f}s)",
        file=stream,
    )
    if args.json:
        payload = [
            {
                "slug": o.slug,
                "title": o.title,
                "passed": o.passed,
                "seconds": o.seconds,
                "failures": list(o.failures),
                "notes": list(o.notes),
            }
            for o in outcomes
        ]
        print(json.dumps(payload, indent=2))
    return 2 if failed else 0


def _cmd_best_response(args: argparse.Namespace) -> int:
    instance = AuctionInstance.make(args.rule, _floats(args.values), args.weight)
    bids = _floats(args.bids)
    if not (0 <= args.bidder < instance.n):
        raise DomainError(
            f"--bidder must be in [0, {instance.n - 1}], got {args.bidder}"
        )
    br = best_response(instance, args.bidder, bids)
    replied = list(bids)
    replied[args.bidder] = br
    gain = mechanism.utility(instance, args.bidder, replied) - mechanism.utility(
        instance, args.bidder, bids
    )
    gap = best_response_gap(instance, bids)
    if args.json:
        payload = {
            "bidder": args.bidder,
            "best_response": br,
            "gain": gain,
            "profile_gap": gap,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{'bidder':<14}{args.bidder}")
    print(f"{'best response':<14}{_fmt(br)}")
    print(f"{'gain':<14}{_fmt(gain)}")
    print(f"{'profile gap':<14}{_fmt(gap)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_best_response(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DomainError, DegenerateProfileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # values far outside the trusted range underflow or overflow
        print(f"error: numeric range exceeded ({exc})", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse help/version paths
        code = exc.code
        return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
