"""End-to-end verification suite.

Each criterion solves instances from scratch and checks them against
closed forms, bounds, or cross-validation between independent code paths.
Criteria accumulate failure messages instead of raising, so one run
reports everything that is wrong; notes record measured values.

Every criterion solves with the default aggregate solver except three:
``closed-form`` checks both solvers, ``uniqueness`` runs best-response
iteration from random starts, and ``agreement`` cross-checks the aggregate
solver against best-response iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mechanism
from .analytic import (
    allpay_two_bidder_power,
    uniform_equilibrium,
)
from .errors import DomainError
from .mechanism import AuctionInstance
from .solver import (
    Method,
    SolverConfig,
    aggregate_solve,
    best_response_gap,
    best_response_iteration,
)


@dataclass(frozen=True)
class CriterionOutcome:
    slug: str
    title: str
    passed: bool
    seconds: float
    failures: tuple[str, ...]
    notes: tuple[str, ...]


class _Check:
    """Failure accumulator handed to each criterion."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.notes: list[str] = []

    def that(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition

    def note(self, message: str) -> None:
        self.notes.append(message)


def _bri(instance, tolerance, max_iterations=4000, initial_bids=None):
    return best_response_iteration(
        instance,
        SolverConfig(
            method=Method.BEST_RESPONSE_ITERATION,
            tolerance=tolerance,
            max_iterations=max_iterations,
            initial_bids=initial_bids,
        ),
    )


# ---------------------------------------------------------------------------
# criterion bodies


def _closed_form_grid():
    for gamma in (0.25, 0.5, 1.0):
        for k in range(11):
            yield gamma, float(2**k)


def _criterion_closed_form(check: _Check) -> None:
    bri_cfg = SolverConfig(
        method=Method.BEST_RESPONSE_ITERATION, tolerance=1e-13, max_iterations=4000
    )
    aggregate_cfg = SolverConfig(tolerance=1e-13)
    for gamma, alpha in _closed_form_grid():
        inst = AuctionInstance.make("all_pay", (alpha, 1.0), f"power:{gamma:g}")
        eq = allpay_two_bidder_power(alpha, gamma)
        expected = (eq.high_bid, eq.low_bid)
        for name, run, cfg in (
            ("best_response_iteration", best_response_iteration, bri_cfg),
            ("aggregate", aggregate_solve, aggregate_cfg),
        ):
            t0 = time.perf_counter()
            res = run(inst, cfg)
            dt = time.perf_counter() - t0
            tag = f"gamma={gamma:g} alpha={alpha:g} {name}"
            check.that(res.converged, f"{tag}: not converged (eps={res.epsilon:.3e})")
            check.that(
                res.epsilon <= 1e-7, f"{tag}: eps {res.epsilon:.3e} above 1e-7"
            )
            err = max(abs(a - b) for a, b in zip(res.bids.bids, expected))
            check.that(err <= 1e-5, f"{tag}: bid error {err:.3e} above 1e-5")
            rel = abs(res.revenue - eq.revenue) / eq.revenue
            check.that(rel <= 1e-5, f"{tag}: revenue off by {rel:.3e} relative")
            check.that(dt <= 1.0, f"{tag}: took {dt:.2f}s (budget 1s)")


def _criterion_sqrt_alpha(check: _Check) -> None:
    for k in range(7):
        alpha = 10.0**k
        inst = AuctionInstance.make("winners_pay", (alpha, 1.0), "power:1")
        res = aggregate_solve(inst, SolverConfig(tolerance=1e-10))
        tag = f"alpha=1e{k}"
        check.that(res.converged, f"{tag}: not converged")
        high, low = res.bids.bids
        check.that(
            1.0 / 3.0 - 1e-6 <= low <= 0.5 + 1e-6,
            f"{tag}: low bid {low:.9f} outside [1/3, 1/2]",
        )
        floor = math.sqrt(1.0 / 9.0 + alpha / 3.0) - 1.0 / 3.0 - 1e-6
        check.that(high >= floor, f"{tag}: high bid {high:.6f} below {floor:.6f}")
        if alpha >= 1e4:
            ratio = res.revenue / math.sqrt(alpha)
            check.that(
                0.5 <= ratio <= 0.65,
                f"{tag}: revenue/sqrt(alpha) = {ratio:.4f} outside [0.5, 0.65]",
            )
            check.note(f"{tag}: revenue/sqrt(alpha) = {ratio:.4f}")


def _criterion_scaling_exponent(check: _Check) -> None:
    logs_a, logs_r = [], []
    for half in range(7):
        alpha = 10.0 ** (3.0 + 0.5 * half)
        inst = AuctionInstance.make("winners_pay", (alpha, 1.0), "power:0.5")
        res = aggregate_solve(inst, SolverConfig(tolerance=1e-10))
        check.that(res.converged, f"alpha={alpha:.3g}: not converged")
        logs_a.append(math.log(alpha))
        logs_r.append(math.log(res.revenue))
    slope = float(np.polyfit(logs_a, logs_r, 1)[0])
    check.note(f"fitted revenue exponent {slope:.4f}")
    check.that(0.60 <= slope <= 0.72, f"slope {slope:.4f} outside [0.60, 0.72]")


def _uniform_grid():
    for n in (2, 3, 5, 10):
        for gamma in (0.5, 1.0):
            for value in (1.0, 10.0):
                yield n, gamma, value


def _criterion_uniform_allpay(check: _Check) -> None:
    for n, gamma, value in _uniform_grid():
        eq = uniform_equilibrium(n, value, gamma, "all_pay")
        inst = AuctionInstance.make("all_pay", (value,) * n, f"power:{gamma:g}")
        # Near a flat symmetric equilibrium the certificate is quadratically
        # weak (bid error ~ sqrt(eps/curvature)), so hitting 1e-6 relative on
        # the bids needs eps far below it.  The aggregate solver certifies
        # gaps of at most about 2e-31 on this grid, so 1e-16 is reachable.
        res = aggregate_solve(inst, SolverConfig(tolerance=1e-16))
        tag = f"n={n} gamma={gamma:g} V={value:g}"
        check.that(res.converged, f"all-pay {tag}: not converged")
        for b in res.bids.bids:
            check.that(
                abs(b - eq.bid) <= 1e-6 * eq.bid,
                f"all-pay {tag}: bid {b:.12g} vs {eq.bid:.12g}",
            )
        check.that(
            abs(res.revenue - eq.revenue) <= 1e-6 * eq.revenue,
            f"all-pay {tag}: revenue {res.revenue:.12g} vs {eq.revenue:.12g}",
        )


def _criterion_uniform_winnerspay(check: _Check) -> None:
    for n, gamma, value in _uniform_grid():
        eq = uniform_equilibrium(n, value, gamma, "winners_pay")
        formula = value * (n - 1) * gamma / ((n - 1) * gamma + n)
        check.that(
            abs(eq.bid - formula) <= 1e-12 * value,
            f"n={n} gamma={gamma:g} V={value:g}: closed forms disagree",
        )
        if gamma == 1.0:
            alt = value / (1.0 + n / (n - 1.0))
            check.that(
                abs(eq.bid - alt) <= 1e-12 * value,
                f"n={n} V={value:g}: gamma=1 alternate form disagrees",
            )
        inst = AuctionInstance.make("winners_pay", (value,) * n, f"power:{gamma:g}")
        # Same flat-curvature consideration as the all-pay grid: the bid
        # tolerance drives the solve tolerance, not the other way around.
        res = aggregate_solve(inst, SolverConfig(tolerance=1e-16))
        tag = f"n={n} gamma={gamma:g} V={value:g}"
        check.that(res.converged, f"winners-pay {tag}: not converged")
        for b in res.bids.bids:
            check.that(
                abs(b - eq.bid) <= 1e-6 * eq.bid,
                f"winners-pay {tag}: bid {b:.12g} vs {eq.bid:.12g}",
            )


def _criterion_many_bidders(check: _Check) -> None:
    def crowd_revenue(rule, gamma, n):
        values = (100.0,) + (1.0,) * (n - 1)
        inst = AuctionInstance.make(rule, values, f"power:{gamma:g}")
        res = aggregate_solve(inst, SolverConfig(tolerance=1e-10))
        check.that(res.converged, f"{rule} gamma={gamma:g} n={n}: not converged")
        return res.revenue

    for gamma in (0.5, 1.0):
        limit = gamma / (1.0 + gamma)
        r50 = crowd_revenue("winners_pay", gamma, 50)
        r25 = crowd_revenue("winners_pay", gamma, 25)
        check.note(
            f"winners-pay gamma={gamma:g}: rev(25)={r25:.6f} rev(50)={r50:.6f} "
            f"limit={limit:.6f}"
        )
        check.that(
            abs(r50 - limit) <= 0.10 * limit,
            f"winners-pay gamma={gamma:g}: rev(50)={r50:.4f} not within 10% of "
            f"{limit:.4f}",
        )
        check.that(
            abs(r50 - r25) <= 0.02,
            f"winners-pay gamma={gamma:g}: |rev(50)-rev(25)|={abs(r50 - r25):.4f} "
            "above 0.02",
        )
    for gamma in (0.5, 1.0):
        r50 = crowd_revenue("all_pay", gamma, 50)
        check.note(f"all-pay gamma={gamma:g}: rev(50)={r50:.6f} target={gamma:g}")
        check.that(
            abs(r50 - gamma) <= 0.15 * gamma,
            f"all-pay gamma={gamma:g}: rev(50)={r50:.4f} not within 15% of {gamma:g}",
        )


def _criterion_log_weight(check: _Check) -> None:
    for rule in ("all_pay", "winners_pay"):
        ratios = []
        for k in range(2, 7):
            alpha = 10.0**k
            inst = AuctionInstance.make(rule, (alpha, 1.0), "log1p")
            res = aggregate_solve(inst, SolverConfig(tolerance=1e-9))
            tag = f"{rule} alpha=1e{k}"
            check.that(res.converged, f"{tag}: not converged")
            ratio = res.bids.bids[0] * math.log(alpha) ** 2 / alpha
            ratios.append(ratio)
            check.that(ratio <= 4.0, f"{tag}: b1*log^2(alpha)/alpha = {ratio:.4f} > 4")
        check.note(f"{rule}: ratios {['%.5f' % r for r in ratios]}")
        for prev, cur in zip(ratios[-3:], ratios[-2:]):
            check.that(
                cur <= prev + 1e-12,
                f"{rule}: ratio not non-increasing over the top decades "
                f"({prev:.5f} -> {cur:.5f})",
            )


def _criterion_revenue_orderings(check: _Check) -> None:
    revs = {}
    for tag in ("power:0.25", "power:0.5", "power:1"):
        inst = AuctionInstance.make("winners_pay", (100.0, 1.0), tag)
        res = aggregate_solve(inst, SolverConfig(tolerance=1e-12))
        check.that(res.converged, f"{tag}: not converged")
        revs[tag] = res.revenue
    check.note(
        "alpha=100 n=2 revenues: "
        + "  ".join(f"{t}={revs[t]:.6f}" for t in revs)
    )
    check.that(
        revs["power:0.25"] - revs["power:0.5"] > 1e-3,
        f"rev(power:0.25)={revs['power:0.25']:.6f} does not beat "
        f"rev(power:0.5)={revs['power:0.5']:.6f} by 1e-3",
    )
    check.that(
        revs["power:0.5"] - revs["power:1"] > 1e-3,
        f"rev(power:0.5)={revs['power:0.5']:.6f} does not beat "
        f"rev(power:1)={revs['power:1']:.6f} by 1e-3",
    )
    for tag in ("power:1", "power:0.5"):
        seq = []
        for n in (2, 3, 4, 5):
            inst = AuctionInstance.make(
                "winners_pay", (100.0,) + (1.0,) * (n - 1), tag
            )
            res = aggregate_solve(inst, SolverConfig(tolerance=1e-12))
            check.that(res.converged, f"{tag} n={n}: not converged")
            seq.append(res.revenue)
        for n, (a, b) in enumerate(zip(seq, seq[1:]), start=2):
            check.that(
                b > a,
                f"{tag}: revenue did not increase from n={n} to n={n + 1} "
                f"({a:.6f} -> {b:.6f})",
            )


def _criterion_gradients(check: _Check) -> None:
    rng = np.random.default_rng(20260819)
    weights = ("power:1", "power:0.5", "power:0.25", "log1p", "loglog")
    bad = 0
    for trial in range(1000):
        rule = "all_pay" if rng.integers(2) == 0 else "winners_pay"
        weight = weights[int(rng.integers(len(weights)))]
        if weight.startswith("power") and rng.integers(2) == 0:
            weight = f"power:{rng.uniform(0.1, 1.0):.6f}"
        n = int(rng.integers(2, 7))
        values = np.sort(rng.uniform(0.5, 50.0, size=n))[::-1]
        inst = AuctionInstance.make(rule, tuple(values), weight)
        bids = rng.uniform(1e-3, values)
        i = int(rng.integers(n))
        h = 1e-7 * max(1.0, bids[i])
        up = bids.copy()
        dn = bids.copy()
        up[i] += h
        dn[i] -= h
        fd = (
            mechanism.utility(inst, i, up) - mechanism.utility(inst, i, dn)
        ) / (2.0 * h)
        an = mechanism.utility_gradient(inst, i, bids)
        scale = max(1.0, abs(an), abs(fd))
        if abs(an - fd) / scale > 1e-6:
            bad += 1
            if bad <= 3:
                check.that(
                    False,
                    f"trial {trial}: {rule} {weight} n={n} i={i} analytic "
                    f"{an:.9g} vs central difference {fd:.9g}",
                )
    check.that(bad == 0, f"{bad} of 1000 gradient probes disagreed")


def _uniqueness_grid():
    # Strictly descending values: with ties the equilibrium bids tie too, and
    # the sorted-bids check below would then hinge on solver noise.
    profiles = ((4.0, 1.0), (100.0, 3.0, 1.0), (2.0, 1.5, 1.0))
    weights = ("power:1", "power:0.5", "power:0.25", "log1p", "loglog")
    for rule in ("all_pay", "winners_pay"):
        for weight in weights:
            for values in profiles:
                yield rule, weight, values


def _criterion_uniqueness(check: _Check) -> None:
    rng = np.random.default_rng(20260819)
    for rule, weight, values in _uniqueness_grid():
        inst = AuctionInstance.make(rule, values, weight)
        tag = f"{rule} {weight} v={values}"
        reference = None
        for start_idx in range(20):
            start = tuple(
                float(rng.uniform(1e-3, v)) for v in inst.values.values
            )
            res = _bri(inst, 1e-10, initial_bids=start)
            if not check.that(
                res.converged, f"{tag} start {start_idx}: not converged"
            ):
                continue
            if reference is None:
                reference = res.bids.bids
                for high, low in zip(reference, reference[1:]):
                    check.that(
                        high >= low - 1e-8,
                        f"{tag}: bids not sorted with values: {reference}",
                    )
            else:
                worst = max(
                    abs(a - b) for a, b in zip(reference, res.bids.bids)
                )
                check.that(
                    worst <= 1e-4,
                    f"{tag} start {start_idx}: drifted {worst:.3e} from the "
                    "first solution",
                )


def _agreement_instances():
    """Every instance family behind the closed-form and sweep criteria."""
    for gamma, alpha in _closed_form_grid():
        yield f"power closed form g={gamma:g} a={alpha:g}", AuctionInstance.make(
            "all_pay", (alpha, 1.0), f"power:{gamma:g}"
        ), 1e-13
    for k in range(7):
        yield f"root-alpha a=1e{k}", AuctionInstance.make(
            "winners_pay", (10.0**k, 1.0), "power:1"
        ), 1e-10
    for half in range(7):
        alpha = 10.0 ** (3.0 + 0.5 * half)
        yield f"exponent a={alpha:.3g}", AuctionInstance.make(
            "winners_pay", (alpha, 1.0), "power:0.5"
        ), 1e-10
    for n, gamma, value in _uniform_grid():
        yield f"uniform all-pay n={n} g={gamma:g} V={value:g}", AuctionInstance.make(
            "all_pay", (value,) * n, f"power:{gamma:g}"
        ), 1e-12
        yield (
            f"uniform winners-pay n={n} g={gamma:g} V={value:g}",
            AuctionInstance.make("winners_pay", (value,) * n, f"power:{gamma:g}"),
            1e-12,
        )
    for gamma in (0.5, 1.0):
        for n in (25, 50):
            yield f"crowd winners-pay g={gamma:g} n={n}", AuctionInstance.make(
                "winners_pay", (100.0,) + (1.0,) * (n - 1), f"power:{gamma:g}"
            ), 1e-10
        yield f"crowd all-pay g={gamma:g} n=50", AuctionInstance.make(
            "all_pay", (100.0,) + (1.0,) * 49, f"power:{gamma:g}"
        ), 1e-10
    for rule in ("all_pay", "winners_pay"):
        for k in range(2, 7):
            yield f"log-weight {rule} a=1e{k}", AuctionInstance.make(
                rule, (10.0**k, 1.0), "log1p"
            ), 1e-9
    for tag in ("power:0.25", "power:0.5", "power:1"):
        yield f"ordering {tag}", AuctionInstance.make(
            "winners_pay", (100.0, 1.0), tag
        ), 1e-12
    for tag in ("power:1", "power:0.5"):
        for n in (3, 4, 5):
            yield f"crowding {tag} n={n}", AuctionInstance.make(
                "winners_pay", (100.0,) + (1.0,) * (n - 1), tag
            ), 1e-12


def _criterion_agreement(check: _Check) -> None:
    for label, inst, bri_tol in _agreement_instances():
        cap = 20_000 if bri_tol >= 1e-9 else 8000
        bri = _bri(inst, bri_tol, max_iterations=cap)
        if not check.that(bri.converged, f"{label}: reference solve not converged"):
            continue
        fine = best_response_gap(inst, bri.bids, tol=1e-9)
        check.that(
            fine <= 1.1 * bri.epsilon + 1e-12,
            f"{label}: finer oracle re-certification inflated eps "
            f"{bri.epsilon:.3e} -> {fine:.3e}",
        )
        agg = aggregate_solve(inst, SolverConfig(tolerance=1e-11))
        check.that(agg.converged, f"{label}: aggregate solve not converged")
        worst = max(abs(a - b) for a, b in zip(agg.bids.bids, bri.bids.bids))
        check.that(
            worst <= 1e-4,
            f"{label}: aggregate and reference disagree by {worst:.3e} "
            "per coordinate",
        )


# ---------------------------------------------------------------------------
# registry and runner

REGISTRY: tuple[tuple[str, str, Callable[[_Check], None]], ...] = (
    ("closed-form", "two-bidder all-pay power closed form, every solver",
     _criterion_closed_form),
    ("sqrt-alpha", "winners-pay proportional revenue scale at large ratios",
     _criterion_sqrt_alpha),
    ("scaling-exponent", "square-root weight revenue scaling exponent",
     _criterion_scaling_exponent),
    ("uniform-allpay", "uniform-value all-pay equilibria",
     _criterion_uniform_allpay),
    ("uniform-winnerspay", "uniform-value winners-pay equilibria",
     _criterion_uniform_winnerspay),
    ("many-bidders", "large-crowd revenue limits",
     _criterion_many_bidders),
    ("log-weight", "logarithmic weight high-bid bound",
     _criterion_log_weight),
    ("revenue-orderings", "revenue orderings across weights and crowd sizes",
     _criterion_revenue_orderings),
    ("gradients", "analytic gradients vs central differences",
     _criterion_gradients),
    ("uniqueness", "equilibrium uniqueness and bid monotonicity",
     _criterion_uniqueness),
    ("agreement", "solver cross-validation and certificate stability",
     _criterion_agreement),
)


def _run_entry(slug: str, title: str, fn: Callable[[_Check], None]) -> CriterionOutcome:
    check = _Check()
    start = time.perf_counter()
    fn(check)
    return CriterionOutcome(
        slug=slug,
        title=title,
        passed=not check.failures,
        seconds=time.perf_counter() - start,
        failures=tuple(check.failures),
        notes=tuple(check.notes),
    )


def run(
    only: str | None = None,
    report: Callable[[CriterionOutcome], None] | None = None,
) -> list[CriterionOutcome]:
    """Run all criteria (or those whose slug contains ``only``), in order."""
    selected = [
        entry for entry in REGISTRY if only is None or only in entry[0]
    ]
    if not selected:
        raise DomainError(f"no criterion slug contains {only!r}")
    outcomes = []
    for entry in selected:
        outcome = _run_entry(*entry)
        if report is not None:
            report(outcome)
        outcomes.append(outcome)
    return outcomes


def run_one(slug: str) -> CriterionOutcome:
    """Run a single criterion by exact slug."""
    for entry in REGISTRY:
        if entry[0] == slug:
            return _run_entry(*entry)
    raise DomainError(f"unknown criterion slug {slug!r}")
