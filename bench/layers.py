"""Per-layer measurement: spans and counts at layer boundaries, and layer probes.

The program itself is not changed.  While a :class:`Tracer` is installed it
replaces the module attributes through which one layer calls the next:

* ``harness.solve`` (harness -> solver), one span per sweep row;
* ``mechanism.revenue`` and ``mechanism.efficiency`` (solver -> mechanism);
* ``solver.winnerpay_proportional_best_response`` (solver -> analytic),
  counted only: a span costs more than the closed form it would time;
* the w and w' closures that ``WeightSpec.scalar_functions`` hands out,
  counted only, for the same reason;
* the benchmark's own calls into ``run_sweep``, ``format_csv``, ``solve``
  and ``best_response_gap``.

Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import qpauction as qp
from clock import Clock
from qpauction import analytic, harness, mechanism, solver
from qpauction.mechanism import AuctionInstance
from qpauction.weights import WeightSpec

FAMILY_KEYS = {
    "power:1": "pow1",
    "power:0.5": "pow0.5",
    "power:0.25": "pow0.25",
    "log1p": "log1p",
    "loglog": "loglog",
}
GAP_NS = (2, 50, 400, 1600)


class Tracer:
    """Records spans ``[name, start, end, parent, op]`` and boundary counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"weights.evals": 0, "analytic.wp_br_calls": 0}
        self._stack: list[int] = []
        self._next_op = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, new_op: bool = False):
        """``fn`` wrapped to record a span; ``new_op`` starts a new operation id."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if new_op:
                op = self._next_op
                self._next_op += 1
            else:
                op = spans[parent][4] if parent >= 0 else None
            rec = [name, clock(), 0.0, parent, op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        scalar_functions = WeightSpec.scalar_functions

        def counted_scalar_functions(spec):
            wf, wd = scalar_functions(spec)
            return self.counted("weights.evals", wf), self.counted("weights.evals", wd)

        self._patch(WeightSpec, "scalar_functions", counted_scalar_functions)
        self._patch(harness, "solve", self.span("solver.solve", harness.solve, new_op=True))
        for name in ("revenue", "efficiency"):
            self._patch(mechanism, name, self.span(f"mechanism.{name}", getattr(mechanism, name)))
        self._patch(
            solver,
            "winnerpay_proportional_best_response",
            self.counted("analytic.wp_br_calls", analytic.winnerpay_proportional_best_response),
        )
        for name, layer, new_op in (
            ("run_sweep", "harness", False),
            ("format_csv", "harness", False),
            ("solve", "solver", True),
            ("best_response_gap", "solver", True),
        ):
            self._patch(qp, name, self.span(f"{layer}.{name}", getattr(qp, name), new_op))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Per layer, the summed span time not covered by child spans, in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + 1e3 * (end - start - covered)
        return out

    def durations_ms(self, name: str, parent_name: str | None = None) -> list[float]:
        """Durations of the spans called ``name``, optionally only under ``parent_name``."""
        spans = self.spans

        def wanted(n: str, parent: int) -> bool:
            if n != name:
                return False
            return parent_name is None or (parent >= 0 and spans[parent][0] == parent_name)

        return [1e3 * (end - start) for n, start, end, parent, _ in spans if wanted(n, parent)]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                rec = {"name": name, "start": start - t0, "end": end - t0}
                rec.update(parent=parent, op=op)
                fh.write(json.dumps(rec) + "\n")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def harness_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """harness.* metrics, as (value, unit), from a traced sweep pass."""
    rows = tracer.durations_ms("solver.solve", "harness.run_sweep")
    format_csv = tracer.durations_ms("harness.format_csv")
    return {
        "harness.self_ms": (tracer.self_ms().get("harness", 0.0), "ms"),
        "harness.row_ms_p50": (percentile(rows, 50), "ms"),
        "harness.row_ms_p90": (percentile(rows, 90), "ms"),
        "harness.format_csv_ms": (statistics.median(format_csv), "ms"),
    }


# ---------------------------------------------------------------------------
# layer probes: one layer timed on fixed inputs, the same in every run


def _per_call(clock: Clock, fn, calls: int, repeats: int) -> float:
    """Median over ``repeats`` batches of the adjusted seconds one call of ``fn`` takes."""
    samples = []
    for _ in range(repeats):
        clock.start()
        for _ in range(calls):
            fn()
        samples.append(clock.stop()[1] / calls)
    return statistics.median(samples)


def _scalar_pair(spec: WeightSpec):
    wf, wd = spec.scalar_functions()
    xs = [10.0 ** (k / 100.0 - 3.0) for k in range(600)]  # 1e-3 .. 1e3

    def run():
        for x in xs:
            wf(x)
            wd(x)

    return run, len(xs)


def _gap_probe_case(rule: str, n: int) -> tuple[AuctionInstance, tuple[float, ...]]:
    """Distinct values 100 .. 1 (geometric) under power:0.5, bids a quarter of each."""
    values = tuple(100.0 ** (1.0 - i / (n - 1)) for i in range(n))
    return AuctionInstance.make(rule, values, "power:0.5"), tuple(0.25 * v for v in values)


def probe_metrics(clock: Clock) -> dict[str, tuple[float, str]]:
    """Layer probe metrics as (value, unit), timed with ``clock``."""
    out = {}
    for tag, key in FAMILY_KEYS.items():
        run, pairs = _scalar_pair(WeightSpec.parse(tag))
        out[f"weights.scalar_ns.{key}"] = (1e9 * _per_call(clock, run, 10, 7) / pairs, "ns")
    for rule in ("all_pay", "winners_pay"):
        for tag, key in FAMILY_KEYS.items():
            inst = AuctionInstance.make(rule, (100.0, 1.0), tag)
            per_call = _per_call(clock, lambda: qp.best_response(inst, 0, (1.0, 1.0)), 100, 5)
            out[f"solver.best_response_us.{rule}.{key}"] = (1e6 * per_call, "us")
        for n in GAP_NS:
            inst, bids = _gap_probe_case(rule, n)
            calls = max(1, 400 // n)
            per_call = _per_call(clock, lambda: qp.best_response_gap(inst, bids), calls, 3)
            out[f"solver.gap_ms.{rule}.n{n}"] = (1e3 * per_call, "ms")
    return out
