"""The benchmark's workloads: seeded inputs, the operations, and their output checks.

Every workload runs in one process with a single closed-loop caller: the next
operation starts only after the previous one returned.  Inputs are pure
functions of the seed and are built before timing starts; the program sees
only the generated instances, never the seed.  Checks run after timing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qpauction as qp
from clock import Clock
from qpauction import harness
from qpauction.mechanism import AuctionInstance, PaymentRule
from qpauction.weights import WeightSpec

RULES = ("all_pay", "winners_pay")
FAMILIES = ("power:1", "power:0.5", "power:0.25", "log1p", "loglog")
REFERENCE_WEIGHTS = ("power:1", "power:0.5", "power:0.25", "log1p")
MIX_NS = (2, 3, 4)
MIX_CELLS = tuple((n, rule, fam) for n in MIX_NS for rule in RULES for fam in FAMILIES)
MIX_MAX_RATIO = 1e3
MIX_POINTS_PER_CELL = 2
MIX_JITTER = 0.002
CROWD_NS = (50, 400, 1600)
CROWD_GAMES = (("all_pay", "power:0.5"), ("winners_pay", "power:0.5"), ("winners_pay", "power:1"))
CROWD_SOLVE_MAX_N = 400
CROWD_TOLERANCE = 1e-10
REVENUE_RTOL = 1e-3
CERTIFICATE_RTOL = 1e-6

# Additive steps of the R_d low-discrepancy sequence for d = 4, which spreads
# the solve-mix design points evenly over value space.
_R4_ROOT = 1.1673039782614187  # the real root of x**5 = x + 1
_R4_STEPS = tuple(_R4_ROOT ** -(j + 1) for j in range(4))


@dataclass
class Op:
    """One operation and what it returned.

    ``kind`` is ``"solve"`` (result is an EquilibriumResult or a SweepRow,
    checked against ``tolerance``) or ``"certificate"`` (result is the gap
    that ``best_response_gap`` returned for ``bids``).
    """

    kind: str
    instance: AuctionInstance
    result: object = None
    seconds: float = math.nan  # adjusted for machine speed, see clock.py
    raw_seconds: float = math.nan
    tolerance: float = math.nan
    bids: tuple[float, ...] = ()
    error: str | None = None


@dataclass
class Unit:
    """One whole pass of a workload: its operations and its time, adjusted and raw."""

    ops: list[Op]
    seconds: float
    raw_seconds: float
    csv: str | None = None


# ---------------------------------------------------------------------------
# input generators (pure functions of the seed)


def reference_spec(rule: str) -> qp.SweepSpec:
    """The 404-row reference grid: four weights times 101 alphas in [1, 1e4], n = 2."""
    return qp.SweepSpec(
        rule=rule, weights=REFERENCE_WEIGHTS, alpha_start=1.0, alpha_stop=1e4, alpha_points=101
    )


def solve_mix_instances(seed: int) -> list[tuple[str, tuple[float, ...], str]]:
    """The solve-mix stream: (rule, values, weight) for every design point, in seeded order.

    Each (n, rule, family) cell gets ``MIX_POINTS_PER_CELL`` points of a fixed
    low-discrepancy design over log-values in [0, log 1e3]; the seed jitters
    every coordinate by up to ``MIX_JITTER`` of that range and shuffles the
    order.  Solve times have a heavy tail, so redrawing the design per seed
    would move the percentiles more than any change worth measuring.
    """
    rng = np.random.default_rng(seed)
    out = []
    for c, (n, rule, fam) in enumerate(MIX_CELLS):
        for k in range(c * MIX_POINTS_PER_CELL, (c + 1) * MIX_POINTS_PER_CELL):
            u = [(0.5 + k * _R4_STEPS[j]) % 1.0 for j in range(n)]
            u = [min(1.0, max(0.0, x + rng.uniform(-MIX_JITTER, MIX_JITTER))) for x in u]
            out.append((rule, tuple(MIX_MAX_RATIO**x for x in u), fam))
    return [out[i] for i in rng.permutation(len(out))]


def crowd_cases(seed: int) -> list[tuple[str, tuple[float, ...], str, tuple[float, ...]]]:
    """(rule, values, weight, interior bids) for every crowd case.

    Per n: a tied profile (100 and n-1 ones) and a distinct one (log-uniform
    in [1, 100]), each under every game in ``CROWD_GAMES``.  Bids are a seeded
    fraction in [0.05, 0.5] of each value, equal for equal values.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for n in CROWD_NS:
        tied = (100.0,) + (1.0,) * (n - 1)
        distinct = tuple(float(x) for x in 100.0 ** rng.random(n))
        for values in (tied, distinct):
            levels = sorted(set(values))
            frac = dict(zip(levels, rng.uniform(0.05, 0.5, len(levels))))
            bids = tuple(frac[v] * v for v in values)
            for rule, weight in CROWD_GAMES:
                cases.append((rule, values, weight, bids))
    return cases


# ---------------------------------------------------------------------------
# workloads


def _timed_call(clock: Clock, op: Op, fn: Callable[[], object]) -> Op:
    clock.start()
    try:
        op.result = fn()
    except Exception as exc:  # a failed operation is counted, never dropped
        op.error = f"{type(exc).__name__}: {exc}"
    op.raw_seconds, op.seconds = clock.stop()
    return op


def _unit_of(ops: list[Op]) -> Unit:
    return Unit(ops, sum(op.seconds for op in ops), sum(op.raw_seconds for op in ops))


class SweepWorkload:
    """``run_sweep`` then ``format_csv`` on the reference grid; an op is a row."""

    uses_harness = True
    min_units = 2  # two passes, so the CSV can be compared byte for byte

    def __init__(self, rule: str) -> None:
        self.rule = rule

    def build(self, seed: int) -> qp.SweepSpec:
        return reference_spec(self.rule)

    def run_unit(self, spec: qp.SweepSpec, clock: Clock) -> Unit:
        # Time each row's solve at the harness -> solver boundary, with one
        # clock pair per row, and let the clock recalibrate between rows.
        inner = harness.solve
        times: list[tuple[float, int]] = []

        def timed_solve(instance, config=None):
            t0 = time.perf_counter()
            try:
                return inner(instance, config)
            finally:
                times.append((time.perf_counter() - t0, len(clock.segment_scales)))
                clock.checkpoint()

        instances = [
            AuctionInstance.make(spec.rule, spec.values_for(alpha, n), weight)
            for alpha, n, weight in spec.points()
        ]
        tolerance = qp.SolverConfig().tolerance
        harness.solve = timed_solve
        error = None
        clock.start()
        try:
            rows = qp.run_sweep(spec, workers=1)
            csv = qp.format_csv(rows)
        except Exception as exc:  # the whole pass fails: every row counts as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            harness.solve = inner
        raw, seconds = clock.stop()
        if error is not None:
            share, raw_share = seconds / len(instances), raw / len(instances)
            ops = [
                Op("solve", inst, seconds=share, raw_seconds=raw_share, error=error)
                for inst in instances
            ]
            return Unit(ops, seconds, raw)
        scales = clock.segment_scales
        ops = [
            Op("solve", inst, row, seconds=dt * scales[seg], raw_seconds=dt, tolerance=tolerance)
            for inst, row, (dt, seg) in zip(instances, rows, times)
        ]
        return Unit(ops, seconds, raw, csv)


class SolveMixWorkload:
    """``solve(instance)`` with the default config; an op is a solve, a unit the whole stream."""

    uses_harness = False
    min_units = 1

    def build(self, seed: int) -> list[AuctionInstance]:
        return [AuctionInstance.make(*spec) for spec in solve_mix_instances(seed)]

    def run_unit(self, instances: list[AuctionInstance], clock: Clock) -> Unit:
        tolerance = qp.SolverConfig().tolerance
        ops = []
        for inst in instances:
            op = Op("solve", inst, tolerance=tolerance)
            ops.append(_timed_call(clock, op, lambda: qp.solve(inst)))
        return _unit_of(ops)


class CrowdWorkload:
    """Certificates at n in {50, 400, 1600} and best-response solves at n <= 400."""

    uses_harness = False
    min_units = 1

    def build(self, seed: int) -> list[tuple[AuctionInstance, tuple[float, ...]]]:
        return [
            (AuctionInstance.make(rule, values, weight), bids)
            for rule, values, weight, bids in crowd_cases(seed)
        ]

    def run_unit(self, cases, clock: Clock) -> Unit:
        config = qp.SolverConfig(
            method=qp.Method.BEST_RESPONSE_ITERATION, tolerance=CROWD_TOLERANCE
        )
        ops = []
        for inst, bids in cases:
            op = Op("certificate", inst, bids=bids)
            ops.append(_timed_call(clock, op, lambda: qp.best_response_gap(inst, bids)))
            if inst.n <= CROWD_SOLVE_MAX_N:
                op = Op("solve", inst, tolerance=CROWD_TOLERANCE)
                ops.append(_timed_call(clock, op, lambda: qp.solve(inst, config)))
        return _unit_of(ops)


WORKLOADS = {
    "sweep-allpay": SweepWorkload("all_pay"),
    "sweep-winnerspay": SweepWorkload("winners_pay"),
    "solve-mix": SolveMixWorkload(),
    "crowd": CrowdWorkload(),
}


# ---------------------------------------------------------------------------
# output checks


def closed_form_revenue(instance: AuctionInstance) -> float | None:
    """Equilibrium revenue from a closed form, where one exists for the instance.

    Power-weight games scale: values (a*c, c) have bids and revenue c times
    those of (a, 1).
    """
    if instance.n != 2:
        return None
    high, low = instance.values.values
    alpha = high / low
    weight = instance.weight
    if instance.rule is PaymentRule.ALL_PAY and weight.kind == "power":
        return low * qp.allpay_two_bidder_power(alpha, weight.gamma).revenue
    if instance.rule is PaymentRule.WINNERS_PAY and weight == WeightSpec.power(1.0):
        return low * qp.winnerpay_proportional_two_bidder(alpha).revenue
    return None


def reference_gap(instance: AuctionInstance, bids) -> float:
    """The best-response gap, computed independently of the solver module.

    Each bidder's utility is single-peaked in the own bid (the derivative is
    decreasing for concave w), so the best response is found by bisecting on
    the sign of the derivative, for all bidders at once.
    """
    v = np.asarray(instance.values.values, dtype=float)
    b = np.asarray(bids, dtype=float)
    weight = instance.weight
    all_pay = instance.rule is PaymentRule.ALL_PAY
    w_old = weight.value(b)
    s = math.fsum(w_old) - w_old
    lo, hi = np.zeros_like(v), v.copy()
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        wm = weight.value(mid)
        sig = s + wm
        if all_pay:
            up = v * weight.deriv(mid) * s > sig * sig
        else:
            up = weight.deriv(mid) * (v - mid) * s > wm * sig
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    br = 0.5 * (lo + hi)
    w_new = weight.value(br)
    so, sn = s + w_old, s + w_new
    db, dw = br - b, w_new - w_old
    if all_pay:
        gain = v * s * dw / (sn * so) - db
    else:
        gain = (s * ((v - b) * dw - w_new * db) - w_old * w_new * db) / (sn * so)
    return max(0.0, float(np.max(gain)))


def check_op(op: Op) -> str | None:
    """None when the operation's output is correct, else why it is not."""
    if op.error is not None:
        return op.error
    inst = op.instance
    if op.kind == "certificate":
        ref = reference_gap(inst, op.bids)
        if not abs(op.result - ref) <= CERTIFICATE_RTOL * max(1.0, abs(ref)):
            return f"certificate {op.result!r} differs from reference {ref!r}"
        return None
    res = op.result
    if not res.converged:
        return f"not converged (epsilon {res.epsilon:.3e})"
    bids = res.bids if isinstance(res, qp.SweepRow) else res.bids.bids
    gap = qp.best_response_gap(inst, bids)
    if not gap <= op.tolerance:
        return f"re-certified gap {gap:.3e} above tolerance {op.tolerance:.1e}"
    expected = closed_form_revenue(inst)
    if expected is not None:
        rel = abs(res.revenue - expected) / expected
        if not rel <= REVENUE_RTOL:
            return f"revenue {res.revenue!r} off the closed form {expected!r} by {rel:.2e}"
    return None


class Tally:
    """Checks each unit as it completes, so no unit's outputs are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.deterministic = True
        self._csv: str | None = None

    def add(self, unit: Unit) -> int:
        """Check every operation of ``unit``; return how many passed."""
        self.attempted += len(unit.ops)
        failed = 0
        for op in unit.ops:
            why = check_op(op)
            if why is not None:
                self.failures.append(why)
                failed += 1
        if unit.csv is not None:
            if self._csv is None:
                self._csv = unit.csv
            elif unit.csv != self._csv:
                self.deterministic = False
        return len(unit.ops) - failed
