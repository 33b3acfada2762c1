"""Equilibrium solvers with a verifiable best-response-gap certificate.

Two methods compute the same object:

* ``aggregate`` (the default): rivals enter each payoff only through the
  total weight sigma, so the equilibrium is one root in sigma.  At a trial
  sigma each bidder's first-order condition has one root in the own bid;
  the total weight those bids carry matches sigma exactly at equilibrium
  (the share-function method of Cornes & Hartley, Econ. Theory 26, 2005),
* ``best_response_iteration``: damped cyclic sweeps of exact best
  responses, the independent reference.

Neither declares success from its own computation.  Converged means exactly
one thing: the best-response gap of the returned point, measured by an
independent one-dimensional maximizer, is at most the configured tolerance.

The gap computation uses factored utility-difference formulas rather than
u(new) - u(old); the naive difference loses everything to cancellation
once the gap drops below ~1e-12 times the utility scale.

Each pass over the bidders (a certificate or a best-response sweep) costs
O(n) and is exact: one Shewchuk expansion holds the total weight without
rounding error, and each bidder's opposing weight is read off it as the
correctly rounded sum of everyone else's weight, the same float that
``math.fsum`` over the others gives.  Subtracting from a rounded total
instead would cancel catastrophically when one bidder carries nearly all
the weight.

The certificate visits one lane per distinct (value, bid) pair.  From
``_LOCKSTEP_MIN_LANES`` lanes up, where numpy's fixed cost per operation
has paid off for every weight family, it solves all lanes at once
(:mod:`.lockstep`); below, it loops over them (``_gap_scalar``).  The two
are bit for bit the same: the lockstep repeats each scalar operation on
arrays, with weights from ``WeightSpec.lane_functions``, which equal the
scalar closures in every bit.  Python raises on a zero denominator where
numpy only sets a flag, so the lockstep raises on any flag and the scalar
loop then runs, raising its own error first in lane order.  Certificates
of winners-pay ``power:1``, whose responses have a closed form, always
take the loop; best-response sweeps and the public ``best_response`` stay
scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import mechanism
from .analytic import winnerpay_proportional_best_response
from .errors import DegenerateProfileError, DomainError
from .mechanism import AuctionInstance, BidVector, PaymentRule, _WeightTotal
from .weights import WeightSpec


class Method(str, Enum):
    AGGREGATE = "aggregate"
    BEST_RESPONSE_ITERATION = "best_response_iteration"

    @classmethod
    def parse(cls, text: str | "Method") -> "Method":
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text))
        except ValueError:
            raise DomainError(
                f"unknown method {text!r}; expected 'aggregate' or "
                "'best_response_iteration'"
            ) from None


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the solvers.

    ``tolerance`` is a bound on the certified best-response gap, not on bid
    movement.  ``max_iterations`` caps the outer iterations: trial totals
    for the aggregate method, sweeps for best-response iteration.

    ``initial_bids`` belongs to best-response iteration, the cross-check
    reference; the aggregate method has no start point and rejects it.  It
    defaults to all ones, clamped into [``_BID_FLOOR``, v_i].
    """

    tolerance: float = 1e-8
    max_iterations: int = 10_000_000
    method: Method = Method.AGGREGATE
    initial_bids: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "method", Method.parse(self.method))
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise DomainError(f"tolerance must be finite and > 0, got {self.tolerance!r}")
        k = self.max_iterations
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise DomainError(f"max_iterations must be a positive integer, got {k!r}")
        if self.initial_bids is not None:
            bids = tuple(float(b) for b in self.initial_bids)
            for b in bids:
                if not math.isfinite(b) or b < 0.0:
                    raise DomainError(f"initial bids must be finite and >= 0, got {b!r}")
            object.__setattr__(self, "initial_bids", bids)
            if self.method is Method.AGGREGATE:
                raise DomainError(
                    "initial_bids needs the iterative method "
                    "'best_response_iteration'; the aggregate method has no "
                    "start point"
                )

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "method": self.method.value,
            "initial_bids": None
            if self.initial_bids is None
            else list(self.initial_bids),
        }


@dataclass(frozen=True)
class EquilibriumResult:
    """A solver's output: a certified point plus bookkeeping.

    ``epsilon`` is the certificate of exactly ``bids``: the best-response
    gap computed on that point, never an estimate from the trajectory, and
    ``converged`` is exactly ``epsilon <= tolerance``.  ``iterations``
    counts trial totals for the aggregate method and sweeps for
    best-response iteration, whose ``bids`` are whichever certified point
    (an iterate or the running mean of the iterates) achieved the smallest
    gap.
    """

    bids: BidVector
    epsilon: float
    revenue: float
    efficiency: float
    iterations: int
    converged: bool
    method: Method

    def to_dict(self) -> dict:
        return {
            "bids": list(self.bids.bids),
            "epsilon": self.epsilon,
            "revenue": self.revenue,
            "efficiency": self.efficiency,
            "iterations": self.iterations,
            "converged": self.converged,
            "method": self.method.value,
        }


# ---------------------------------------------------------------------------
# scalar core shared by the solvers


class _Game:
    """Plain-float view of an instance for the hot loops."""

    __slots__ = ("values", "wf", "wd", "lane_wf", "lane_wd", "all_pay", "linear_wp")

    def __init__(self, instance: AuctionInstance) -> None:
        self.values = list(instance.values.values)
        self.wf, self.wd = instance.weight.scalar_functions()
        self.lane_wf, self.lane_wd = instance.weight.lane_functions()
        self.all_pay = instance.rule is PaymentRule.ALL_PAY
        self.linear_wp = not self.all_pay and instance.weight == WeightSpec.power(1.0)


def _utility_masked(game: _Game, i: int, b: float, sig_minus: float) -> float:
    w = game.wf(b)
    sigma = sig_minus + w
    v = game.values[i]
    if game.all_pay:
        return v * w / sigma - b
    return w * (v - b) / sigma


def _gradient_masked(game: _Game, i: int, b: float, sig_minus: float) -> float:
    w = game.wf(b)
    wd = game.wd(b)
    sigma = sig_minus + w
    v = game.values[i]
    if game.all_pay:
        return v * wd * sig_minus / (sigma * sigma) - 1.0
    return (wd * (v - b) * sig_minus - w * sigma) / (sigma * sigma)


def _gain(game: _Game, i: int, b_old: float, b_new: float, sig_minus: float) -> float:
    """u_i(b_new) - u_i(b_old), factored to avoid cancellation near equilibria."""
    w_old = game.wf(b_old)
    w_new = game.wf(b_new)
    so = sig_minus + w_old
    sn = sig_minus + w_new
    v = game.values[i]
    db = b_new - b_old
    if 0.0 < abs(db) <= 2.0**-20 * max(b_old, b_new):
        # w_new - w_old would be mostly rounding noise at this step size
        dw = game.wd(b_old + 0.5 * db) * db
    else:
        dw = w_new - w_old
    if game.all_pay:
        return v * sig_minus * dw / (sn * so) - db
    return (sig_minus * ((v - b_old) * dw - w_new * db) - w_old * w_new * db) / (sn * so)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_bracket(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink [lo, hi] around the maximum of a concave f to width <= tol.

    Ties keep the left segment so plateaus resolve to the leftmost point.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = f(c)
    fd = f(d)
    for _ in range(300):
        if hi - lo <= tol:
            break
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            if not (lo < c < hi):
                break
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            if not (lo < d < hi):
                break
            fd = f(d)
    return lo, hi


def _polish(grad, lo: float, hi: float, top: float) -> float:
    """Root of the decreasing gradient near a golden-section bracket.

    Where the utility is flat to within rounding, golden section can leave
    its bracket [lo, hi] beside the maximum, so the bracket first widens
    outward by steps of its width, doubling each time, until the gradient
    changes sign or the bracket reaches 0 or ``top``; regula falsi then
    closes it.  The weight derivative can diverge at 0, so a zero left end
    is probed at the smallest positive scale instead.
    """
    width = hi - lo
    probe = lo if lo > 0.0 else min(1e-300, 0.5 * hi)
    if probe >= hi:
        return lo
    g_lo = grad(probe)
    if g_lo <= 0.0:
        while g_lo < 0.0 and lo > 0.0:
            hi, g_hi = lo, g_lo
            lo = max(0.0, lo - width)
            width *= 2.0
            probe = lo if lo > 0.0 else min(1e-300, 0.5 * hi)
            g_lo = grad(probe)
        if g_lo <= 0.0:
            return lo
    else:
        g_hi = grad(hi)
        while g_hi > 0.0 and hi < top:
            probe, g_lo = hi, g_hi
            hi = min(top, hi + width)
            width *= 2.0
            g_hi = grad(hi)
        if g_hi >= 0.0:
            return hi
    return _falsi(grad, probe, hi, g_lo, g_hi, 200)


def _best_response_scalar(game: _Game, i: int, sig_minus: float, tol: float) -> float:
    v = game.values[i]
    if game.linear_wp:
        return winnerpay_proportional_best_response(sig_minus, v)
    width = max(tol, 1e-15 * max(1.0, v))
    lo, hi = _golden_bracket(
        lambda b: _utility_masked(game, i, b, sig_minus), 0.0, v, width
    )
    return _polish(lambda b: _gradient_masked(game, i, b, sig_minus), lo, hi, v)


def _gap_scalar(game: _Game, bids: Sequence[float], tol: float) -> float:
    total = _WeightTotal([game.wf(b) for b in bids])
    values = game.values
    gap = 0.0
    for i in range(len(bids)):
        if i and values[i] == values[i - 1] and bids[i] == bids[i - 1]:
            # Values are sorted, so ties sit together; an equal (value, bid)
            # pair has the same opposing weight, best response and gain.
            continue
        sig_minus = total.others(i)
        if sig_minus <= 0.0:
            raise DegenerateProfileError(
                "opposing bids carry zero weight; best-response gap undefined"
            )
        br = _best_response_scalar(game, i, sig_minus, tol)
        gain = _gain(game, i, bids[i], br, sig_minus)
        if gain > gap:
            gap = gain
    return gap


# Below this many lanes numpy's fixed cost per operation (about 2 ms a
# certificate) outweighs the per-lane Python work that the lockstep saves.
# Measured, it breaks even near 80 lanes under power weights and near 128
# under log1p and loglog, whose weights still call math.log1p per element.
_LOCKSTEP_MIN_LANES = 128


def _gap(game: _Game, bids: Sequence[float], tol: float) -> float:
    """The best-response gap: lockstep on many lanes, the scalar loop on few.

    Both give the same float.  Where the lockstep raises (a zero
    denominator, an overflow, a degenerate profile) the scalar loop runs
    instead, so the caller sees the error it raises first in lane order.
    Winners-pay ``power:1`` has a closed-form response, so its lanes always
    take the loop.
    """
    if len(bids) >= _LOCKSTEP_MIN_LANES and not game.linear_wp:
        # imported here: without cached bytecode an import compiles the
        # module, a cost that callers who never certify a crowd need not pay
        from . import lockstep

        if lockstep.lane_starts(game.values, bids).size >= _LOCKSTEP_MIN_LANES:
            try:
                return lockstep.gap(game, bids, tol)
            except (ArithmeticError, ValueError):
                pass
    return _gap_scalar(game, bids, tol)


_ORACLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# public oracle API


def best_response(
    instance: AuctionInstance, i: int, bids, tol: float = _ORACLE_TOL
) -> float:
    """Argmax of bidder i's utility over [0, v_i], the other bids held fixed.

    Position i of ``bids`` is ignored.  The opposing weight is computed
    exactly as the certificate computes it, so this is the response that
    :func:`best_response_gap` measures against.  Uses the exact winners-pay
    proportional formula when it applies; otherwise golden-section search
    (leftmost on ties) down to an interval of width ``tol``, widened until
    the gradient changes sign across it, then regula falsi on the gradient,
    so the returned point is accurate to roughly float precision regardless
    of ``tol``.
    """
    if not (0 <= i < instance.n):
        raise DomainError(f"bidder index {i} out of range for n={instance.n}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    game = _Game(instance)
    seq = mechanism._bids_array(instance, bids).tolist()
    sig_minus = _WeightTotal([game.wf(b) for b in seq]).others(i)
    if sig_minus <= 0.0:
        raise DegenerateProfileError(
            "opposing bids carry zero weight; best response undefined"
        )
    return _best_response_scalar(game, i, sig_minus, tol)


def best_response_gap(
    instance: AuctionInstance, bids, tol: float = _ORACLE_TOL
) -> float:
    """Certified distance from equilibrium: the largest unilateral utility gain.

    Zero (up to oracle noise) exactly at a pure Nash equilibrium.  This is
    the only convergence criterion the solvers trust.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    seq = mechanism._bids_array(instance, bids).tolist()
    return _gap(_Game(instance), seq, tol)


# ---------------------------------------------------------------------------
# solvers


# Full best-response steps clamp here, see best_response_iteration.
_BID_FLOOR = 1e-9


def _initial_bids(instance: AuctionInstance, config: SolverConfig) -> list[float]:
    if _BID_FLOOR >= min(instance.values.values):
        raise DomainError(
            f"best-response iteration needs every valuation above its bid "
            f"floor {_BID_FLOOR:g}"
        )
    start = config.initial_bids
    if start is None:
        start = (1.0,) * instance.n
    if len(start) != instance.n:
        raise DomainError(f"expected {instance.n} initial bids, got {len(start)}")
    return [
        min(max(b, _BID_FLOOR), v) for b, v in zip(start, instance.values.values)
    ]


class _Tracker:
    """Keeps the best certified point seen across a run."""

    __slots__ = ("game", "gap", "point")

    def __init__(self, game: _Game) -> None:
        self.game = game
        self.gap = math.inf
        self.point: list[float] | None = None

    def _certify(self, point: list[float]) -> float:
        gap = _gap(self.game, point, _ORACLE_TOL)
        if gap < self.gap:
            self.gap = gap
            self.point = list(point)
        return gap

    def certify(self, point: list[float], avg: list[float]) -> float:
        """The smaller gap of the iterate and the running mean.

        The mean is certified only when it differs from the iterate, as it
        does not after the first step.
        """
        gap = self._certify(point)
        if avg != point:
            gap = min(gap, self._certify(avg))
        return gap


def _result(
    instance: AuctionInstance,
    config: SolverConfig,
    point: list[float],
    epsilon: float,
    iterations: int,
    method: Method,
) -> EquilibriumResult:
    bids = BidVector(tuple(point))
    return EquilibriumResult(
        bids=bids,
        epsilon=epsilon,
        revenue=mechanism.revenue(instance, bids),
        efficiency=mechanism.efficiency(instance, bids),
        iterations=iterations,
        converged=epsilon <= config.tolerance,
        method=method,
    )


_ETA_MIN = 2.0**-12


def _block_sweeps(eta: float) -> int:
    # Under damping eta the certified gap contracts like (1 - eta)^2 per
    # sweep, so a block must span ~1/eta sweeps to witness progress.
    return 12 + math.ceil(8.0 / eta)


def best_response_iteration(
    instance: AuctionInstance, config: SolverConfig | None = None
) -> EquilibriumResult:
    """Damped cyclic best-response sweeps (one sweep = one iteration).

    The independent reference for :func:`aggregate_solve`: ``verify`` uses
    it for random starts (``uniqueness``) and as the cross-check
    (``agreement``).

    Each sweep updates bidders in value order, moving each a fraction eta
    toward their best response against the current profile.  Full steps
    (eta = 1) converge in a handful of sweeps whenever the response map
    contracts, but they lock into oscillation when it does not: many
    similar bidders pile in and retreat together, and under all-pay a
    lopsided pair overshoots back and forth (the response slopes grow with
    the value ratio).  No fixed eta suits every instance, so eta follows a
    ladder: whenever a block of sweeps fails to improve the best certified
    gap, eta halves and the iterate restarts from the best point seen.
    Blocks lengthen as eta shrinks so that a stable eta always gets enough
    sweeps to prove itself.  A sweep costs about as much as a certificate,
    so the iterate and, where it differs, the running mean of the iterates
    are certified after every sweep; the result is the best of them.

    Full steps clamp at a fixed bid floor of 1e-9, so every valuation must
    lie above it; that keeps a transient where every best response hits
    zero at once from zeroing the whole profile.  Damped steps are allowed
    to glide below the floor, because some instances are outbid so heavily
    that their only equilibrium bid is exactly zero and a floored bid would
    leave a certified gap of about floor * (1 - v/sigma) forever.  The damped update keeps bids strictly positive on its own; a
    denormal guard just keeps the weights well defined.
    """
    config = config or SolverConfig()
    game = _Game(instance)
    n = instance.n
    b = _initial_bids(instance, config)
    avg = [0.0] * n
    tracker = _Tracker(game)
    iterations = 0
    eta = 1.0
    block_end = _block_sweeps(eta)
    prev_best = math.inf
    for sweep in range(1, config.max_iterations + 1):
        total = _WeightTotal([game.wf(x) for x in b])
        for i in range(n):
            sig_minus = total.others(i)
            if sig_minus <= 0.0:
                raise DegenerateProfileError(
                    "opposing bids carry zero weight during a sweep"
                )
            br = _best_response_scalar(game, i, sig_minus, _ORACLE_TOL)
            if eta == 1.0:
                moved, lo = br, _BID_FLOOR
            else:
                moved, lo = b[i] + eta * (br - b[i]), 1e-300
            b[i] = moved if moved >= lo else lo
            total.replace(i, game.wf(b[i]))
        inv_t = 1.0 / sweep
        for i in range(n):
            avg[i] += (b[i] - avg[i]) * inv_t
        iterations = sweep
        if tracker.certify(b, avg) <= config.tolerance:
            break
        if sweep == block_end:
            if tracker.gap > prev_best * (1.0 - 1e-6) and eta > _ETA_MIN:
                eta = max(eta / 2.0, _ETA_MIN)
                if tracker.point is not None:
                    b = list(tracker.point)
            prev_best = tracker.gap
            block_end = sweep + _block_sweeps(eta)
    point, epsilon = tracker.point, tracker.gap
    if point is None:  # no certificate came out finite
        point, epsilon = avg, _gap(game, avg, _ORACLE_TOL)
    return _result(
        instance, config, point, epsilon, iterations, Method.BEST_RESPONSE_ITERATION
    )


def _falsi(f, lo: float, hi: float, f_lo: float, f_hi: float, max_evals: int) -> float:
    """Root of a decreasing f on [lo, hi], given f(lo) > 0 > f(hi).

    Regula falsi with the Illinois modification: when the same end moves
    twice running, the other end's value is halved, which restores
    superlinear convergence.  A falsi point is kept a few ulps inside the
    bracket, so a root next to an end closes the bracket at once.  A step
    that leaves the bracket, or three steps that fail to halve it, give way
    to bisection, geometric while the bracket spans more than a factor of
    two, so brackets over hundreds of orders of magnitude still close fast.
    Stops at an exact zero, once no float lies strictly inside the bracket,
    or after ``max_evals`` evaluations; returns the evaluated point with
    the smallest ``|f|``.
    """
    best, f_best = (lo, f_lo) if f_lo <= -f_hi else (hi, f_hi)
    side = 0
    w1 = w2 = w3 = math.inf  # the bracket widths of the last three steps
    for _ in range(max_evals):
        width = hi - lo
        x = lo + width * (f_lo / (f_lo - f_hi))
        nudge = 4.0 * math.ulp(hi)
        if x < lo + nudge:
            x = lo + nudge
        elif x > hi - nudge:
            x = hi - nudge
        if not (lo < x < hi) or width > 0.5 * w1:
            if 0.0 < 2.0 * lo < hi:
                x = math.sqrt(lo) * math.sqrt(hi)
            else:
                x = lo + 0.5 * width
            if not (lo < x < hi):
                break
        w1, w2, w3 = w2, w3, width
        fx = f(x)
        if abs(fx) < abs(f_best):
            best, f_best = x, fx
        if fx > 0.0:
            lo, f_lo = x, fx
            if side > 0:
                f_hi *= 0.5
            side = 1
        elif fx < 0.0:
            hi, f_hi = x, fx
            if side < 0:
                f_lo *= 0.5
            side = -1
        else:
            break
    return best


def _value_runs(values: Sequence[float]) -> list[tuple[float, int]]:
    """(value, multiplicity) for each run of equal values, in order."""
    runs: list[tuple[float, int]] = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1] = (v, runs[-1][1] + 1)
        else:
            runs.append((v, 1))
    return runs


def _stationary_bid(
    game: _Game, v: float, sigma: float, guess: float, spread: float
) -> float:
    """The bid that satisfies a value-v bidder's first-order condition when
    the total weight, their own included, is sigma.

    All-pay:      v w'(b) (sigma - w(b)) = sigma^2
    Winners-pay:  w'(b) (v - b) (sigma - w(b)) = w(b) sigma

    Both residuals decrease in b and are negative at b = v, so the root is
    unique.  An all-pay residual that is already nonpositive at the
    smallest probe means the bidder is outbid: the bid is exactly zero.
    The search first tries the bracket guess * (1 -+ spread), then falls
    back to the rest of [probe, v].
    """
    wf, wd = game.wf, game.wd
    # both residuals are divided by a power of sigma, which keeps them in
    # float range at any scale and changes no sign
    if game.all_pay:
        ratio = v / sigma

        def residual(b: float) -> float:
            return ratio * wd(b) * (1.0 - wf(b) / sigma) - 1.0

    else:

        def residual(b: float) -> float:
            w = wf(b)
            return wd(b) * (v - b) * (1.0 - w / sigma) - w

    lo, hi = min(1e-300, 0.5 * v), v
    r_lo = r_hi = None
    if guess > 0.0 and spread < 0.5:
        for x in (guess * (1.0 - spread), min(v, guess * (1.0 + spread))):
            r = residual(x)
            if r > 0.0:
                lo, r_lo = x, r
            else:
                hi, r_hi = x, r
                break
    if r_lo is None:
        r_lo = residual(lo)
        if not r_lo > 0.0:
            return 0.0
    if r_hi is None:
        r_hi = residual(hi)
    return _falsi(residual, lo, hi, r_lo, r_hi, 200)


def aggregate_solve(
    instance: AuctionInstance, config: SolverConfig | None = None
) -> EquilibriumResult:
    """One root in the total weight sigma, then one certificate.

    At a trial sigma every bidder's stationary bid b_i(sigma) is a 1-D root
    (:func:`_stationary_bid`), and the equilibrium total is the root of
    sum_i w(b_i(sigma)) / sigma - 1, which decreases in sigma.  The bracket
    starts at sigma = sum_i w(v_i), where the excess is negative, and is
    quartered down until it turns positive; regula falsi then closes it to
    float resolution.  Equal values share one stationary bid, so each run
    of them is solved once.  ``iterations`` counts trial totals and is
    capped by ``max_iterations``; an exhausted cap returns the best trial
    point found, certified as it is.  There is no bid floor: outbid
    all-pay bidders bid exactly zero.
    """
    config = config or SolverConfig()
    if config.initial_bids is not None:
        raise DomainError("the aggregate method takes no initial_bids")
    game = _Game(instance)
    wf = game.wf
    runs = _value_runs(game.values)
    evals = 0
    # each trial's bids, bracketed by how far the total moved, seed the next
    last_sigma = math.nan
    last_bids = [0.0] * len(runs)

    def stationary_bids(sigma: float) -> list[float]:
        nonlocal last_sigma, last_bids
        if sigma == last_sigma:
            return last_bids
        spread = 2.0 * abs(sigma / last_sigma - 1.0)
        last_bids = [
            _stationary_bid(game, v, sigma, guess, spread)
            for (v, _), guess in zip(runs, last_bids)
        ]
        last_sigma = sigma
        return last_bids

    def excess(sigma: float) -> float:
        nonlocal evals
        evals += 1
        bids = stationary_bids(sigma)
        return math.fsum(k * wf(b) for (_, k), b in zip(runs, bids)) / sigma - 1.0

    cap = config.max_iterations
    hi = math.fsum(wf(v) for v in game.values)
    f_hi = excess(hi)
    lo, f_lo = hi, f_hi
    while f_lo < 0.0 and evals < cap and 0.25 * lo > 0.0:
        hi, f_hi = lo, f_lo
        lo *= 0.25
        f_lo = excess(lo)
    if f_lo > 0.0 > f_hi and evals < cap:
        sigma = _falsi(excess, lo, hi, f_lo, f_hi, cap - evals)
    else:
        sigma = lo if abs(f_lo) <= abs(f_hi) else hi
    bids = [b for (_, k), b in zip(runs, stationary_bids(sigma)) for _ in range(k)]
    epsilon = _gap(game, bids, _ORACLE_TOL)
    return _result(instance, config, bids, epsilon, evals, Method.AGGREGATE)


def solve(
    instance: AuctionInstance, config: SolverConfig | None = None
) -> EquilibriumResult:
    """Dispatch to the method named in the config (default: aggregate)."""
    config = config or SolverConfig()
    if config.method is Method.AGGREGATE:
        return aggregate_solve(instance, config)
    return best_response_iteration(instance, config)
