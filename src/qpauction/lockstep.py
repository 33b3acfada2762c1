"""The lockstep certificate: every lane of ``solver._gap_scalar`` at once.

A lane is one distinct (value, bid) pair, the unit the scalar certificate
loops over.  Each helper here runs its scalar counterpart in ``solver`` on
all lanes together: every branch becomes a mask, and a lane that stops
leaves the arrays.  The arithmetic is the scalar code's, operation for
operation; numpy's +, -, *, / and sqrt round as Python floats do, and the
weights come from ``WeightSpec.lane_functions``, which equal the scalar
closures in every bit.  So every lane returns exactly the scalar result,
and :func:`gap` exactly the float of ``_gap_scalar``.

Python raises on a zero denominator or an overflow where numpy only sets a
flag, so :func:`gap` raises on every flag but underflow, and the caller
(``solver._gap``) then runs the scalar loop, which raises its own error.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from .errors import DegenerateProfileError
from .mechanism import _WeightTotal
from .solver import _INV_PHI, _Game


def lane_starts(values: Sequence[float], bids: Sequence[float]) -> np.ndarray:
    """Indices of the bidders ``_gap_scalar`` visits: the first of each run
    of equal (value, bid) pairs."""
    values = np.asarray(values, dtype=float)
    bids = np.asarray(bids, dtype=float)
    new = np.ones(values.size, dtype=bool)
    new[1:] = (values[1:] != values[:-1]) | (bids[1:] != bids[:-1])
    return np.flatnonzero(new)


def _utility(game: _Game, b: np.ndarray, v: np.ndarray, sig_minus: np.ndarray) -> np.ndarray:
    w = game.lane_wf(b)
    sigma = sig_minus + w
    if game.all_pay:
        return v * w / sigma - b
    return w * (v - b) / sigma


def _gradient(game: _Game, b: np.ndarray, v: np.ndarray, sig_minus: np.ndarray) -> np.ndarray:
    w = game.lane_wf(b)
    wd = game.lane_wd(b)
    sigma = sig_minus + w
    if game.all_pay:
        return v * wd * sig_minus / (sigma * sigma) - 1.0
    return (wd * (v - b) * sig_minus - w * sigma) / (sigma * sigma)


def _gain(
    game: _Game, v: np.ndarray, b_old: np.ndarray, b_new: np.ndarray, sig_minus: np.ndarray
) -> np.ndarray:
    w_old = game.lane_wf(b_old)
    w_new = game.lane_wf(b_new)
    so = sig_minus + w_old
    sn = sig_minus + w_new
    db = b_new - b_old
    dw = w_new - w_old
    step = np.abs(db)
    small = (0.0 < step) & (step <= 2.0**-20 * np.where(b_new > b_old, b_new, b_old))
    if np.count_nonzero(small):
        # w' only where the scalar _gain evaluates it, so no other lane can raise
        dw[small] = game.lane_wd(b_old[small] + 0.5 * db[small]) * db[small]
    if game.all_pay:
        return v * sig_minus * dw / (sn * so) - db
    return (sig_minus * ((v - b_old) * dw - w_new * db) - w_old * w_new * db) / (sn * so)


def _golden_bracket(f, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray, *args: np.ndarray):
    """``_golden_bracket`` on every lane; ``f(x, *args)`` takes the lanes' args."""
    out_lo, out_hi = np.empty_like(lo), np.empty_like(hi)
    lane = np.arange(lo.size)
    lo, hi = lo.copy(), hi.copy()
    span = _INV_PHI * (hi - lo)
    c = hi - span
    d = lo + span
    fc = f(c, *args)
    fd = f(d, *args)
    done = hi - lo <= tol
    for _ in range(300):
        if np.count_nonzero(done):
            out_lo[lane[done]] = lo[done]
            out_hi[lane[done]] = hi[done]
            keep = ~done
            lane, lo, hi, c, d, fc, fd, tol = (
                a[keep] for a in (lane, lo, hi, c, d, fc, fd, tol)
            )
            args = tuple(a[keep] for a in args)
            if not lane.size:
                return out_lo, out_hi
        left = fc >= fd
        right = ~left
        np.copyto(hi, d, where=left)
        np.copyto(lo, c, where=right)
        np.copyto(d, c, where=left)  # the kept inner point
        np.copyto(fd, fc, where=left)
        np.copyto(c, d, where=right)
        np.copyto(fc, fd, where=right)
        width = hi - lo
        span = _INV_PHI * width
        x = lo + span
        np.copyto(x, hi - span, where=left)
        # A lane whose new point is not strictly inside stops before
        # evaluating it, one within tol after: either way its bracket is final,
        # so its evaluation here is discarded.
        done = ~((lo < x) & (x < hi) & (width > tol))
        fx = f(x, *args)
        np.copyto(c, x, where=left)
        np.copyto(fc, fx, where=left)
        np.copyto(d, x, where=right)
        np.copyto(fd, fx, where=right)
    out_lo[lane] = lo
    out_hi[lane] = hi
    return out_lo, out_hi


def _probe(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # lo if lo > 0.0 else min(1e-300, 0.5 * hi)
    half = 0.5 * hi
    return np.where(lo > 0.0, lo, np.where(half < 1e-300, half, 1e-300))


def _polish(grad, lo: np.ndarray, hi: np.ndarray, top: np.ndarray, *args: np.ndarray):
    """``_polish`` on every lane.  The widening loops are rare, so they run on
    index subsets; every lane that needs regula falsi starts it together."""
    lo, hi = lo.copy(), hi.copy()
    width = hi - lo
    probe = _probe(lo, hi)
    out = lo.copy()  # the lanes with probe >= hi return lo
    g_lo, g_hi = np.empty_like(lo), np.empty_like(hi)

    def grad_at(x: np.ndarray, sel: np.ndarray) -> np.ndarray:
        return grad(x, *(a[sel] for a in args))

    live = np.flatnonzero(probe < hi)
    g_lo[live] = grad_at(probe[live], live)
    down = g_lo[live] <= 0.0
    left, right = live[down], live[~down]

    sel = left[(g_lo[left] < 0.0) & (lo[left] > 0.0)]
    while sel.size:
        hi[sel], g_hi[sel] = lo[sel], g_lo[sel]
        moved = lo[sel] - width[sel]
        lo[sel] = np.where(moved > 0.0, moved, 0.0)
        width[sel] *= 2.0
        probe[sel] = _probe(lo[sel], hi[sel])
        g_lo[sel] = grad_at(probe[sel], sel)
        sel = sel[(g_lo[sel] < 0.0) & (lo[sel] > 0.0)]
    flat = g_lo[left] <= 0.0
    out[left[flat]] = lo[left[flat]]
    falsi = [left[~flat]]

    g_hi[right] = grad_at(hi[right], right)
    sel = right[(g_hi[right] > 0.0) & (hi[right] < top[right])]
    while sel.size:
        probe[sel], g_lo[sel] = hi[sel], g_hi[sel]
        moved = hi[sel] + width[sel]
        hi[sel] = np.where(moved < top[sel], moved, top[sel])
        width[sel] *= 2.0
        g_hi[sel] = grad_at(hi[sel], sel)
        sel = sel[(g_hi[sel] > 0.0) & (hi[sel] < top[sel])]
    flat = g_hi[right] >= 0.0
    out[right[flat]] = hi[right[flat]]
    falsi.append(right[~flat])

    sel = np.concatenate(falsi)
    if sel.size:
        out[sel] = _falsi(
            grad, probe[sel], hi[sel], g_lo[sel], g_hi[sel], 200, *(a[sel] for a in args)
        )
    return out


def _falsi(f, lo, hi, f_lo, f_hi, max_evals: int, *args: np.ndarray) -> np.ndarray:
    """``_falsi`` on every lane; ``f(x, *args)`` takes the lanes' args."""
    out = np.empty_like(lo)
    lane = np.arange(lo.size)
    lo, hi, f_lo, f_hi = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
    first = f_lo <= -f_hi
    best, f_best = np.where(first, lo, hi), np.where(first, f_lo, f_hi)
    went_up = went_down = np.zeros(lo.size, dtype=bool)  # side > 0, side < 0
    w1 = w2 = w3 = np.full(lo.size, math.inf)
    for _ in range(max_evals):
        width = hi - lo
        x = lo + width * (f_lo / (f_lo - f_hi))
        nudge = 4.0 * np.spacing(hi)  # math.ulp for the positive hi
        inner_lo = lo + nudge
        below = x < inner_lo
        x = np.minimum(x, hi - nudge)
        np.copyto(x, inner_lo, where=below)
        bisect = ~((lo < x) & (x < hi)) | (width > 0.5 * w1)
        if np.count_nonzero(bisect):
            twice = 2.0 * lo
            mid = lo + 0.5 * width
            np.copyto(mid, np.sqrt(lo) * np.sqrt(hi), where=(0.0 < twice) & (twice < hi))
            np.copyto(x, mid, where=bisect)
            stop = bisect & ~((lo < x) & (x < hi))
            if np.count_nonzero(stop):
                out[lane[stop]] = best[stop]
                keep = ~stop
                lane, lo, hi, f_lo, f_hi, best, f_best, x, width = (
                    a[keep] for a in (lane, lo, hi, f_lo, f_hi, best, f_best, x, width)
                )
                went_up, went_down, w2, w3 = (a[keep] for a in (went_up, went_down, w2, w3))
                args = tuple(a[keep] for a in args)
                if not lane.size:
                    return out
        w1, w2, w3 = w2, w3, width
        fx = f(x, *args)
        better = np.abs(fx) < np.abs(f_best)
        np.copyto(best, x, where=better)
        np.copyto(f_best, fx, where=better)
        up, down = fx > 0.0, fx < 0.0
        np.copyto(f_hi, f_hi * 0.5, where=up & went_up)
        np.copyto(f_lo, f_lo * 0.5, where=down & went_down)
        np.copyto(lo, x, where=up)
        np.copyto(f_lo, fx, where=up)
        np.copyto(hi, x, where=down)
        np.copyto(f_hi, fx, where=down)
        went_up, went_down = up, down
        stop = ~(up | down)  # an exact zero
        if np.count_nonzero(stop):
            out[lane[stop]] = best[stop]
            keep = ~stop
            lane, lo, hi, f_lo, f_hi, best, f_best = (
                a[keep] for a in (lane, lo, hi, f_lo, f_hi, best, f_best)
            )
            went_up, went_down, w1, w2, w3 = (
                a[keep] for a in (went_up, went_down, w1, w2, w3)
            )
            args = tuple(a[keep] for a in args)
            if not lane.size:
                return out
    out[lane] = best
    return out


def best_responses(
    game: _Game, v: np.ndarray, sig_minus: np.ndarray, tol: float
) -> np.ndarray:
    """``_best_response_scalar`` for every lane, by its search; winners-pay
    ``power:1``, where the scalar oracle uses a closed form, is left to it."""
    width = np.maximum(tol, 1e-15 * np.maximum(1.0, v))
    lo, hi = _golden_bracket(partial(_utility, game), np.zeros_like(v), v, width, v, sig_minus)
    return _polish(partial(_gradient, game), lo, hi, v, v, sig_minus)


def gap(game: _Game, bids: Sequence[float], tol: float) -> float:
    """``_gap_scalar`` with all lanes solved together, bit for bit, for every
    game but winners-pay ``power:1`` (see :func:`best_responses`).

    Raises wherever the scalar loop raises, though not always the same
    error, and on a few inputs where it does not: every floating-point
    flag but underflow raises FloatingPointError, and a zero opposing
    weight in any lane raises DegenerateProfileError before any lane runs.
    """
    values = np.array(game.values)
    arr = np.array(bids, dtype=float)
    lanes = lane_starts(values, arr)
    total = _WeightTotal([game.wf(b) for b in bids])
    sig_minus = np.array([total.others(i) for i in lanes.tolist()])
    if not (sig_minus > 0.0).all():
        raise DegenerateProfileError(
            "opposing bids carry zero weight; best-response gap undefined"
        )
    v = values[lanes]
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        br = best_responses(game, v, sig_minus, tol)
        gain = _gain(game, v, arr[lanes], br, sig_minus)
    gain = gain[gain > 0.0]
    return float(gain.max()) if gain.size else 0.0
