"""Single-item quasi-proportional auction: allocation, payoffs, gradients.

With weight function w and bid vector b, bidder i receives the item with
probability w(b_i) / sigma where sigma = sum_j w(b_j).  Two payment rules:

* all-pay:      u_i = v_i * w(b_i)/sigma - b_i
* winners-pay:  u_i = (w(b_i)/sigma) * (v_i - b_i)

All operations take the instance plus an explicit bid vector; nothing here
clamps or repairs bids.  A profile with sigma == 0 is an error, never a
uniform fallback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateProfileError, DomainError
from .weights import WeightSpec


class PaymentRule(str, Enum):
    ALL_PAY = "all_pay"
    WINNERS_PAY = "winners_pay"

    @classmethod
    def parse(cls, text: str | "PaymentRule") -> "PaymentRule":
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text))
        except ValueError:
            raise DomainError(
                f"unknown payment rule {text!r}; expected 'all_pay' or 'winners_pay'"
            ) from None


@dataclass(frozen=True)
class ValuationProfile:
    """Bidder valuations, stored in nonincreasing order.

    ``original_indices[k]`` is the position the k-th (sorted) value had in the
    input sequence, so reports can be mapped back to the caller's ordering.
    ``alpha`` is the top value; the profile needs at least two bidders.
    """

    values: tuple[float, ...]
    original_indices: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise DomainError("a valuation profile needs at least two bidders")
        for v in vals:
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(f"valuations must be finite and > 0, got {v!r}")
        order = sorted(range(len(vals)), key=lambda i: -vals[i])  # stable on ties
        object.__setattr__(self, "values", tuple(vals[i] for i in order))
        object.__setattr__(self, "original_indices", tuple(order))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def alpha(self) -> float:
        return self.values[0]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class BidVector:
    """A tuple of nonnegative bids.  Use :meth:`checked` to enforce b_i <= v_i."""

    bids: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(b) for b in self.bids)
        for b in vals:
            if not math.isfinite(b) or b < 0.0:
                raise DomainError(f"bids must be finite and >= 0, got {b!r}")
        object.__setattr__(self, "bids", vals)

    @classmethod
    def checked(cls, bids: Iterable[float], profile: ValuationProfile) -> "BidVector":
        vec = cls(tuple(bids))
        if len(vec.bids) != profile.n:
            raise DomainError(
                f"expected {profile.n} bids, got {len(vec.bids)}"
            )
        for b, v in zip(vec.bids, profile.values):
            if b > v:
                raise DomainError(f"bid {b!r} exceeds the bidder's valuation {v!r}")
        return vec

    def as_array(self) -> np.ndarray:
        return np.asarray(self.bids, dtype=float)

    def __len__(self) -> int:
        return len(self.bids)


@dataclass(frozen=True)
class AuctionInstance:
    """Immutable game description: payment rule, valuations, weight function."""

    rule: PaymentRule
    values: ValuationProfile
    weight: WeightSpec

    @classmethod
    def make(
        cls,
        rule: str | PaymentRule,
        values: Sequence[float],
        weight: str | WeightSpec,
    ) -> "AuctionInstance":
        spec = weight if isinstance(weight, WeightSpec) else WeightSpec.parse(weight)
        return cls(PaymentRule.parse(rule), ValuationProfile(tuple(values)), spec)

    @property
    def n(self) -> int:
        return self.values.n

    def bid_vector(self, bids: Iterable[float]) -> BidVector:
        return BidVector.checked(bids, self.values)


# ---------------------------------------------------------------------------
# array plumbing


def _bids_array(instance: AuctionInstance, bids) -> np.ndarray:
    arr = np.asarray(bids.bids if isinstance(bids, BidVector) else bids, dtype=float)
    if arr.shape != (instance.n,):
        raise DomainError(f"expected {instance.n} bids, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("bids must be finite and >= 0")
    return arr


# Below this magnitude no partial sum of nonnegative weights can overflow,
# so the expansion and every fsum over a subset of the weights stay exact.
_EXACT_LIMIT = 2.0**1023


def _grow(partials: list[float], x: float) -> None:
    """Add x to a Shewchuk expansion in place, without rounding error."""
    k = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[k] = lo
            k += 1
        x = hi
    partials[k:] = [x]


class _WeightTotal:
    """Weights and their exact total, for reading off opposing weights.

    ``partials`` is a Shewchuk expansion (Adaptive precision floating-point
    arithmetic, DCG 18, 1997): nonoverlapping floats of increasing magnitude
    whose exact sum is ``sum(w)``.  Its length is bounded by the float
    exponent range, not by n, so an exclusion sum costs O(1) in n.
    ``math.fsum`` rounds the exact sum of its inputs correctly, so
    ``fsum(partials + [-w[i]])`` is bit for bit ``fsum`` over every weight
    but ``w[i]``.  A total past ``_EXACT_LIMIT`` could overflow, so then the
    others are summed directly, as fsum would.
    """

    __slots__ = ("w", "partials")

    def __init__(self, w: list[float]) -> None:
        self.w = w
        partials: list[float] = []
        for x in w:
            _grow(partials, x)
        self.partials = partials if abs(partials[-1]) < _EXACT_LIMIT else None

    def others(self, i: int) -> float:
        """The correctly rounded sum of every weight but ``w[i]``."""
        partials = self.partials
        if partials is None:
            return math.fsum(self.w[:i] + self.w[i + 1 :])
        return math.fsum(partials + [-self.w[i]])

    def replace(self, i: int, x: float) -> None:
        """Set ``w[i] = x``, keeping the total exact."""
        partials = self.partials
        if partials is not None:
            _grow(partials, -self.w[i])
            _grow(partials, x)
            if not abs(partials[-1]) < _EXACT_LIMIT:
                self.partials = None
        self.w[i] = x


def weight_sums(instance: AuctionInstance, bids) -> tuple[np.ndarray, float]:
    """Per-bidder weights and their total sigma (a plain float sum).

    ``sigma - w[i]`` is only an approximation of bidder i's opposing weight:
    it cancels catastrophically when bidder i carries nearly all the weight.
    Opposing weights are read off an exact running sum instead
    (:class:`_WeightTotal`), here and in the solver.
    """
    arr = _bids_array(instance, bids)
    w = instance.weight.value(arr)
    return w, float(np.sum(w))


def allocation_probabilities(instance: AuctionInstance, bids) -> np.ndarray:
    """Win probabilities w(b_i)/sigma.  Raises if every weight is zero."""
    w, sigma = weight_sums(instance, bids)
    if sigma <= 0.0:
        raise DegenerateProfileError("all bids carry zero weight; allocation undefined")
    return w / sigma


def _check_index(instance: AuctionInstance, i: int) -> None:
    if not (0 <= i < instance.n):
        raise DomainError(f"bidder index {i} out of range for n={instance.n}")


def utility(instance: AuctionInstance, i: int, bids) -> float:
    """Expected payoff of bidder i at the given bid profile."""
    _check_index(instance, i)
    p = allocation_probabilities(instance, bids)
    arr = _bids_array(instance, bids)
    v = instance.values.values[i]
    if instance.rule is PaymentRule.ALL_PAY:
        return float(v * p[i] - arr[i])
    return float(p[i] * (v - arr[i]))


def _deriv_at(instance: AuctionInstance, b: float) -> float:
    if b > 0.0:
        return float(instance.weight.deriv(b))
    limit = instance.weight.deriv_limit_at_zero()
    if not math.isfinite(limit):
        raise DomainError("weight derivative diverges at a zero bid")
    return limit


def utility_gradient(instance: AuctionInstance, i: int, bids) -> float:
    """d u_i / d b_i, holding the other bids fixed.

    All-pay:      v_i w'(b_i) (sigma - w_i) / sigma^2 - 1
    Winners-pay:  [w'(b_i)(v_i - b_i)(sigma - w_i) - w_i sigma] / sigma^2

    The opposing weight sigma - w_i is the correctly rounded sum of the
    other weights, never a difference of rounded floats.
    """
    _check_index(instance, i)
    arr = _bids_array(instance, bids)
    w, sigma = weight_sums(instance, arr)
    if sigma <= 0.0:
        raise DegenerateProfileError("all bids carry zero weight; gradient undefined")
    v = instance.values.values[i]
    wd = _deriv_at(instance, float(arr[i]))
    others = _WeightTotal(w.tolist()).others(i)
    if instance.rule is PaymentRule.ALL_PAY:
        return v * wd * others / (sigma * sigma) - 1.0
    return (wd * (v - float(arr[i])) * others - float(w[i]) * sigma) / (sigma * sigma)


def utility_gradients(instance: AuctionInstance, bids) -> np.ndarray:
    """Vectorized :func:`utility_gradient` over every bidder."""
    arr = _bids_array(instance, bids)
    w, sigma = weight_sums(instance, arr)
    if sigma <= 0.0:
        raise DegenerateProfileError("all bids carry zero weight; gradient undefined")
    v = instance.values.as_array()
    wd = np.empty_like(arr)
    pos = arr > 0.0
    if np.any(pos):
        wd[pos] = instance.weight.deriv(arr[pos])
    if np.any(~pos):
        limit = instance.weight.deriv_limit_at_zero()
        if not math.isfinite(limit):
            raise DomainError("weight derivative diverges at a zero bid")
        wd[~pos] = limit
    total = _WeightTotal(w.tolist())
    others = np.array([total.others(i) for i in range(instance.n)])
    if instance.rule is PaymentRule.ALL_PAY:
        return v * wd * others / (sigma * sigma) - 1.0
    return (wd * (v - arr) * others - w * sigma) / (sigma * sigma)


def _closure_weights(
    instance: AuctionInstance, bids, what: str
) -> tuple[list[float], list[float], float]:
    """Bids, their weights through the scalar closures, and sigma by fsum.

    The certificate weighs bids through the same closures, so revenue and
    efficiency describe exactly the profile that epsilon certifies.
    """
    b = _bids_array(instance, bids).tolist()
    wf, _ = instance.weight.scalar_functions()
    w = [wf(x) for x in b]
    sigma = math.fsum(w)
    if sigma <= 0.0:
        raise DegenerateProfileError(f"all bids carry zero weight; {what} undefined")
    return b, w, sigma


def revenue(instance: AuctionInstance, bids) -> float:
    """Seller revenue: sum of bids (all-pay) or win-probability-weighted bids."""
    if instance.rule is PaymentRule.ALL_PAY:
        return float(np.sum(_bids_array(instance, bids)))
    b, w, sigma = _closure_weights(instance, bids, "revenue")
    return math.fsum(x * y for x, y in zip(b, w)) / sigma


def efficiency(instance: AuctionInstance, bids) -> float:
    """Expected value delivered to the winner: sum_i v_i w(b_i)/sigma."""
    _, w, sigma = _closure_weights(instance, bids, "efficiency")
    return math.fsum(v * y for v, y in zip(instance.values.values, w)) / sigma


def foc_residual(instance: AuctionInstance, i: int, bids) -> float:
    """First-order-condition residual for bidder i; zero exactly at a stationary bid.

    All-pay:      v_i - sigma^2 / (w'(b_i)(sigma - w_i))
    Winners-pay:  v_i - b_i - w_i sigma / (w'(b_i)(sigma - w_i))

    Requires b_i > 0 and positive opposing weight, which is summed exactly
    as in :func:`utility_gradient`.  The residual is the gradient rescaled
    by sigma^2 / (w'(b_i)(sigma - w_i)) > 0, so the two vanish together.
    """
    _check_index(instance, i)
    arr = _bids_array(instance, bids)
    if arr[i] <= 0.0:
        raise DomainError("foc_residual requires a strictly positive own bid")
    w, sigma = weight_sums(instance, arr)
    others = _WeightTotal(w.tolist()).others(i)
    if others <= 0.0:
        raise DegenerateProfileError("opposing bids carry zero weight; residual undefined")
    v = instance.values.values[i]
    wd = float(instance.weight.deriv(float(arr[i])))
    if instance.rule is PaymentRule.ALL_PAY:
        return v - sigma * sigma / (wd * others)
    return v - float(arr[i]) - float(w[i]) * sigma / (wd * others)


# ---------------------------------------------------------------------------
# serialization


def to_dict(instance: AuctionInstance, bids: BidVector | None = None) -> dict:
    obj: dict = {
        "rule": instance.rule.value,
        "values": list(instance.values.values),
        "weight": instance.weight.tag,
    }
    if bids is not None:
        obj["bids"] = list(bids.bids)
    return obj


def from_dict(obj: dict) -> tuple[AuctionInstance, BidVector | None]:
    try:
        rule = obj["rule"]
        values = obj["values"]
        weight = obj["weight"]
    except (KeyError, TypeError):
        raise DomainError("instance object needs 'rule', 'values' and 'weight'") from None
    instance = AuctionInstance.make(rule, values, weight)
    bids = obj.get("bids")
    if bids is None:
        return instance, None
    return instance, instance.bid_vector(bids)


def to_json(instance: AuctionInstance, bids: BidVector | None = None) -> str:
    return json.dumps(to_dict(instance, bids), sort_keys=True)


def from_json(text: str) -> tuple[AuctionInstance, BidVector | None]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad instance JSON: {exc}") from None
    return from_dict(obj)
