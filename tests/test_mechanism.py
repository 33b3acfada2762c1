"""Game types and exact payoff algebra."""

import json
import math

import numpy as np
import pytest

from qpauction import (
    AuctionInstance,
    BidVector,
    DegenerateProfileError,
    DomainError,
    PaymentRule,
    ValuationProfile,
    allocation_probabilities,
    best_response_gap,
    efficiency,
    foc_residual,
    revenue,
    utility,
    utility_gradient,
    utility_gradients,
)
from qpauction import mechanism
from qpauction.weights import WeightSpec


def test_valuation_profile_sorts_descending_and_remembers_order():
    p = ValuationProfile((1.0, 4.0, 2.0))
    assert p.values == (4.0, 2.0, 1.0)
    assert p.original_indices == (1, 2, 0)
    assert p.alpha == 4.0
    assert p.n == 3


def test_valuation_profile_tie_order_is_stable():
    p = ValuationProfile((2.0, 1.0, 2.0))
    assert p.values == (2.0, 2.0, 1.0)
    assert p.original_indices == (0, 2, 1)


def test_valuation_profile_rejects_bad_inputs():
    with pytest.raises(DomainError):
        ValuationProfile((1.0,))
    with pytest.raises(DomainError):
        ValuationProfile((1.0, 0.0))
    with pytest.raises(DomainError):
        ValuationProfile((1.0, -2.0))
    with pytest.raises(DomainError):
        ValuationProfile((1.0, float("inf")))


def test_bid_vector_checked_enforces_value_cap_and_length():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:1")
    inst.bid_vector((4.0, 1.0))  # at the cap is fine
    with pytest.raises(DomainError):
        inst.bid_vector((4.5, 0.5))
    with pytest.raises(DomainError):
        inst.bid_vector((0.5,))
    with pytest.raises(DomainError):
        BidVector((0.5, -0.1))


def test_make_parses_rule_and_weight_tags():
    inst = AuctionInstance.make("winners_pay", (2.0, 1.0), "power:0.5")
    assert inst.rule is PaymentRule.WINNERS_PAY
    assert inst.weight == WeightSpec.power(0.5)
    with pytest.raises(DomainError):
        AuctionInstance.make("second_price", (2.0, 1.0), "power:1")


# --- frozen closed-form point: all-pay, values (4,1), w = sqrt -------------
# equilibrium bids (4/9, 1/9); weights (2/3, 1/3); win probs (2/3, 1/3)

AP_SQRT = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
AP_BIDS = (4.0 / 9.0, 1.0 / 9.0)


def test_allocation_probabilities_known_point():
    p = allocation_probabilities(AP_SQRT, AP_BIDS)
    assert p == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-14)
    assert float(np.sum(p)) == pytest.approx(1.0, rel=1e-15)


def test_utility_known_point():
    assert utility(AP_SQRT, 0, AP_BIDS) == pytest.approx(20.0 / 9.0, rel=1e-14)
    assert utility(AP_SQRT, 1, AP_BIDS) == pytest.approx(2.0 / 9.0, rel=1e-14)


def test_revenue_and_efficiency_known_point():
    assert revenue(AP_SQRT, AP_BIDS) == pytest.approx(5.0 / 9.0, rel=1e-14)
    assert efficiency(AP_SQRT, AP_BIDS) == pytest.approx(3.0, rel=1e-14)


def test_gradient_and_foc_vanish_at_equilibrium():
    for i in range(2):
        assert abs(utility_gradient(AP_SQRT, i, AP_BIDS)) < 1e-13
        assert abs(foc_residual(AP_SQRT, i, AP_BIDS)) < 1e-12


# --- frozen point: winners-pay, values (1,1), proportional -----------------
# symmetric equilibrium b = 1/3

WP_PROP = AuctionInstance.make("winners_pay", (1.0, 1.0), "power:1")


def test_winners_pay_symmetric_point():
    bids = (1.0 / 3.0, 1.0 / 3.0)
    assert revenue(WP_PROP, bids) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert utility(WP_PROP, 0, bids) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert efficiency(WP_PROP, bids) == pytest.approx(1.0, rel=1e-15)
    for i in range(2):
        assert abs(foc_residual(WP_PROP, i, bids)) < 1e-15
        assert abs(utility_gradient(WP_PROP, i, bids)) < 1e-15


def test_winners_pay_revenue_weights_bids_by_win_probability():
    inst = AuctionInstance.make("winners_pay", (4.0, 1.0), "power:1")
    bids = (0.6, 0.2)
    # p = (0.75, 0.25); revenue = 0.6*0.75 + 0.2*0.25 = 0.5
    assert revenue(inst, bids) == pytest.approx(0.5, rel=1e-15)


RULES = ["all_pay", "winners_pay"]
WEIGHTS = ["power:1", "power:0.5", "power:0.25", "log1p", "loglog"]


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("weight", WEIGHTS)
def test_gradient_matches_central_difference(rule, weight):
    rng = np.random.default_rng(20260819)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        values = np.sort(rng.uniform(1.0, 50.0, size=n))[::-1]
        inst = AuctionInstance.make(rule, tuple(values), weight)
        bids = rng.uniform(1e-3, values)
        for i in range(n):
            h = 1e-7 * max(1.0, bids[i])
            up = bids.copy()
            dn = bids.copy()
            up[i] += h
            dn[i] -= h
            fd = (utility(inst, i, up) - utility(inst, i, dn)) / (2.0 * h)
            an = utility_gradient(inst, i, bids)
            scale = max(1.0, abs(an), abs(fd))
            assert abs(an - fd) / scale < 1e-6


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("weight", WEIGHTS)
def test_vector_gradient_matches_per_bidder(rule, weight):
    rng = np.random.default_rng(99)
    values = (8.0, 3.0, 1.0)
    inst = AuctionInstance.make(rule, values, weight)
    bids = rng.uniform(0.01, 1.0, size=3)
    grads = utility_gradients(inst, bids)
    for i in range(3):
        assert grads[i] == pytest.approx(utility_gradient(inst, i, bids), rel=1e-13)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("weight", WEIGHTS)
def test_foc_residual_is_gradient_times_positive_factor(rule, weight):
    rng = np.random.default_rng(5)
    inst = AuctionInstance.make(rule, (6.0, 2.0, 1.0), weight)
    for _ in range(50):
        bids = rng.uniform(1e-2, 1.0, size=3)
        for i in range(3):
            g = utility_gradient(inst, i, bids)
            r = foc_residual(inst, i, bids)
            if abs(g) < 1e-12:
                assert abs(r) < 1e-9
            else:
                assert math.copysign(1.0, g) == math.copysign(1.0, r)


def test_power_weight_allocation_is_scale_invariant():
    inst = AuctionInstance.make("all_pay", (30.0, 20.0, 10.0), "power:0.5")
    bids = np.array([3.0, 2.0, 1.0])
    p1 = allocation_probabilities(inst, bids)
    p2 = allocation_probabilities(inst, bids * 7.5)
    assert p1 == pytest.approx(p2, rel=1e-14)


def test_utility_concave_along_own_bid():
    # midpoint utility beats the chord for every rule/weight pair
    rng = np.random.default_rng(11)
    for rule in RULES:
        for weight in WEIGHTS:
            inst = AuctionInstance.make(rule, (5.0, 1.0), weight)
            for _ in range(200):
                a, b = np.sort(rng.uniform(0.0, 5.0, size=2))
                mid = 0.5 * (a + b)
                ua = utility(inst, 0, (a, 0.7))
                ub = utility(inst, 0, (b, 0.7))
                um = utility(inst, 0, (mid, 0.7))
                assert um >= 0.5 * (ua + ub) - 1e-12


def test_degenerate_profile_raises_instead_of_splitting():
    inst = AuctionInstance.make("winners_pay", (2.0, 1.0), "power:0.5")
    zeros = (0.0, 0.0)
    with pytest.raises(DegenerateProfileError):
        allocation_probabilities(inst, zeros)
    with pytest.raises(DegenerateProfileError):
        utility(inst, 0, zeros)
    with pytest.raises(DegenerateProfileError):
        utility_gradients(inst, zeros)
    with pytest.raises(DegenerateProfileError):
        revenue(inst, zeros)
    with pytest.raises(DegenerateProfileError):
        efficiency(inst, zeros)


def test_all_pay_revenue_is_sum_of_bids_even_at_zero():
    inst = AuctionInstance.make("all_pay", (2.0, 1.0), "power:0.5")
    assert revenue(inst, (0.0, 0.0)) == 0.0
    assert revenue(inst, (0.25, 0.5)) == pytest.approx(0.75, rel=1e-15)


def test_gradient_at_zero_bid_uses_one_sided_limit_or_raises():
    prop = AuctionInstance.make("all_pay", (2.0, 1.0), "power:1")
    # w'(0) = 1 for the proportional rule, so the gradient exists
    g = utility_gradient(prop, 0, (0.0, 0.5))
    assert math.isfinite(g)
    curved = AuctionInstance.make("all_pay", (2.0, 1.0), "power:0.5")
    with pytest.raises(DomainError):
        utility_gradient(curved, 0, (0.0, 0.5))


def test_foc_residual_domain_checks():
    inst = AuctionInstance.make("all_pay", (2.0, 1.0), "power:0.5")
    with pytest.raises(DomainError):
        foc_residual(inst, 0, (0.0, 0.5))
    with pytest.raises(DegenerateProfileError):
        foc_residual(inst, 0, (0.5, 0.0))


def test_opposing_weight_is_exact_when_one_bidder_carries_almost_all():
    # sigma - w[0] rounds to zero here although the opposing weight is 1e-9
    # (resp. 1e-26); the best-response gap certifies the same profile
    inst = AuctionInstance.make("all_pay", (1e9, 1.0), "power:1")
    bids = (1e9, 1e-9)
    assert foc_residual(inst, 0, bids) == pytest.approx(1e9 - 1e18 / 1e-9, rel=1e-12)
    assert math.isfinite(best_response_gap(inst, bids))
    bids = (1e-9, 1e-26)
    expected = 1e9 * 1e-26 / 1e-18 - 1.0  # v w' s / sigma^2 - 1 = 9
    assert utility_gradient(inst, 0, bids) == pytest.approx(expected, rel=1e-12)
    assert utility_gradients(inst, bids)[0] == pytest.approx(expected, rel=1e-12)


def test_bad_bidder_index_rejected():
    inst = AuctionInstance.make("all_pay", (2.0, 1.0), "power:1")
    with pytest.raises(DomainError):
        utility(inst, 2, (0.1, 0.1))
    with pytest.raises(DomainError):
        utility_gradient(inst, -1, (0.1, 0.1))


def test_json_round_trip():
    inst = AuctionInstance.make("winners_pay", (4.0, 1.0), "power:0.25")
    bids = inst.bid_vector((0.3, 0.2))
    text = mechanism.to_json(inst, bids)
    obj = json.loads(text)
    assert obj["rule"] == "winners_pay"
    assert obj["weight"] == "power:0.25"
    inst2, bids2 = mechanism.from_json(text)
    assert inst2 == inst
    assert bids2.bids == bids.bids


def test_json_round_trip_without_bids():
    inst = AuctionInstance.make("all_pay", (2.0, 1.5, 1.0), "loglog")
    inst2, bids2 = mechanism.from_json(mechanism.to_json(inst))
    assert inst2 == inst
    assert bids2 is None


def test_from_dict_rejects_malformed_objects():
    with pytest.raises(DomainError):
        mechanism.from_dict({"rule": "all_pay"})
    with pytest.raises(DomainError):
        mechanism.from_json("{not json")
    with pytest.raises(DomainError):
        mechanism.from_dict(
            {"rule": "all_pay", "values": [2.0, 1.0], "weight": "power:1", "bids": [3.0, 0.1]}
        )
