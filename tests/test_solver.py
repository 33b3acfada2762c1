"""Solver tests: the best-response oracle, the certificate, and the solvers.

Closed-form anchors come from the two-bidder results exercised in
test_analytic; convergence budgets were sized by running each instance
family at tighter tolerances than asserted here.
"""

import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpauction import lockstep, mechanism
from qpauction.analytic import (
    allpay_two_bidder_power,
    uniform_equilibrium,
    winnerpay_proportional_two_bidder,
)
from qpauction.errors import DegenerateProfileError, DomainError
from qpauction.mechanism import AuctionInstance, BidVector
from qpauction.solver import (
    EquilibriumResult,
    Method,
    SolverConfig,
    _best_response_scalar,
    _Game,
    _gain,
    _gap_scalar,
    _LOCKSTEP_MIN_LANES,
    _polish,
    _WeightTotal,
    aggregate_solve,
    best_response,
    best_response_gap,
    best_response_iteration,
    solve,
)

WP_41_BIDS = (0.9346990467123792, 0.4100542223438479)
WP_41_REVENUE = 0.7747196434913356


def ap_power_eq(alpha, gamma):
    ag = alpha**gamma
    x = gamma * ag / (1.0 + ag) ** 2
    return (alpha * x, x)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.tolerance == 1e-8
    assert cfg.max_iterations == 10_000_000
    assert cfg.method is Method.AGGREGATE
    assert cfg.initial_bids is None


def test_config_accepts_method_string():
    assert SolverConfig(method="best_response_iteration").method is (
        Method.BEST_RESPONSE_ITERATION
    )
    assert SolverConfig(method="aggregate").method is Method.AGGREGATE


def test_config_normalizes_initial_bids():
    cfg = SolverConfig(method="best_response_iteration", initial_bids=[0.5, 0.25])
    assert cfg.initial_bids == (0.5, 0.25)
    assert isinstance(cfg.initial_bids, tuple)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tolerance": math.nan},
        {"max_iterations": "5"},
        {"initial_bids": (math.inf,)},
        {"tolerance": 0.0},
        {"tolerance": -1.0},
        {"tolerance": math.inf},
        {"max_iterations": 0},
        {"max_iterations": -5},
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"method": "giga"},
        {"initial_bids": (0.1, -0.5)},
        {"method": "newton"},
        {"initial_bids": (0.1, math.nan)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        SolverConfig(**kwargs)


def test_method_parse():
    assert Method.parse("aggregate") is Method.AGGREGATE
    assert Method.parse(Method.BEST_RESPONSE_ITERATION) is (
        Method.BEST_RESPONSE_ITERATION
    )
    with pytest.raises(DomainError):
        Method.parse("simplex")


def test_gradient_method_is_gone():
    assert [m.value for m in Method] == ["aggregate", "best_response_iteration"]
    with pytest.raises(DomainError):
        Method.parse("giga")
    with pytest.raises(TypeError):
        SolverConfig(certify_every=1000)
    with pytest.raises(TypeError):
        SolverConfig(bid_floor=1e-9)
    assert "bid_floor" not in SolverConfig().to_dict()
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    for method in Method:
        assert "average_bids" not in solve(inst, SolverConfig(method=method)).to_dict()


# ---------------------------------------------------------------------------
# best response oracle


def test_best_response_winnerpay_linear_matches_closed_form():
    inst = AuctionInstance.make("winners_pay", (1.0, 1.0), "power:1")
    br = best_response(inst, 0, (1.0, 1.0 / 3.0))
    assert br == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_best_response_allpay_equilibrium_cross_responses():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    high = best_response(inst, 0, (1.0, 1.0 / 9.0))
    low = best_response(inst, 1, (4.0 / 9.0, 1.0))
    assert high == pytest.approx(4.0 / 9.0, abs=1e-8)
    assert low == pytest.approx(1.0 / 9.0, abs=1e-8)


def test_best_response_against_towering_opponent_stays_interior():
    inst = AuctionInstance.make("winners_pay", (1e9, 1.0), "power:1")
    br = best_response(inst, 1, (1e9, 0.5))
    assert br == pytest.approx(0.5, rel=1e-4)
    inst = AuctionInstance.make("winners_pay", (1e6, 1.0), "power:0.5")
    br = best_response(inst, 1, (1e6, 0.5))
    assert 0.0 < br < 1.0


def test_best_response_never_exceeds_value():
    inst = AuctionInstance.make("all_pay", (2.0, 1.0), "power:1")
    br = best_response(inst, 1, (0.001, 1.0))
    assert br <= 1.0


def test_best_response_bad_inputs():
    inst = AuctionInstance.make("all_pay", (2.0, 1.0), "power:1")
    with pytest.raises(DomainError):
        best_response(inst, 2, (0.5, 0.5))
    with pytest.raises(DomainError):
        best_response(inst, -1, (0.5, 0.5))
    with pytest.raises(DomainError):
        best_response(inst, 0, (0.5, 0.5), tol=0.0)
    with pytest.raises(DegenerateProfileError):
        best_response(inst, 0, (0.5, 0.0))


def test_best_response_beats_bid_grid():
    rng = random.Random(20260819)
    cases = []
    for rule in ("all_pay", "winners_pay"):
        for weight in ("power:1", "power:0.5", "log1p"):
            cases.append((rule, weight))
    for rule, weight in cases:
        n = rng.randint(2, 4)
        values = sorted((rng.uniform(0.5, 20.0) for _ in range(n)), reverse=True)
        inst = AuctionInstance.make(rule, values, weight)
        bids = [rng.uniform(0.01, v) for v in inst.values.values]
        i = rng.randrange(n)
        br = best_response(inst, i, bids)
        v = inst.values.values[i]
        w = inst.weight
        s = math.fsum(w.value(b) for j, b in enumerate(bids) if j != i)
        grid = np.linspace(0.0, v, 20001)
        wg = w.value(grid)
        if rule == "all_pay":
            util = v * wg / (wg + s) - grid
        else:
            util = (v - grid) * wg / (wg + s)
        wb = w.value(br)
        if rule == "all_pay":
            u_br = v * wb / (wb + s) - br
        else:
            u_br = (v - br) * wb / (wb + s)
        assert u_br >= float(util.max()) - 1e-9 * max(1.0, v)


@pytest.mark.parametrize(
    "values, weight",
    [
        ((10.0**5.5, 1.0), "power:0.5"),
        ((1e6, 1.0), "power:0.5"),
        ((1e6, 1.0), "log1p"),
    ],
)
def test_best_response_finds_the_maximum_on_a_flat_top(values, weight):
    # The high bidder's utility is ~1e6 and flat to within rounding over a
    # stretch wider than golden section's final bracket; the response must
    # still be the root of the first-order condition, which the aggregate
    # solver's bids satisfy.
    inst = AuctionInstance.make("winners_pay", values, weight)
    bids = aggregate_solve(inst).bids.bids
    assert best_response(inst, 0, bids) == pytest.approx(bids[0], rel=1e-12)


@pytest.mark.parametrize(
    "rule, values, weight",
    [
        ("winners_pay", (1e6, 1.0), "log1p"),
        ("winners_pay", (1e6, 1.0), "power:0.5"),
        ("all_pay", (1e9, 1.0), "power:0.5"),
    ],
)
def test_certificate_sees_a_small_relative_bid_error(rule, values, weight):
    inst = AuctionInstance.make(rule, values, weight)
    bids = list(aggregate_solve(inst).bids.bids)
    bids[0] *= 1.0 + 1e-7
    assert best_response_gap(inst, bids) >= 1e-12


# ---------------------------------------------------------------------------
# exact opposing weights


def fsum_others(w, i):
    return math.fsum(w[j] for j in range(len(w)) if j != i)


def outcome(fn):
    """The bits of fn()'s float, or the type of the error it raised."""
    try:
        x = fn()
    except OverflowError:
        return OverflowError
    assert not math.isnan(x)
    return struct.pack("<d", x)


def assert_exclusions_match(total):
    for i in range(len(total.w)):
        expected = outcome(lambda: fsum_others(total.w, i))
        assert outcome(lambda: total.others(i)) == expected, (total.w, i)


FLOAT_MAX = sys.float_info.max
# Every magnitude a weight can take: zero, subnormals, 1e-300 .. 1, and the
# top binades, where totals overflow although each exclusion sum may not.
weights = st.one_of(
    st.floats(min_value=0.0, max_value=FLOAT_MAX),
    st.builds(lambda e, m: math.ldexp(m, e), st.integers(-1074, 1023), st.floats(0.5, 1.0)),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, FLOAT_MAX]),
    st.floats(min_value=0.5 * FLOAT_MAX, max_value=FLOAT_MAX),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(weights, min_size=2, max_size=12))
def test_exclusion_sum_is_fsum_over_the_others(w):
    assert_exclusions_match(_WeightTotal(list(w)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(weights, min_size=2, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), weights), max_size=12),
)
def test_exclusion_sum_stays_exact_under_replacement(w, moves):
    total = _WeightTotal(list(w))
    for i, x in moves:
        i %= len(w)
        total.replace(i, x)
        assert_exclusions_match(total)


@pytest.mark.parametrize(
    "w",
    [
        [1.0, 1e-300],
        [0.0, 0.0],
        [0.0, 5e-324, 5e-324],
        [1e16, 1.0, -0.0, 1.0],
        [FLOAT_MAX, FLOAT_MAX],
        [FLOAT_MAX, FLOAT_MAX, 5e-324],
        [0.75 * FLOAT_MAX, 0.75 * FLOAT_MAX, 0.75 * FLOAT_MAX],
    ],
)
def test_exclusion_sum_edge_cases(w):
    total = _WeightTotal(list(w))
    assert_exclusions_match(total)
    total.replace(0, 2.0)
    assert_exclusions_match(total)


def old_gap(inst, bids, tol=1e-8):
    """The certificate computed directly: one fsum over the others per bidder, O(n^2)."""
    game = _Game(inst)
    w = [game.wf(b) for b in bids]
    gap = 0.0
    for i in range(len(bids)):
        sig_minus = fsum_others(w, i)
        br = _best_response_scalar(game, i, sig_minus, tol)
        gain = _gain(game, i, bids[i], br, sig_minus)
        if gain > gap:
            gap = gain
    return gap


def certificate_cases():
    rng = random.Random(909)
    for n in (2, 3, 50, 400):
        tied = (100.0,) + (1.0,) * (n - 1)
        distinct = tuple(100.0 ** rng.random() for _ in range(n))
        for values in (tied, distinct):
            fracs = {v: rng.uniform(0.05, 0.5) for v in values}
            yield n, values, tuple(fracs[v] * v for v in sorted(values, reverse=True))
        # Tied values with unequal bids, in both orders, so that the largest
        # gain in the tie sits after its first bidder in one of them.
        even = (1.0,) * n
        low = sorted(rng.uniform(0.05, 0.5) for _ in even)
        yield n, even, tuple(low)
        yield n, even, tuple(reversed(low))


@pytest.mark.parametrize("rule", ["all_pay", "winners_pay"])
@pytest.mark.parametrize("weight", ["power:0.5", "power:1", "log1p"])
def test_certificate_is_bit_identical_to_per_bidder_fsum(rule, weight):
    for n, values, bids in certificate_cases():
        inst = AuctionInstance.make(rule, values, weight)
        assert best_response_gap(inst, bids) == old_gap(inst, bids), (n, values[:3])


@pytest.mark.parametrize("weight", ["power:0.5", "power:0.25", "log1p", "loglog"])
def test_public_best_response_is_the_certificate_oracle(weight):
    # numpy's power and log1p differ from the scalar closures in the last
    # bit for some inputs; the public oracle must use the closures.
    rng = random.Random(7)
    for rule in ("all_pay", "winners_pay"):
        inst = AuctionInstance.make(rule, (3.0, 2.0, 1.0), weight)
        game = _Game(inst)
        for _ in range(40):
            bids = [rng.uniform(0.01, v) for v in inst.values.values]
            w = [game.wf(b) for b in bids]
            gains = [0.0]
            for i in range(inst.n):
                sig_minus = fsum_others(w, i)
                br = best_response(inst, i, bids)
                assert br == _best_response_scalar(game, i, sig_minus, 1e-8)
                gains.append(_gain(game, i, bids[i], br, sig_minus))
            assert best_response_gap(inst, bids) == max(gains)


# ---------------------------------------------------------------------------
# lockstep certificate: the scalar loop is the reference, compared with ==

# Every game but winners-pay power:1, whose closed-form responses always take
# the scalar loop.
LANE_WEIGHTS = ("power:1", "power:0.5", "power:0.25", "log1p", "loglog", "power:0.1", "power:0.9")
LOCKSTEP_GAMES = [
    (rule, weight)
    for rule in ("all_pay", "winners_pay")
    for weight in LANE_WEIGHTS
    if (rule, weight) != ("winners_pay", "power:1")
]


def lockstep_profiles(rng, rule, weight):
    """Sorted values and bids with 2 to 300 lanes and value ratios up to 1e9.

    Runs of tied values get unequal bids; some bids are zero and some equal
    the value.  The two top bids stay positive, so every lane faces a
    positive opposing weight.  The last profile jitters an equilibrium of
    one high bidder and many low ones by relative steps of 1e-12 to 3e-6,
    so some responses take steps below 2**-20 of the bid, and the high
    bidder's utility is flat to within rounding near its maximum.
    """
    yield from random_profiles(rng)
    values = (10.0 ** rng.uniform(3.0, 6.0),) + (1.0,) * 139
    bids = aggregate_solve(AuctionInstance.make(rule, values, weight)).bids.bids
    steps = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12.0, -5.5) for _ in bids]
    yield values, [b * (1.0 + step) for b, step in zip(bids, steps)]


def random_profiles(rng):
    for n in (2, 3, 9, 60, 300):
        ratio = 10.0 ** rng.uniform(0.0, 9.0)
        scale = 10.0 ** rng.uniform(-3.0, 0.0)
        values = [scale * ratio ** rng.random() for _ in range(n)]
        if n > 3:
            k = rng.randrange(2, n // 2 + 1)
            start = rng.randrange(0, n - k + 1)
            values[start : start + k] = [values[start]] * k
        values.sort(reverse=True)
        bids = []
        for j, v in enumerate(values):
            r = rng.random()
            if r < 0.05 and j >= 2:
                bids.append(0.0)
            elif r < 0.1:
                bids.append(v)
            elif r < 0.3 and bids and values[j - 1] == v:
                bids.append(bids[-1])  # an equal (value, bid) pair shares its lane
            else:
                bids.append(v * rng.uniform(0.01, 0.6))
        yield values, bids


@pytest.mark.parametrize("rule, weight", LOCKSTEP_GAMES)
def test_lockstep_certificate_is_bit_identical_to_the_scalar_loop(rule, weight):
    rng = random.Random(f"{rule}/{weight}")
    for values, bids in lockstep_profiles(rng, rule, weight):
        tol = rng.choice((1e-8, 1e-11))
        game = _Game(AuctionInstance.make(rule, values, weight))
        lanes = lockstep.lane_starts(values, bids).tolist()
        total = _WeightTotal([game.wf(b) for b in bids])
        sig_minus = [total.others(i) for i in lanes]
        # the scalar loop, keeping its responses: the gain is flat in the
        # response at its maximum, so a response off by an ulp seldom moves
        # the gap, and the responses are compared as well
        responses = [_best_response_scalar(game, i, s, tol) for i, s in zip(lanes, sig_minus)]
        gap = 0.0
        for i, s, br in zip(lanes, sig_minus, responses):
            gap = max(gap, _gain(game, i, bids[i], br, s))
        lane_responses = lockstep.best_responses(
            game, np.array([values[i] for i in lanes]), np.array(sig_minus), tol
        )
        assert lane_responses.tolist() == responses, (len(values), values[0], tol)
        assert lockstep.gap(game, bids, tol) == gap


def bench_crowd_cases(seed):
    """The benchmark's crowd certificates, rebuilt: n in (50, 400, 1600), a
    tied profile (100 and n-1 ones) and a log-uniform one in [1, 100], three
    games, bids a seeded fraction in [0.05, 0.5] of each value."""
    rng = np.random.default_rng(seed)
    games = (("all_pay", "power:0.5"), ("winners_pay", "power:0.5"), ("winners_pay", "power:1"))
    for n in (50, 400, 1600):
        tied = (100.0,) + (1.0,) * (n - 1)
        distinct = tuple(float(x) for x in 100.0 ** rng.random(n))
        for values in (tied, distinct):
            levels = sorted(set(values))
            frac = dict(zip(levels, rng.uniform(0.05, 0.5, len(levels))))
            bids = [frac[v] * v for v in values]
            for rule, weight in games:
                yield AuctionInstance.make(rule, values, weight), bids


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_lockstep_certificate_matches_on_the_benchmark_crowds(seed):
    for inst, bids in bench_crowd_cases(seed):
        game = _Game(inst)
        expected = _gap_scalar(game, bids, 1e-8)
        if game.linear_wp:
            assert best_response_gap(inst, bids) == expected
        else:
            assert lockstep.gap(game, bids, 1e-8) == expected, (inst.n, inst.rule)


def error_type(fn):
    try:
        fn()
    except Exception as exc:  # the type is the result under test
        return type(exc)
    return None


# the games whose certificate the sigma**2 underflow reaches near 1e-200
UNDERFLOW_WEIGHTS = ("power:1", "power:0.9", "log1p", "loglog")
UNDERFLOW_GAMES = [game for game in LOCKSTEP_GAMES if game[1] in UNDERFLOW_WEIGHTS]


@pytest.mark.parametrize("rule, weight", UNDERFLOW_GAMES)
def test_lockstep_raises_what_the_scalar_loop_raises(rule, weight):
    # sigma * sigma underflows to zero near 1e-200, where the scalar loop
    # divides by it and raises; numpy only flags it, so the certificate
    # falls back to the scalar loop, which raises its first error in lane order
    rng = random.Random(3)
    n = _LOCKSTEP_MIN_LANES + 7
    values = [1e-200 * (1.0 + 9.0 * rng.random()) for _ in range(n)]
    inst = AuctionInstance.make(rule, values, weight)
    bids = [v * rng.uniform(0.05, 0.5) for v in inst.values.values]
    game = _Game(inst)
    expected = error_type(lambda: _gap_scalar(game, bids, 1e-8))
    assert expected is ZeroDivisionError
    assert error_type(lambda: lockstep.gap(game, bids, 1e-8)) is FloatingPointError
    assert error_type(lambda: best_response_gap(inst, bids)) is expected


def capped(grad, calls=300):
    """``grad``, raising once called more than ``calls`` times, so that a
    widening loop that never ends fails instead of hanging."""
    count = 0

    def wrapper(*args):
        nonlocal count
        count += 1
        if count > calls:
            raise RuntimeError(f"gradient called more than {calls} times")
        return grad(*args)

    return wrapper


# (r, top) per lane: the gradient r - b has its root r below 0, above top,
# or inside [0, top]
POLISH_LANES = [(-1.0, 1.0), (2.0, 1.0), (0.7, 1.0), (0.05, 1.0), (6.5, 5.0), (-0.5, 5.0)]


def test_polish_widens_to_zero_when_the_gradient_is_negative_everywhere():
    # from [0.3, 0.45] the bracket steps left by 0.15, then by 0.3, past 0
    b = _polish(capped(lambda x: -1.0 - x), 0.3, 0.45, 1.0)
    assert b == 0.0 and math.copysign(1.0, b) == 1.0


def test_polish_widens_to_top_when_the_gradient_is_positive_everywhere():
    # from [0.3, 0.45] the bracket steps right by 0.15, 0.3 and 0.6, past 1
    assert _polish(capped(lambda x: 2.0 - x), 0.3, 0.45, 1.0) == 1.0
    assert _polish(capped(lambda x: 4.0 - x), 0.3, 0.45, 2.5) == 2.5


def test_lockstep_polish_lanes_equal_the_scalar_polish():
    roots = np.array([root for root, _ in POLISH_LANES])
    top = np.array([t for _, t in POLISH_LANES])
    lo, hi = np.full(roots.size, 0.3), np.full(roots.size, 0.45)
    lanes = lockstep._polish(capped(lambda x, r: r - x), lo, hi, top, roots)
    expected = [
        _polish(capped(lambda x, r=root: r - x), 0.3, 0.45, t) for root, t in POLISH_LANES
    ]
    assert lanes.tolist() == expected
    assert expected[0] == expected[-1] == 0.0
    assert expected[1] == 1.0 and expected[4] == 5.0
    assert expected[2] == pytest.approx(0.7) and expected[3] == pytest.approx(0.05)


def test_lockstep_falls_back_on_a_zero_opposing_weight():
    n = _LOCKSTEP_MIN_LANES + 1
    inst = AuctionInstance.make("all_pay", [float(n - j) for j in range(n)], "power:0.5")
    bids = [1.0] + [0.0] * (n - 1)
    with pytest.raises(DegenerateProfileError):
        lockstep.gap(_Game(inst), bids, 1e-8)
    with pytest.raises(DegenerateProfileError):
        best_response_gap(inst, bids)


# ---------------------------------------------------------------------------
# certificate


def test_gap_vanishes_at_closed_form_equilibria():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    assert best_response_gap(inst, (4.0 / 9.0, 1.0 / 9.0)) <= 1e-10
    inst = AuctionInstance.make("winners_pay", (1.0, 1.0), "power:1")
    assert best_response_gap(inst, (1.0 / 3.0, 1.0 / 3.0)) <= 1e-10


def test_gap_positive_away_from_equilibrium():
    inst = AuctionInstance.make("all_pay", (1.0, 1.0), "power:1")
    assert best_response_gap(inst, (1.0, 1.0)) > 0.01


def test_gap_is_worst_unilateral_gain():
    from qpauction.mechanism import utility

    inst = AuctionInstance.make("winners_pay", (4.0, 1.0), "power:1")
    bids = (0.7, 0.3)
    gains = []
    for i in range(2):
        br = best_response(inst, i, bids)
        moved = list(bids)
        moved[i] = br
        u_old = utility(inst, i, bids)
        u_new = utility(inst, i, tuple(moved))
        gains.append(max(u_new - u_old, 0.0))
    assert best_response_gap(inst, bids) == pytest.approx(max(gains), rel=1e-9)


def test_gap_rejects_degenerate_profiles():
    inst = AuctionInstance.make("all_pay", (2.0, 1.0), "power:1")
    with pytest.raises(DegenerateProfileError):
        best_response_gap(inst, (0.0, 0.0))


def test_gap_accepts_bid_vector():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    gap = best_response_gap(inst, BidVector((4.0 / 9.0, 1.0 / 9.0)))
    assert gap <= 1e-10


def test_certificate_refinement_never_inflates():
    # recomputing the gap with a 10x finer oracle must not grow it by >10%
    inst = AuctionInstance.make("all_pay", (8.0, 1.0), "power:0.5")
    for bids in [(0.5, 0.2), (0.9, 0.05), ap_power_eq(8.0, 0.5)]:
        coarse = best_response_gap(inst, bids, tol=1e-8)
        fine = best_response_gap(inst, bids, tol=1e-9)
        assert fine <= 1.1 * coarse + 1e-12


# ---------------------------------------------------------------------------
# best-response iteration


def test_bri_matches_winnerpay_fixed_point_quickly():
    inst = AuctionInstance.make("winners_pay", (4.0, 1.0), "power:1")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-12, max_iterations=100)
    )
    assert res.converged
    assert res.iterations < 50
    assert res.method is Method.BEST_RESPONSE_ITERATION
    assert res.bids.bids == pytest.approx(WP_41_BIDS, abs=1e-6)


def test_bri_symmetric_allpay_linear():
    inst = AuctionInstance.make("all_pay", (1.0, 1.0), "power:1")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-12, max_iterations=100)
    )
    assert res.converged
    assert res.bids.bids == pytest.approx((0.25, 0.25), abs=1e-9)


def test_bri_extreme_ratio_winnerpay():
    # for w = sqrt(x) the low bid climbs toward 1/3 (the argmax of
    # sqrt(b)(1-b), its limiting objective) from below
    inst = AuctionInstance.make("winners_pay", (1e6, 1.0), "power:0.5")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-8, max_iterations=3000)
    )
    assert res.converged
    assert res.epsilon <= 1e-6
    assert 0.25 <= res.bids.bids[1] <= 1.0 / 3.0 + 1e-6


def test_bri_single_sweep_from_equilibrium():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    res = best_response_iteration(
        inst,
        SolverConfig(
            method="best_response_iteration",
            tolerance=1e-10,
            max_iterations=100,
            initial_bids=ap_power_eq(4.0, 0.5),
        ),
    )
    assert res.converged
    assert res.iterations == 1


def test_bri_damps_crowded_allpay_oscillation():
    # undamped sweeps cycle here: every low bidder drops out when the
    # leader towers, then all pile back in once the leader relaxes
    values = (100.0,) + (1.0,) * 24
    inst = AuctionInstance.make("all_pay", values, "power:1")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-10, max_iterations=2000)
    )
    assert res.converged


def test_bri_damps_lopsided_allpay_oscillation():
    # two-bidder all-pay overshoots at large value ratios: the response
    # slope grows like the square root of the ratio
    inst = AuctionInstance.make("all_pay", (64.0, 1.0), "power:1")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-13, max_iterations=2000)
    )
    assert res.converged
    assert res.bids.bids == pytest.approx(ap_power_eq(64.0, 1.0), abs=1e-6)


def test_bri_handles_log_weight_at_large_ratio():
    inst = AuctionInstance.make("all_pay", (1e4, 1.0), "power:1")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-10, max_iterations=4000)
    )
    assert res.converged
    inst = AuctionInstance.make("all_pay", (1e4, 1.0), "log1p")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-10, max_iterations=4000)
    )
    assert res.converged


def test_bri_tracks_corner_equilibrium_below_floor():
    # the third bidder is outbid so heavily (sigma of the others exceeds
    # their value) that their only equilibrium bid is zero; a bid pinned at
    # the floor would keep a certified gap near floor * (1 - v/sigma)
    inst = AuctionInstance.make("all_pay", (100.0, 3.0, 1.0), "power:1")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-12, max_iterations=2000)
    )
    assert res.converged
    assert res.bids.bids[2] < 1e-9
    assert res.bids.bids[0] == pytest.approx(2.8277877, abs=1e-4)
    assert res.bids.bids[1] == pytest.approx(0.0848336, abs=1e-5)


def test_bri_exhaustion_reports_not_converged():
    inst = AuctionInstance.make("all_pay", (64.0, 1.0), "power:1")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-13, max_iterations=3)
    )
    assert not res.converged
    assert res.iterations == 3


# ---------------------------------------------------------------------------
# aggregate


def decades(lo, hi, per_decade=2):
    k = round(lo * per_decade)
    while k <= round(hi * per_decade):
        yield 10.0 ** (k / per_decade)
        k += 1


@pytest.mark.parametrize(
    "gamma, max_exp", [(0.25, 12), (0.5, 12), (1.0, 10)]
)
def test_aggregate_matches_allpay_closed_form(gamma, max_exp):
    # beyond 1e10 the sigma parametrization loses the power:1 low bid
    # (about 1/alpha) to cancellation; the certificate then reports it
    for alpha in decades(0, max_exp):
        inst = AuctionInstance.make("all_pay", (alpha, 1.0), f"power:{gamma:g}")
        res = aggregate_solve(inst)
        eq = allpay_two_bidder_power(alpha, gamma)
        assert res.converged, alpha
        assert res.bids.bids == pytest.approx((eq.high_bid, eq.low_bid), rel=1e-6)
        assert res.revenue == pytest.approx(eq.revenue, rel=1e-6)


def test_aggregate_matches_winnerpay_proportional_closed_form():
    for alpha in decades(0, 12):
        inst = AuctionInstance.make("winners_pay", (alpha, 1.0), "power:1")
        res = aggregate_solve(inst)
        eq = winnerpay_proportional_two_bidder(alpha)
        assert res.converged, alpha
        assert res.bids.bids == pytest.approx((eq.high_bid, eq.low_bid), rel=1e-6)


@pytest.mark.parametrize("rule", ["all_pay", "winners_pay"])
@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_aggregate_matches_uniform_equilibria(rule, n):
    for gamma in (0.25, 0.5, 1.0):
        for value in (1.0, 10.0):
            eq = uniform_equilibrium(n, value, gamma, rule)
            inst = AuctionInstance.make(rule, (value,) * n, f"power:{gamma:g}")
            res = aggregate_solve(inst, SolverConfig(tolerance=1e-14))
            assert res.converged
            for b in res.bids.bids:
                assert b == pytest.approx(eq.bid, rel=1e-9)
            assert res.revenue == pytest.approx(eq.revenue, rel=1e-9)


def test_aggregate_outbid_allpay_bidder_bids_exactly_zero():
    # the opponents' total weight exceeds the third bidder's value, so
    # their only equilibrium bid is the corner; no floor keeps it off zero
    inst = AuctionInstance.make("all_pay", (100.0, 3.0, 1.0), "power:1")
    res = aggregate_solve(inst, SolverConfig(tolerance=1e-12))
    assert res.converged
    assert res.bids.bids[2] == 0.0
    assert res.bids.bids[0] == pytest.approx(2.8277877, abs=1e-6)
    assert res.bids.bids[1] == pytest.approx(0.0848336, abs=1e-6)


def test_aggregate_result_is_consistent_with_mechanism():
    inst = AuctionInstance.make("winners_pay", (4.0, 2.0, 1.0), "log1p")
    res = aggregate_solve(inst)
    assert res.method is Method.AGGREGATE
    assert res.epsilon == best_response_gap(inst, res.bids)
    assert res.revenue == mechanism.revenue(inst, res.bids)
    assert res.efficiency == mechanism.efficiency(inst, res.bids)
    assert 1 <= res.iterations <= 200


@pytest.mark.parametrize(
    "values, weight",
    [((2.0, 1.0), "power:0.25"), ((9.0, 1.0), "log1p"), ((10.0, 1.0), "loglog")],
)
def test_result_revenue_uses_the_certificate_weights(values, weight):
    # At these equilibria numpy's WeightSpec.value and the scalar closures
    # the certificate uses differ in the last bit of some weight.
    inst = AuctionInstance.make("winners_pay", values, weight)
    res = solve(inst)
    bids = res.bids.bids
    wf, _ = inst.weight.scalar_functions()
    w = [wf(b) for b in bids]
    sigma = math.fsum(w)
    assert res.revenue == math.fsum(b * x for b, x in zip(bids, w)) / sigma
    assert res.efficiency == math.fsum(v * x for v, x in zip(values, w)) / sigma


def test_aggregate_is_deterministic():
    inst = AuctionInstance.make("all_pay", (7.0, 3.0, 3.0, 1.0), "power:0.25")
    assert aggregate_solve(inst).to_dict() == aggregate_solve(inst).to_dict()


def test_aggregate_iteration_cap_returns_certified_point():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    res = aggregate_solve(inst, SolverConfig(max_iterations=1))
    assert res.iterations == 1
    assert not res.converged
    assert res.epsilon == best_response_gap(inst, res.bids)
    assert res.epsilon > 1e-8
    res = aggregate_solve(inst, SolverConfig(max_iterations=3))
    assert res.iterations == 3


def test_aggregate_needs_no_floor_at_tiny_values():
    # power-weight games are scale-free, so values far below any bid floor
    # the iterative methods use still solve
    inst = AuctionInstance.make("winners_pay", (1e-12, 1e-12), "power:0.5")
    res = aggregate_solve(inst, SolverConfig(tolerance=1e-24))
    assert res.converged
    assert res.bids.bids == pytest.approx((2e-13, 2e-13), rel=1e-9)


def test_aggregate_rejects_initial_bids():
    with pytest.raises(DomainError, match="initial_bids"):
        SolverConfig(initial_bids=(0.5, 0.5))
    with pytest.raises(DomainError, match="initial_bids"):
        SolverConfig(method="aggregate", initial_bids=(0.5, 0.5))
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:1")
    with pytest.raises(DomainError, match="initial_bids"):
        aggregate_solve(
            inst,
            SolverConfig(method="best_response_iteration", initial_bids=(0.5, 0.5)),
        )


WEIGHT_TAGS = ("power:1", "power:0.5", "power:0.25", "log1p", "loglog")


@st.composite
def games(draw, max_ratio=1e9, weights=WEIGHT_TAGS):
    """(rule, values, weight) with value ratios up to max_ratio and some ties."""
    n = draw(st.integers(2, 7))
    top = draw(st.floats(-3.0, 3.0))
    span = math.log10(max_ratio)
    logs = draw(st.lists(st.floats(top - span, top), min_size=n, max_size=n))
    values = [10.0 ** x for x in logs]
    ties = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        values = [values[k] for k in ties]
    return draw(st.sampled_from(["all_pay", "winners_pay"])), values, draw(
        st.sampled_from(weights)
    )


@settings(max_examples=150, deadline=None)
@given(games())
def test_aggregate_certifies_and_orders_bids(game):
    rule, values, weight = game
    inst = AuctionInstance.make(rule, values, weight)
    res = aggregate_solve(inst)
    assert res.converged
    assert best_response_gap(inst, res.bids) <= SolverConfig().tolerance
    bids, vals = res.bids.bids, inst.values.values
    for k in range(inst.n - 1):
        assert bids[k] >= bids[k + 1]
        if vals[k] == vals[k + 1]:
            assert bids[k] == bids[k + 1]


@settings(max_examples=60, deadline=None)
@given(games(), st.randoms(use_true_random=False))
def test_aggregate_is_permutation_covariant(game, rnd):
    rule, values, weight = game
    shuffled = list(values)
    rnd.shuffle(shuffled)
    base = aggregate_solve(AuctionInstance.make(rule, values, weight))
    inst = AuctionInstance.make(rule, shuffled, weight)
    res = aggregate_solve(inst)
    assert res.to_dict() == base.to_dict()
    # mapped back through original_indices, each caller's bid follows their value
    by_caller = [0.0] * inst.n
    for k, j in enumerate(inst.values.original_indices):
        by_caller[j] = res.bids.bids[k]
    by_value = dict(zip(inst.values.values, res.bids.bids))
    assert by_caller == [by_value[v] for v in shuffled]


@settings(max_examples=60, deadline=None)
@given(
    games(max_ratio=1e4, weights=("power:1", "power:0.5", "power:0.25")),
    st.floats(-6.0, 6.0),
)
def test_aggregate_is_scale_covariant_for_power_weights(game, log_c):
    rule, values, weight = game
    c = 10.0**log_c
    base = aggregate_solve(AuctionInstance.make(rule, values, weight))
    scaled_values = [c * v for v in values]
    scaled = aggregate_solve(AuctionInstance.make(rule, scaled_values, weight))
    assert scaled.converged
    top = c * max(base.bids.bids)
    for b, sb in zip(base.bids.bids, scaled.bids.bids):
        assert sb == pytest.approx(c * b, rel=1e-7, abs=1e-13 * top)


def test_aggregate_agrees_with_best_response_iteration():
    rng = random.Random(4242)
    for _ in range(24):
        n = rng.randint(2, 4)
        values = [100.0 ** rng.random() for _ in range(n)]
        rule = rng.choice(("all_pay", "winners_pay"))
        weight = rng.choice(WEIGHT_TAGS)
        inst = AuctionInstance.make(rule, values, weight)
        agg = aggregate_solve(inst, SolverConfig(tolerance=1e-12))
        bri = best_response_iteration(
            inst, SolverConfig(tolerance=1e-12, max_iterations=20_000)
        )
        assert agg.converged and bri.converged
        assert agg.bids.bids == pytest.approx(bri.bids.bids, abs=1e-5)


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_solvers_agree_on_equilibrium():
    cases = [
        ("all_pay", "power:0.5"),
        ("winners_pay", "power:1"),
        ("all_pay", "log1p"),
    ]
    for rule, weight in cases:
        inst = AuctionInstance.make(rule, (8.0, 1.0), weight)
        agg = aggregate_solve(inst, SolverConfig(tolerance=1e-11))
        bri = best_response_iteration(
            inst, SolverConfig(tolerance=1e-11, max_iterations=4000)
        )
        assert agg.converged and bri.converged
        for a, b in zip(agg.bids.bids, bri.bids.bids):
            assert a == pytest.approx(b, abs=1e-4)


def test_equilibrium_unique_across_starts():
    rng = random.Random(7)
    cases = [
        ("all_pay", (4.0, 1.0), "power:0.5"),
        ("winners_pay", (4.0, 1.0), "power:1"),
        ("all_pay", (2.0, 1.5, 1.0), "power:1"),
        ("winners_pay", (100.0, 1.0, 1.0), "power:0.5"),
    ]
    for rule, values, weight in cases:
        inst = AuctionInstance.make(rule, values, weight)
        solutions = []
        for _ in range(5):
            start = tuple(rng.uniform(1e-3, v) for v in inst.values.values)
            res = best_response_iteration(
                inst,
                SolverConfig(
                    method="best_response_iteration",
                    tolerance=1e-12,
                    max_iterations=4000,
                    initial_bids=start,
                ),
            )
            assert res.converged
            solutions.append(res.bids.bids)
        first = solutions[0]
        for other in solutions[1:]:
            for a, b in zip(first, other):
                assert a == pytest.approx(b, abs=1e-5)


def test_higher_values_bid_at_least_as_much():
    rng = random.Random(13)
    for _ in range(6):
        n = rng.randint(3, 5)
        values = sorted((rng.uniform(0.5, 10.0) for _ in range(n)), reverse=True)
        rule = rng.choice(("all_pay", "winners_pay"))
        weight = rng.choice(("power:1", "power:0.5", "log1p"))
        inst = AuctionInstance.make(rule, values, weight)
        res = best_response_iteration(
            inst, SolverConfig(tolerance=1e-10, max_iterations=4000)
        )
        assert res.converged
        bids = res.bids.bids
        for high, low in zip(bids, bids[1:]):
            assert high >= low - 1e-8


def test_solve_dispatches_on_method():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    res = solve(inst, SolverConfig(tolerance=1e-10, method="best_response_iteration"))
    assert res.method is Method.BEST_RESPONSE_ITERATION
    res = solve(inst, SolverConfig(tolerance=1e-10, method="aggregate"))
    assert res.method is Method.AGGREGATE


def test_solve_default_config_converges():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    res = solve(inst)
    assert res.method is Method.AGGREGATE
    assert res.converged
    assert res.epsilon <= 1e-8


# ---------------------------------------------------------------------------
# setup errors and result plumbing


def test_floor_above_smallest_value_rejected():
    # best-response iteration clamps full steps at a fixed floor of 1e-9
    inst = AuctionInstance.make("all_pay", (4.0, 1e-9), "power:1")
    with pytest.raises(DomainError, match="floor"):
        best_response_iteration(inst)


def test_initial_bids_length_checked():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:1")
    with pytest.raises(DomainError):
        best_response_iteration(
            inst,
            SolverConfig(
                method="best_response_iteration", initial_bids=(0.1, 0.1, 0.1)
            ),
        )


def test_initial_bids_clamped_into_box():
    inst = AuctionInstance.make("all_pay", (4.0, 1.0), "power:0.5")
    res = best_response_iteration(
        inst,
        SolverConfig(
            method="best_response_iteration",
            tolerance=1e-10,
            max_iterations=200,
            initial_bids=(100.0, 0.0),
        ),
    )
    assert res.converged


def test_result_to_dict_round_trip():
    inst = AuctionInstance.make("winners_pay", (4.0, 1.0), "power:1")
    res = best_response_iteration(
        inst, SolverConfig(tolerance=1e-10, max_iterations=100)
    )
    d = res.to_dict()
    assert d["method"] == "best_response_iteration"
    assert d["converged"] is True
    assert d["bids"] == list(res.bids.bids)
    assert d["epsilon"] == res.epsilon
    assert d["revenue"] == res.revenue
    assert isinstance(res, EquilibriumResult)
