"""Sweep grid, runner, and CSV round-trip tests."""

import json
import math
from pathlib import Path

import pytest

from qpauction import mechanism
from qpauction.analytic import allpay_two_bidder_power, winnerpay_proportional_two_bidder
from qpauction.errors import DomainError
from qpauction.harness import (
    CSV_HEADER,
    SweepRow,
    SweepSpec,
    format_csv,
    read_csv,
    run_sweep,
    write_csv,
)
from qpauction.mechanism import AuctionInstance, BidVector, PaymentRule
from qpauction.solver import SolverConfig
from qpauction.weights import WeightSpec


def small_spec(**overrides):
    base = dict(
        rule="winners_pay",
        weights=("power:1", "power:0.5"),
        alpha_start=1.0,
        alpha_stop=100.0,
        alpha_points=3,
        ns=(2,),
    )
    base.update(overrides)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# spec construction


def test_spec_parses_tags():
    spec = small_spec()
    assert spec.rule is PaymentRule.WINNERS_PAY
    assert spec.weights == (WeightSpec.power(1.0), WeightSpec.power(0.5))


def test_spec_alpha_grid_is_geometric():
    spec = small_spec()
    assert spec.alphas == pytest.approx((1.0, 10.0, 100.0))


def test_spec_single_point_grid():
    spec = small_spec(alpha_stop=1.0, alpha_points=1)
    assert spec.alphas == (1.0,)


def test_default_alpha_points_runs_25_per_decade():
    assert SweepSpec.default_alpha_points(1.0, 10.0) == 26
    assert SweepSpec.default_alpha_points(1.0, 1e4) == 101
    assert SweepSpec.default_alpha_points(5.0, 5.0) == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"weights": ()},
        {"ns": ()},
        {"alpha_start": 0.5},
        {"alpha_start": math.nan},
        {"alpha_stop": 0.5},
        {"alpha_points": 0},
        {"alpha_points": 2.5},
        {"alpha_points": 1},  # stop != start
        {"ns": (1,)},
        {"ns": (2, True)},
        {"low_value": 0.0},
        {"low_value": -1.0},
        {"rule": "second_price"},
        {"weights": ("power:2",)},
    ],
)
def test_spec_rejects_bad_grids(overrides):
    with pytest.raises(DomainError):
        small_spec(**overrides)


def test_spec_point_order_is_alpha_major():
    spec = small_spec(ns=(2, 3))
    pts = list(spec.points())
    assert [(a, n, w.tag) for a, n, w in pts[:4]] == [
        (1.0, 2, "power:1"),
        (1.0, 2, "power:0.5"),
        (1.0, 3, "power:1"),
        (1.0, 3, "power:0.5"),
    ]
    assert pts[4][0] == 10.0


def test_spec_values_put_alpha_first():
    spec = small_spec(low_value=0.5)
    assert spec.values_for(7.0, 3) == (7.0, 0.5, 0.5)


def test_spec_json_round_trip():
    spec = small_spec(
        ns=(2, 5),
        low_value=2.0,
        solver=SolverConfig(tolerance=1e-6, method="best_response_iteration"),
    )
    blob = json.dumps(spec.to_dict())
    again = SweepSpec.from_dict(json.loads(blob))
    assert again == spec


def test_spec_from_dict_rejects_unknown_keys():
    data = small_spec().to_dict()
    data["alpha_gird"] = 3
    with pytest.raises(DomainError):
        SweepSpec.from_dict(data)


def test_spec_from_dict_requires_grid_keys():
    data = small_spec().to_dict()
    del data["alpha_points"]
    with pytest.raises(DomainError):
        SweepSpec.from_dict(data)


# ---------------------------------------------------------------------------
# runner


def test_sweep_rows_follow_grid_order_and_certify():
    spec = small_spec()
    rows = run_sweep(spec)
    assert len(rows) == 6
    expected = [(a, n, w.tag) for a, n, w in spec.points()]
    assert [(r.alpha, r.n, r.weight) for r in rows] == expected
    for row in rows:
        assert row.converged
        assert row.epsilon <= 1e-8
        assert row.rule is PaymentRule.WINNERS_PAY
        assert len(row.bids) == row.n


def test_sweep_row_quantities_recompute_from_bids():
    rows = run_sweep(small_spec())
    for row in rows:
        inst = AuctionInstance.make(row.rule, (row.alpha,) + (1.0,) * (row.n - 1), row.weight)
        bids = BidVector(row.bids)
        assert row.revenue == pytest.approx(mechanism.revenue(inst, bids), abs=1e-10)
        assert row.efficiency == pytest.approx(
            mechanism.efficiency(inst, bids), abs=1e-10
        )


def test_sweep_solver_override_is_honored():
    spec = small_spec(
        weights=("power:1",),
        solver=SolverConfig(
            method="best_response_iteration", tolerance=1e-4, max_iterations=2
        ),
    )
    rows = run_sweep(spec)
    assert all(row.iterations <= 2 for row in rows)


def test_sweep_keeps_unconverged_rows():
    spec = small_spec(
        rule="all_pay",
        weights=("power:1",),
        alpha_start=64.0,
        alpha_stop=64.0,
        alpha_points=1,
        solver=SolverConfig(
            method="best_response_iteration", tolerance=1e-13, max_iterations=3
        ),
    )
    rows = run_sweep(spec)
    assert len(rows) == 1
    assert not rows[0].converged
    assert rows[0].epsilon > 1e-13


@pytest.mark.parametrize("alpha", [1e8, 1e10])
def test_default_sweep_certifies_only_the_true_equilibrium_at_large_ratios(alpha):
    # Best-response iteration with its fixed bid floor certifies 3.16x the
    # closed-form revenue at alpha = 1e10; the default solver has no floor.
    spec = small_spec(
        rule="all_pay",
        weights=("power:1",),
        alpha_start=alpha,
        alpha_stop=alpha,
        alpha_points=1,
    )
    (row,) = run_sweep(spec)
    assert row.converged
    assert row.revenue == pytest.approx(allpay_two_bidder_power(alpha, 1.0).revenue, rel=1e-6)


def test_sweep_rejects_bad_worker_count():
    with pytest.raises(DomainError):
        run_sweep(small_spec(), workers=0)
    # one worker is all there is: the process pool was removed
    with pytest.raises(DomainError, match="removed"):
        run_sweep(small_spec(), workers=2)
    assert run_sweep(small_spec(), workers=1) == run_sweep(small_spec())


def test_winnerpay_revenue_ordering_flips_by_curvature_at_large_alpha():
    # the flatter the weight, the higher the revenue once alpha is large
    spec = small_spec(
        weights=("power:1", "power:0.5", "power:0.25"),
        alpha_start=1e4,
        alpha_stop=1e4,
        alpha_points=1,
    )
    revs = {row.weight: row.revenue for row in run_sweep(spec)}
    assert revs["power:0.25"] > revs["power:0.5"] > revs["power:1"]


def test_winnerpay_revenue_grows_with_crowd():
    spec = small_spec(
        weights=("power:1",),
        alpha_start=100.0,
        alpha_stop=100.0,
        alpha_points=1,
        ns=(2, 3, 4, 5),
    )
    revs = [row.revenue for row in run_sweep(spec)]
    assert all(b > a for a, b in zip(revs, revs[1:]))


# ---------------------------------------------------------------------------
# CSV


def test_csv_header_and_shape():
    rows = run_sweep(small_spec(weights=("power:1",)))
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    assert text.endswith("\n")


def test_csv_is_byte_identical_across_runs(tmp_path):
    spec = small_spec()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(run_sweep(spec), a)
    write_csv(run_sweep(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip(tmp_path):
    rows = run_sweep(small_spec())
    path = write_csv(rows, tmp_path / "sweep.csv")
    again = read_csv(path)
    assert len(again) == len(rows)
    for ours, theirs in zip(rows, again):
        assert theirs.rule is ours.rule
        assert theirs.weight == ours.weight
        assert theirs.n == ours.n
        assert theirs.converged == ours.converged
        assert theirs.alpha == pytest.approx(ours.alpha, rel=1e-11)
        assert theirs.revenue == pytest.approx(ours.revenue, rel=1e-11)
        assert theirs.bids == pytest.approx(ours.bids, rel=1e-11)


@pytest.mark.parametrize("rule", ["all_pay", "winners_pay"])
def test_pinned_sweep_files_match_the_closed_forms(rule):
    rows = read_csv(Path(__file__).parent / "data" / f"sweep_{rule}.csv")
    checked = 0
    for row in rows:
        assert row.converged
        if rule == "all_pay" and row.weight.startswith("power:"):
            eq = allpay_two_bidder_power(row.alpha, WeightSpec.parse(row.weight).gamma)
        elif rule == "winners_pay" and row.weight == "power:1":
            eq = winnerpay_proportional_two_bidder(row.alpha)
        else:
            continue
        assert row.bids == pytest.approx((eq.high_bid, eq.low_bid), rel=1e-10)
        assert row.revenue == pytest.approx(eq.revenue, rel=1e-10)
        checked += 1
    assert checked == (18 if rule == "all_pay" else 6)


def test_csv_floats_use_twelve_significant_digits():
    row = SweepRow(
        alpha=1.2345678901234567,
        n=2,
        rule=PaymentRule.ALL_PAY,
        weight="power:1",
        revenue=1.0 / 3.0,
        efficiency=2.0 / 3.0,
        epsilon=1.25e-9,
        iterations=7,
        converged=True,
        bids=(0.1, 0.2),
    )
    line = row.csv_line()
    assert line.split(",")[4] == "0.333333333333"
    assert line.split(",")[0] == "1.23456789012"
    assert line.split(",")[9] == "0.1;0.2"


def test_read_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2,3\n")
    with pytest.raises(DomainError):
        read_csv(bad)
    bad.write_text(CSV_HEADER + "\n1,2,all_pay,power:1,0,0,0,1,maybe,0.1;0.1\n")
    with pytest.raises(DomainError):
        read_csv(bad)
    bad.write_text(CSV_HEADER + "\n1,2,all_pay\n")
    with pytest.raises(DomainError):
        read_csv(bad)
