"""Tests of the benchmark itself: seeded inputs, reported metrics, output checks.

    PYTHONPATH=src python -m pytest bench
"""

import dataclasses
import json

import pytest

import run

assert run.use_source_tree()

import qpauction as qp  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert workloads.solve_mix_instances(7) == workloads.solve_mix_instances(7)
    assert workloads.solve_mix_instances(7) != workloads.solve_mix_instances(8)
    assert workloads.crowd_cases(7) == workloads.crowd_cases(7)
    assert workloads.crowd_cases(7) != workloads.crowd_cases(8)


def test_solve_mix_covers_every_cell_and_stays_in_range():
    stream = workloads.solve_mix_instances(3)
    cells = {(len(values), rule, weight) for rule, values, weight in stream}
    assert cells == set(workloads.MIX_CELLS)
    assert len(stream) == len(workloads.MIX_CELLS) * workloads.MIX_POINTS_PER_CELL
    for _, values, _ in stream:
        assert all(1.0 <= v <= workloads.MIX_MAX_RATIO for v in values)


def test_crowd_bids_are_interior_and_equal_for_equal_values():
    for rule, values, weight, bids in workloads.crowd_cases(5):
        assert all(0.0 < b < v for b, v in zip(bids, values))
        by_value = {}
        for b, v in zip(bids, values):
            assert by_value.setdefault(v, b) == b


@pytest.fixture
def shortened(monkeypatch, tmp_path):
    """Cut every workload down to a few operations."""

    def small_spec(rule):
        return qp.SweepSpec(rule, ("power:1", "log1p"), 1.0, 100.0, alpha_points=3)

    monkeypatch.setattr(workloads, "reference_spec", small_spec)
    full_mix = workloads.solve_mix_instances
    monkeypatch.setattr(workloads, "solve_mix_instances", lambda seed: full_mix(seed)[:4])
    full_crowd = workloads.crowd_cases
    monkeypatch.setattr(
        workloads, "crowd_cases", lambda seed: [c for c in full_crowd(seed) if len(c[1]) <= 50]
    )
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_shortened_pass_reports_every_metric(shortened, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "11", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def _solved(rule, values, weight):
    inst = qp.AuctionInstance.make(rule, values, weight)
    return workloads.Op("solve", inst, result=qp.solve(inst), tolerance=qp.SolverConfig().tolerance)


@pytest.mark.parametrize(
    "rule, values, weight",
    [
        ("all_pay", (30.0, 3.0), "power:0.5"),  # closed form applies
        ("winners_pay", (8.0, 2.0), "power:1"),  # closed form applies
        ("winners_pay", (5.0, 2.0, 1.0), "log1p"),  # certificate only
    ],
)
def test_check_accepts_a_solution_and_flags_bids_scaled_by_1_1(rule, values, weight):
    op = _solved(rule, values, weight)
    assert workloads.check_op(op) is None
    res = op.result
    scaled = qp.BidVector(tuple(1.1 * b for b in res.bids.bids))
    op.result = dataclasses.replace(res, bids=scaled)
    assert workloads.check_op(op) is not None


def test_check_flags_scaled_bids_in_a_sweep_row():
    spec = qp.SweepSpec("all_pay", ("power:1",), alpha_start=4.0, alpha_stop=4.0, alpha_points=1)
    (row,) = qp.run_sweep(spec)
    inst = qp.AuctionInstance.make("all_pay", spec.values_for(4.0, 2), "power:1")
    op = workloads.Op("solve", inst, result=row, tolerance=qp.SolverConfig().tolerance)
    assert workloads.check_op(op) is None
    op.result = dataclasses.replace(row, bids=tuple(1.1 * b for b in row.bids))
    assert workloads.check_op(op) is not None


def test_check_flags_a_wrong_certificate():
    rule, values, weight, bids = workloads.crowd_cases(2)[0]
    inst = qp.AuctionInstance.make(rule, values, weight)
    op = workloads.Op("certificate", inst, result=qp.best_response_gap(inst, bids), bids=bids)
    assert workloads.check_op(op) is None
    op.result *= 1.1
    assert workloads.check_op(op) is not None


def test_check_counts_an_unconverged_result():
    op = _solved("all_pay", (30.0, 3.0), "power:0.5")
    op.result = dataclasses.replace(op.result, converged=False)
    assert workloads.check_op(op) is not None
