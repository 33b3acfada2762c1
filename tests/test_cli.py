"""Command line behavior: output shapes, exit codes, spec files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpauction
from qpauction import cli, mechanism
from qpauction.harness import CSV_HEADER, read_csv


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_prints_closed_form_point(capsys):
    code, out, err = run(capsys, "solve", "all_pay", "power:0.5", "--values", "4,1")
    assert code == 0
    assert err == ""
    assert "converged     yes" in out
    assert "0.444444444" in out
    assert "0.111111111" in out
    assert "0.555555555" in out


def test_solve_json_round_trips_instance(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "winners_pay",
        "power:1",
        "--values",
        "1,1",
        "--json",
        "--method",
        "best_response_iteration",
        "--tolerance",
        "1e-12",
    )
    assert code == 0
    payload = json.loads(out)
    instance, _ = mechanism.from_dict(payload["instance"])
    assert instance.rule.value == "winners_pay"
    result = payload["result"]
    assert result["converged"] is True
    assert result["bids"] == pytest.approx([1 / 3, 1 / 3], abs=1e-6)
    assert result["revenue"] == pytest.approx(1 / 3, abs=1e-6)


def test_solve_solver_flags_reach_the_config(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "all_pay",
        "power:1",
        "--values",
        "64,1",
        "--method",
        "best_response_iteration",
        "--max-iterations",
        "2",
        "--tolerance",
        "1e-13",
    )
    assert code == 0
    assert "converged     no" in out
    assert "iterations    2" in out


def test_solve_defaults_to_aggregate_method(capsys):
    code, out, _ = run(capsys, "solve", "all_pay", "power:1", "--values", "100,3,1")
    assert code == 0
    assert "method        aggregate" in out
    assert "converged     yes" in out


def test_solve_initial_bids_need_an_iterative_method(capsys):
    argv = ("solve", "all_pay", "power:1", "--values", "4,1", "--initial-bids", "1,1")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "initial_bids" in err
    code, out, _ = run(capsys, *argv, "--method", "best_response_iteration")
    assert code == 0
    assert "converged     yes" in out


def test_solve_rejects_the_removed_gradient_method(capsys):
    argv = ("solve", "all_pay", "power:1", "--values", "4,1")
    code, out, err = run(capsys, *argv, "--method", "giga")
    assert code == 1
    assert out == ""
    assert "giga" in err
    code, out, err = run(capsys, *argv, "--certify-every", "100")
    assert code == 1
    assert "certify-every" in err
    code, out, err = run(capsys, *argv, "--bid-floor", "1e-9")
    assert code == 1
    assert out == ""
    assert "bid-floor" in err


def test_solve_out_of_range_values_exit_one(capsys):
    argv = ("solve", "all_pay", "power:1", "--values", "1e-200,1e-200")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_solve_rejects_nonpositive_value(capsys):
    code, out, err = run(capsys, "solve", "winners_pay", "power:1", "--values", "0,1")
    assert code == 1
    assert out == ""
    assert "finite and > 0" in err


def test_solve_rejects_garbled_values(capsys):
    code, _, err = run(capsys, "solve", "all_pay", "power:1", "--values", "4;1")
    assert code == 1
    assert "comma-separated" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(
        capsys, "solve", "all_pay", "power:1", "--values", "4,1", "--nope", "3"
    )
    assert code == 1
    assert "nope" in err
    # the sweep process pool and its flag are gone
    code, out, err = run(
        capsys,
        "sweep",
        "--rule",
        "all_pay",
        "--weights",
        "power:1",
        "--alpha-start",
        "1",
        "--alpha-stop",
        "1",
        "--alpha-points",
        "1",
        "--output",
        "-",
        "--workers",
        "2",
    )
    assert code == 1
    assert out == ""
    assert "workers" in err


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 1
    assert "solve" in out and "sweep" in out and "verify" in out


# ---------------------------------------------------------------------------
# sweep


def test_sweep_inline_writes_csv(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        "sweep",
        "--rule",
        "winners_pay",
        "--weights",
        "power:1,power:0.5",
        "--alpha-start",
        "1",
        "--alpha-stop",
        "100",
        "--alpha-points",
        "3",
        "--output",
        str(target),
    )
    assert code == 0
    assert "wrote 6 rows" in out
    rows = read_csv(target)
    assert len(rows) == 6
    assert [row.alpha for row in rows[:2]] == [1.0, 1.0]
    assert all(row.converged for row in rows)


def test_sweep_stdout_starts_with_header(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--rule",
        "all_pay",
        "--weights",
        "power:1",
        "--alpha-start",
        "1",
        "--alpha-stop",
        "4",
        "--alpha-points",
        "2",
        "--output",
        "-",
    )
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("rule", ["all_pay", "winners_pay"])
def test_sweep_csv_bytes_are_pinned(tmp_path, capsys, rule):
    # The golden files were written by this exact command; any change to
    # the solvers' arithmetic shows up here as a byte difference.
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep",
        "--rule",
        rule,
        "--weights",
        "power:1,power:0.5,power:0.25,log1p",
        "--alpha-start",
        "1",
        "--alpha-stop",
        "1e4",
        "--alpha-points",
        "6",
        "--output",
        str(out),
    )
    assert code == 0
    golden = Path(__file__).parent / "data" / f"sweep_{rule}.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_sweep_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "rule": "all_pay",
                "weights": ["power:1"],
                "alpha_start": 1,
                "alpha_stop": 4,
                "alpha_points": 2,
            }
        )
    )
    code, out, _ = run(capsys, "sweep", "--spec", str(spec), "--output", "-")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_sweep_spec_file_rejects_unknown_solver_keys(tmp_path, capsys):
    # both keys name removed solver settings
    for key, value in (("certify_every", 1000), ("bid_floor", 1e-9)):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "rule": "all_pay",
                    "weights": ["power:1"],
                    "alpha_start": 1,
                    "alpha_stop": 4,
                    "alpha_points": 2,
                    "solver": {key: value},
                }
            )
        )
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--output", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert key in err


def test_sweep_spec_file_excludes_inline_flags(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    code, _, err = run(
        capsys, "sweep", "--spec", str(spec), "--rule", "all_pay", "--output", "-"
    )
    assert code == 1
    assert "--rule" in err


def test_sweep_missing_grid_flags(capsys):
    code, _, err = run(capsys, "sweep", "--rule", "all_pay", "--output", "-")
    assert code == 1
    assert "--alpha-start" in err


def test_sweep_unreadable_spec_file(capsys):
    code, _, err = run(capsys, "sweep", "--spec", "/nonexistent.json", "--output", "-")
    assert code == 1
    assert "cannot read spec file" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_criterion_passes(capsys):
    code, out, _ = run(capsys, "verify", "--only", "gradients")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS  gradients")
    assert lines[-1].startswith("1 criteria: 1 passed, 0 failed")


def test_python_dash_m_runs_the_cli_without_an_install():
    src = str(Path(qpauction.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qpauction", "verify", "--only", "scaling"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS  scaling-exponent")


def test_verify_unknown_filter(capsys):
    code, _, err = run(capsys, "verify", "--only", "zzz")
    assert code == 1
    assert "no criterion slug" in err


def test_verify_broken_gradient_exits_two(capsys, monkeypatch):
    # the gradient criterion reads the function off the module, so a broken
    # build can be simulated without touching real code
    monkeypatch.setattr(
        "qpauction.acceptance.mechanism.utility_gradient",
        lambda instance, i, bids: 0.0,
    )
    code, out, _ = run(capsys, "verify", "--only", "gradients")
    assert code == 2
    assert "FAIL  gradients" in out
    assert "fail:" in out


def test_verify_json_payload(capsys):
    code, out, err = run(capsys, "verify", "--only", "gradients", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["slug"] == "gradients"
    assert payload[0]["passed"] is True
    assert "PASS" in err


# ---------------------------------------------------------------------------
# best-response


def test_best_response_matches_known_point(capsys):
    code, out, _ = run(
        capsys,
        "best-response",
        "winners_pay",
        "power:1",
        "--values",
        "1,1",
        "--bids",
        "0.5,0.3333333333333333",
        "--bidder",
        "0",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_response"] == pytest.approx(1 / 3, abs=1e-10)
    assert payload["gain"] == pytest.approx(1 / 30, abs=1e-8)


def test_best_response_bidder_out_of_range(capsys):
    code, _, err = run(
        capsys,
        "best-response",
        "all_pay",
        "power:1",
        "--values",
        "4,1",
        "--bids",
        "1,1",
        "--bidder",
        "5",
    )
    assert code == 1
    assert "--bidder" in err
