import csv
import hashlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys

import pytest

import ternary_dynamics.cli
import ternary_dynamics.core
import ternary_dynamics.sampling
from ternary_dynamics import (
    DegenerateClampError, DirectingParams, SampleConfig, SimplexPoint, classify, run_replications,
    sweep,
)
from ternary_dynamics.cli import _axis, main

ATTRACTIVE = "0.1,0.1,0.1"
DEMO_CELLS = "0.1,0.1,0.1;-0.2,0.5,-0.4;-0.1,0.3,0.2;0.3,-0.1,0.2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- equilibrium

def test_equilibrium_symmetric(capsys):
    code, out, err = run(capsys, "equilibrium", "--v", "1,1,1")
    assert code == 0
    header, row = out.splitlines()
    assert header == "rho0,rho1,rho2,v,v_bar,flags"
    values = row.split(",")
    assert float(values[0]) == pytest.approx(1 / 3, abs=1e-15)
    assert err == ""


def test_equilibrium_no_equilibrium_exit_code(capsys):
    code, out, err = run(capsys, "equilibrium", "--v", "-0.1,0.2,0.2")
    assert code == 3
    assert out == ""
    assert "V = 0" in err


def test_equilibrium_out_of_range_exit_code(capsys):
    code, out, err = run(capsys, "equilibrium", "--v", "2,1,1")
    assert code == 2
    assert out == ""


def test_equilibrium_out_of_range_override_flagged(capsys):
    code, out, _ = run(capsys, "equilibrium", "--v", "2,1,1", "--allow-out-of-range")
    assert code == 0
    assert out.splitlines()[1].endswith("params_out_of_range")


def test_equilibrium_json(capsys):
    code, out, _ = run(capsys, "equilibrium", "--v", "0.5,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho0"] == 0.5
    assert payload["v"] == 2.0
    assert payload["v_bar"] == 4.0


def test_invalid_triple_exits_2(capsys):
    code, _, _ = run(capsys, "equilibrium", "--v", "1,1")
    assert code == 2
    code, _, _ = run(capsys, "equilibrium", "--v", "a,b,c")
    assert code == 2


# ----------------------------------------------------------------- simulate

def test_simulate_zero_steps(capsys):
    code, out, _ = run(capsys, "simulate", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2",
                       "--steps", "0")
    assert code == 0
    assert out == "k,p0,p1,p2\n0,0.5,0.3,0.2\n"


def test_simulate_worked_first_row(capsys):
    code, out, _ = run(capsys, "simulate", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2",
                       "--steps", "1")
    assert code == 0
    assert out.splitlines()[2] == "1,0.45,0.31,0.24"


def test_simulate_raw_out_of_range_warns_on_stderr_only(capsys):
    code, out, err = run(capsys, "simulate", "--v", "-0.2,0.5,-0.4",
                         "--init", "0.5,0.25,0.25", "--steps", "5", "--mode", "raw")
    assert code == 0
    assert "warning" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "p0", "p1", "p2"]
    assert any(float(r[2]) < 0 for r in rows[1:])


def test_simulate_clamped_stays_on_simplex(capsys):
    code, out, err = run(capsys, "simulate", "--v", "-0.2,0.5,-0.4",
                         "--init", "0.5,0.25,0.25", "--steps", "10", "--mode", "clamped")
    assert code == 0
    assert err == ""
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(0.0 <= float(x) <= 1.0 for row in rows for x in row[1:])
    assert float(rows[-1][1]) == 0.0


def test_simulate_validation_failures(capsys):
    code, _, _ = run(capsys, "simulate", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.3",
                     "--steps", "1")
    assert code == 2
    code, _, _ = run(capsys, "simulate", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2",
                     "--steps", "-1")
    assert code == 2


def test_simulate_degenerate_clamp_exit_code(capsys, monkeypatch, tmp_path):
    def boom(rows, p):
        raise DegenerateClampError("clamping removed all probability mass")

    monkeypatch.setattr(ternary_dynamics.core, "_clamped_step", boom)
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, "simulate", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2",
                         "--steps", "3", "--mode", "clamped", "--output", str(target))
    assert code == 4
    assert "step 1" in err
    assert not target.exists()


def test_stochastic_degenerate_clamp_names_replication_and_step(capsys, monkeypatch):
    steps = 3
    cfg = SampleConfig(sample_volume=10, replications=2, seed=0, steps=steps)
    trajs = run_replications(DirectingParams(0.1, 0.1, 0.1), (0.5, 0.3, 0.2), cfg)
    # The failure is chosen by state, not by a count of calls: the replications
    # of a volume share the targets they compute.  Replication 1 steps from
    # this state at its step 2, and no stage before that steps from it.
    poisoned = trajs[1].points[1]
    assert poisoned not in trajs[0].points[:steps] and poisoned != trajs[1].points[0]
    real_step = ternary_dynamics.sampling._clamped_step

    def step(rows, state):
        if tuple(state) == poisoned:
            raise DegenerateClampError("clamping removed all probability mass")
        return real_step(rows, state)

    monkeypatch.setattr(ternary_dynamics.sampling, "_clamped_step", step)
    message = "replication 1, step 2: clamping removed all probability mass"
    with pytest.raises(DegenerateClampError) as info:
        run_replications(DirectingParams(0.1, 0.1, 0.1), (0.5, 0.3, 0.2), cfg)
    assert type(info.value) is DegenerateClampError
    assert str(info.value) == message
    code, out, err = run(capsys, "stochastic", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2",
                         "--n", "10", "--reps", "2", "--steps", str(steps))
    assert (code, out, err) == (4, "", f"error: {message}\n")


# ----------------------------------------------------------------- classify

def test_classify_attractive(capsys):
    code, out, _ = run(capsys, "classify", "--v", ATTRACTIVE, "--m", "0")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[1] == "attractive"
    assert float(row[4]) == pytest.approx(1 / 3, abs=1e-12)


def test_classify_repulsive_resolved_with_p0(capsys):
    code, out, _ = run(capsys, "classify", "--v", "-0.2,0.5,-0.4", "--m", "0",
                       "--p0", "0.5")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[1] == "repulsive"
    assert row[4] == "0.0"


def test_classify_repulsive_conditional_without_init(capsys):
    code, out, _ = run(capsys, "classify", "--v", "-0.2,0.5,-0.4", "--m", "0")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "conditional"


def test_classify_resolves_with_init_for_other_coordinate(capsys):
    code, out, _ = run(capsys, "classify", "--v", "-0.2,0.5,-0.4", "--m", "2",
                       "--init", "0.25,0.25,0.5")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[1] == "repulsive"
    assert row[4] == "1.0"


def test_classify_boundary_exit_code(capsys):
    code, out, err = run(capsys, "classify", "--v", "0.1,0,0.1", "--m", "1")
    assert code == 5
    assert out == ""


def test_classify_unresolved_threshold_exit_code(capsys):
    rho0 = classify(DirectingParams(-0.2, 0.5, -0.4), 0).rho_m
    code, _, _ = run(capsys, "classify", "--v", "-0.2,0.5,-0.4", "--m", "0",
                     "--p0", repr(rho0))
    assert code == 5


def test_classify_flag_conflicts(capsys):
    code, _, _ = run(capsys, "classify", "--v", ATTRACTIVE, "--m", "0",
                     "--p0", "0.5", "--init", "0.5,0.3,0.2")
    assert code == 2
    code, _, _ = run(capsys, "classify", "--v", ATTRACTIVE, "--m", "1", "--p0", "0.5")
    assert code == 2


def test_classify_rejects_nonfinite_p0(capsys):
    code, out, err = run(capsys, "classify", "--v", "-0.2,0.5,-0.4", "--m", "0",
                         "--p0", "nan")
    assert code == 2
    assert out == ""
    assert "--p0" in err


def test_classify_rejects_p0_outside_unit_interval(capsys):
    code, out, err = run(capsys, "classify", "--v", "-0.2,0.5,-0.4", "--m", "0", "--p0", "7")
    assert code == 2
    assert out == ""
    assert "--p0" in err


def test_classify_flag_conflict_checked_before_classifying(capsys):
    # coordinate 1 of this cell is a boundary case (exit 5) once classified
    code, out, _ = run(capsys, "classify", "--v", "0.1,0,0.1", "--m", "1",
                       "--p0", "0.5", "--init", "0.5,0.3,0.2")
    assert code == 2
    assert out == ""


def test_classify_no_equilibrium_exit_code(capsys):
    code, _, _ = run(capsys, "classify", "--v", "-0.1,0.2,0.2", "--m", "0")
    assert code == 3


@pytest.mark.parametrize("command", ["equilibrium", "classify"])
def test_nan_denominator_exits_3(capsys, command):
    code, out, err = run(capsys, command, "--v", "1e200,1e200,-1e200", "--allow-out-of-range")
    assert code == 3
    assert out == ""
    assert "V = nan" in err


@pytest.mark.parametrize("command", ["equilibrium", "classify"])
def test_infinite_denominator_exits_3(capsys, command):
    code, out, err = run(capsys, command, "--v", "1e154,1e154,1e154", "--allow-out-of-range")
    assert (code, out) == (3, "")
    assert "V = inf" in err


def test_out_of_range_sweep_output(capsys):
    # |v_m| up to 3: every scenario plus no_equilibrium, boundary and unresolved_prediction rows
    code, out, err = run(capsys, "sweep", "--v0", "-3:3:0.25", "--v1", "-3:3:0.25",
                         "--v2", "-3:3:0.5", "--m", "1", "--init", "0.5,0.3,0.2",
                         "--allow-out-of-range")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8125
    assert {r["scenario"] for r in rows} == {
        "attractive", "repulsive", "dominant", "degenerate", "no_equilibrium", "boundary"}
    assert sum("unresolved_prediction" in r["flags"] for r in rows) == 14
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "feb2b1953e6baf95d391d8a7fe9fca0a4e838ddb0bc80513068b9d94c0edc434")


def test_sweep_continues_past_nan_denominator_cell(capsys):
    code, out, _ = run(capsys, "sweep", "--cells", "1e200,1e200,-1e200;0.1,0.2,0.3",
                       "--init", "0.5,0.3,0.2", "--allow-out-of-range")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["scenario"] for r in rows] == ["no_equilibrium", "attractive"]
    assert rows[0]["contraction_factor"] == "nan"
    assert rows[0]["flags"] == "params_out_of_range"


def test_sweep_continues_past_overflowing_no_equilibrium_cell(capsys):
    code, out, err = run(capsys, "sweep", "--cells", "0.1,0.1,0.1;1e308,-1e308,1.5e308",
                         "--init", "0.5,0.3,0.2", "--allow-out-of-range")
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == (
        "1e+308,-1e+308,1.5e+308,0,,1e+308,no_equilibrium,,nan,,,params_out_of_range")


# -------------------------------------------------------------------- sweep

def test_sweep_demo_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--cells", DEMO_CELLS, "--m", "0",
                       "--init", "0.5,0.3,0.2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    scenarios = [r[6] for r in rows[1:]]
    assert scenarios == ["attractive", "repulsive", "dominant", "degenerate"]


def test_sweep_axis_grid_order(capsys):
    code, out, _ = run(capsys, "sweep", "--v0", "-0.3:0.3:0.1", "--v1", "0.2",
                       "--v2", "0.3", "--m", "0", "--init", "0.5,0.3,0.2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == ["-0.3", "-0.2", "-0.1", "0.0", "0.1", "0.2", "0.3"]
    assert rows[3][6] == "boundary"


def test_axis_sweep_streams_the_grid_into_sweep(capsys, monkeypatch):
    products, chunks, rows = [], [], []
    product = itertools.product

    def recording_product(*axes):
        products.append(product(*axes))
        return products[-1]

    def recording_sweep(cells, *args, **kwargs):
        chunks.append(cells)
        rows.extend(sweep(cells, *args, **kwargs))
        return rows[-len(cells):]

    monkeypatch.setattr(itertools, "product", recording_product)
    monkeypatch.setattr(ternary_dynamics.cli, "sweep", recording_sweep)
    monkeypatch.setattr(ternary_dynamics.cli, "_SIMULATE_CHUNK_CELLS", 8)
    code, out, err = run(capsys, "sweep", "--v0", "-0.3:0.3:0.1", "--v1", "0.2",
                         "--v2", "-0.1:0.1:0.1", "--init", "0.5,0.3,0.2", "--simulate")
    monkeypatch.undo()
    assert (code, err) == (0, "")
    (cells,) = products
    assert iter(cells) is cells  # a one-shot iterator ...
    assert next(cells, None) is None  # ... that the chunks read to its end
    # the settings check, then one sweep call per chunk
    assert [len(chunk) for chunk in chunks] == [0, 8, 8, 5]
    axes = (_axis("-0.3:0.3:0.1"), [0.2], _axis("-0.1:0.1:0.1"))
    assert rows == sweep(list(itertools.product(*axes)), 0, SimplexPoint(0.5, 0.3, 0.2),
                         simulate=True)
    assert len(out.splitlines()) == 1 + 7 * 3


@pytest.mark.parametrize("spec, values", [
    # a value needs more than 12 decimals
    ("1e-13:5e-13:1e-13", ["1e-13", "2e-13", "3e-13", "4e-13", "5e-13"]),
    ("0.1:0.1000000000005:1e-13", ["0.1", "0.1000000000001", "0.1000000000002",
                                   "0.1000000000003", "0.1000000000004", "0.1000000000005"]),
    ("1e-13:1e-13:1", ["1e-13"]),
    # no value passes stop
    ("0:0.9999999999:1", ["0.0"]),
    # the float error of start + i*step goes, the sign of a zero stays
    ("-0.9:0.9:0.3", ["-0.9", "-0.6", "-0.3", "-0.0", "0.3", "0.6", "0.9"]),
    ("0.9:-0.9:-0.45", ["0.9", "0.45", "0.0", "-0.45", "-0.9"]),
])
def test_sweep_axis_values_are_the_exact_decimals(capsys, spec, values):
    assert list(map(repr, _axis(spec))) == values
    code, out, err = run(capsys, "sweep", "--v0", spec, "--v1", "0.2", "--v2", "0.3",
                         "--init", "0.5,0.3,0.2")
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == values


def test_sweep_rejects_conflicting_grid_specs(capsys):
    code, _, _ = run(capsys, "sweep", "--cells", DEMO_CELLS, "--v0", "0.1",
                     "--m", "0", "--init", "0.5,0.3,0.2")
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--v0", "0.1", "--m", "0", "--init", "0.5,0.3,0.2")
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--v0", "0:1:0", "--v1", "0.1", "--v2", "0.1",
                     "--m", "0", "--init", "0.5,0.3,0.2")
    assert code == 2


@pytest.mark.parametrize("spec", ["0:inf:1", "0:1e300:1e-300", "0:nan:1", "0:1000000:1"])
def test_sweep_rejects_unbounded_axis_range(capsys, spec):
    code, out, err = run(capsys, "sweep", "--v0", spec, "--v1", "0.1", "--v2", "0.1",
                         "--init", "0.5,0.3,0.2")
    assert code == 2
    assert out == ""
    assert "enumerates too many values" in err


def test_sweep_simulate_continues_past_matrix_overflow_cell(capsys):
    argv = ["sweep", "--cells", "0.1,0.1,0.1;1e308,0.5,0.3", "--m", "1",
            "--init", "0.5,0.3,0.2", "--allow-out-of-range"]
    code, classified, _ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--simulate")
    assert (code, err) == (0, "")
    header, first, second = out.splitlines()
    assert first.endswith(",agree,")
    classification = "1e+308,0.5,0.3,1,0.375,0.5,attractive,0.375,inf"
    assert second == classification + ",,,matrix_overflow;params_out_of_range"
    assert classified.splitlines()[2] == classification + ",,,params_out_of_range"


@pytest.mark.parametrize("spec, message", [
    ("1:2", "expected NUMBER or START:STOP:STEP, got '1:2'"),
    ("a:b:c", "expected NUMBER or START:STOP:STEP, got 'a:b:c'"),
    ("1:0:0.1", "range '1:0:0.1' is empty"),
    ("0:1:inf", "range step must be nonzero and finite"),
    ("1:1.0000000000000002:1e-17",
     "range '1:1.0000000000000002:1e-17' has values closer than float spacing"),
])
def test_sweep_rejects_malformed_axis_spec(capsys, spec, message):
    code, out, err = run(capsys, "sweep", "--v0", spec, "--v1", "0.1", "--v2", "0.1",
                         "--init", "0.5,0.3,0.2")
    assert (code, out) == (2, "")
    assert message in err


def test_sweep_rejects_too_large_grid_before_any_cell(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a cell was evaluated")

    monkeypatch.setattr(ternary_dynamics.cli, "sweep", fail)
    axis = "0:1:0.01"  # 101 values, so 1,030,301 cells
    code, out, err = run(capsys, "sweep", "--v0", axis, "--v1", axis, "--v2", axis,
                         "--init", "0.5,0.3,0.2")
    assert (code, out) == (2, "")
    assert "error: grid is too large" in err


def test_sweep_axis_range_at_cell_limit_is_accepted():
    from ternary_dynamics.cli import MAX_GRID_CELLS, _axis

    assert len(_axis(f"0:{MAX_GRID_CELLS - 1}:1")) == MAX_GRID_CELLS


def test_sweep_file_output_reruns_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, _, _ = run(capsys, "sweep", "--cells", DEMO_CELLS, "--m", "0",
                         "--init", "0.5,0.3,0.2", "--simulate", "--output", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_no_partial_file_on_error(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run(capsys, "sweep", "--cells", "1,1", "--m", "0",
                     "--init", "0.5,0.3,0.2", "--output", str(target))
    assert code == 2
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["-1", "nan", "0"])
def test_sweep_rejects_nonpositive_agreement_tol(capsys, tol):
    code, out, err = run(capsys, "sweep", "--cells", ATTRACTIVE, "--m", "0",
                         "--init", "0.5,0.3,0.2", "--simulate", "--agreement-tol", tol)
    assert code == 2
    assert out == ""
    assert "agreement_tol" in err


@pytest.mark.parametrize("cells", ["2,2,2", "0,0.1,0.1"])
@pytest.mark.parametrize("setting, message", [
    (("--tol", "-1"), "error: tol must be positive, got -1.0"),
    (("--max-steps", "0"), "error: max_steps must be >= 1, got 0"),
])
def test_sweep_checks_tol_and_max_steps_when_no_cell_simulates(capsys, cells, setting, message):
    code, out, err = run(capsys, "sweep", "--cells", cells, "--init", "0.5,0.3,0.2", "--simulate",
                         *setting)
    assert (code, out) == (2, "")
    assert message in err


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "equilibrium", "--v", "1,1,1", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output")
    assert list(tmp_path.iterdir()) == []


def test_output_onto_directory_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = run(capsys, "equilibrium", "--v", "1,1,1", "--output", str(target))
    assert code == 2
    assert err.startswith("error: cannot write output")
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_file_mode_follows_umask(tmp_path, capsys, umask, mode):
    target = tmp_path / "eq.csv"
    old = os.umask(umask)
    try:
        code, _, _ = run(capsys, "equilibrium", "--v", "1,1,1", "--output", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode


@pytest.mark.parametrize("mode", [0o600, 0o640])
def test_output_overwrite_keeps_existing_file_mode(tmp_path, capsys, mode):
    target = tmp_path / "eq.csv"
    target.write_text("old\n")
    target.chmod(mode)
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "equilibrium", "--v", "1,1,1", "--output", str(target))
    finally:
        os.umask(old)
    assert code == 0
    assert target.read_text().startswith("rho0,")
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_stdout_write_error_is_not_an_output_path_error(monkeypatch):
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["equilibrium", "--v", "1,1,1"])


# --------------------------------------------------------------- stochastic

def test_stochastic_trajectories_deterministic(capsys):
    args = ("stochastic", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2", "--n", "1000",
            "--reps", "2", "--seed", "42", "--steps", "10")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["replication", "k", "p0", "p1", "p2"]
    assert len(rows) == 1 + 2 * 11


def test_stochastic_multi_volume_deviation_table(capsys):
    code, out, _ = run(capsys, "stochastic", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2",
                       "--n", "100,10000", "--reps", "30", "--seed", "42", "--steps", "50")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "median_max_deviation", "replications"]
    assert [r[0] for r in rows[1:]] == ["100", "10000"]
    assert float(rows[2][1]) < float(rows[1][1])


def test_stochastic_invalid_volume_exits_2(capsys):
    code, _, _ = run(capsys, "stochastic", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2",
                     "--n", "0", "--reps", "1", "--seed", "1", "--steps", "2")
    assert code == 2


@pytest.mark.parametrize("volumes", ["9223372036854775808", "10,9223372036854775808"])
def test_stochastic_volume_of_2_63_exits_2(capsys, volumes):
    code, out, err = run(capsys, "stochastic", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2",
                         "--n", volumes, "--steps", "2")
    assert (code, out) == (2, "")
    assert "must be < 2**63, got 9223372036854775808" in err


def test_stochastic_empty_volume_list_is_a_usage_error(tmp_path, capsys):
    args = ("stochastic", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2", "--steps", "2")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=\n")
    for extra in (("--n", ""), ("--config", str(cfg))):
        code, out, err = run(capsys, *args, *extra)
        assert code == 2
        assert out == ""
        assert "argument --n: expected comma-separated integers, got ''" in err


# -------------------------------------------------------------------- config

def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v=0.1,0.1,0.1\ninit=0.5,0.3,0.2\nsteps=2\nformat=json\n")
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert len(json.loads(out)) == 3

    code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--steps", "0",
                       "--format", "csv")
    assert code == 0
    assert out == "k,p0,p1,p2\n0,0.5,0.3,0.2\n"


def test_config_boolean_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("cells=0.1,0.1,0.1\nm=0\ninit=0.5,0.3,0.2\nsimulate=true\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row[10] == "agree"


def test_config_file_cannot_name_another_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"v=0.1,0.1,0.1\nconfig={tmp_path / 'nonexistent.cfg'}\n")
    code, out, err = run(capsys, "equilibrium", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert f"error: {cfg}:2: config cannot be set in a config file" in err


def test_config_comments_and_blank_lines_are_skipped(tmp_path, capsys):
    plain = tmp_path / "plain.cfg"
    plain.write_text("cells=0.1,0.1,0.1;-0.2,0.5,-0.4\ninit=0.5,0.3,0.2\nsimulate=true\n")
    commented = tmp_path / "commented.cfg"
    commented.write_text(
        "# a demo sweep\n\ncells=0.1,0.1,0.1;-0.2,0.5,-0.4\n   \n"
        "  # indented comment\ninit=0.5,0.3,0.2\n\nsimulate=true\n# end\n"
    )
    expected = run(capsys, "sweep", "--config", str(plain))
    assert expected[0] == 0 and expected[1]
    assert run(capsys, "sweep", "--config", str(commented)) == expected


def test_config_errors(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    code, _, _ = run(capsys, "simulate", "--config", str(bad))
    assert code == 2



# ------------------------------------------------------------ argv spellings
# Each entry of ``EQUIVALENT_SPELLINGS`` lists argvs that must print the same
# stdout with exit 0; ``{name}`` stands for the path of ``CONFIG_FILES[name]``.

CONFIG_FILES = {
    "neg": "v=-0.2,0.5,-0.4\n",
    "cells": "cells=-0.2,0.5,-0.4;0.1,0.1,0.1\ninit=0.5,0.3,0.2\nsimulate=true\n",
    "badbool": "v=0.1,0.1,0.1\nallow-out-of-range=maybe\n",
    "emptyn": "v=0.1,0.1,0.1\ninit=0.5,0.3,0.2\nsteps=2\nn=\n",
    "nokv": "v 0.1,0.1,0.1\n",
    "nokey": "=0.1\n",
}
NEG_CELLS = "-0.2,0.5,-0.4;0.1,0.1,0.1"

EQUIVALENT_SPELLINGS = [
    [
        ("equilibrium", "--v", "-0.2,0.5,-0.4"),
        ("equilibrium", "--v=-0.2,0.5,-0.4"),
        ("equilibrium", "--config", "{neg}"),
        ("equilibrium", "--config={neg}"),
        ("--config", "{neg}", "equilibrium"),
    ],
    [
        ("equilibrium", "--v", "-0.1,0.3,0.2"),
        ("equilibrium", "--v", "-0.1,0.3,0.2", "--config", "{neg}"),
        ("equilibrium", "--config", "{neg}", "--v", "-0.1,0.3,0.2"),
        ("equilibrium", "--config={neg}", "--v=-0.1,0.3,0.2"),
    ],
    [
        ("equilibrium", "--v", "0.1,0.1,0.1"),
        ("equilibrium", "--v", "0.1,0.1,0.1", "--config", "{neg}"),
        ("equilibrium", "--config", "{neg}", "--v", "0.1,0.1,0.1"),
    ],
    [
        ("sweep", "--cells", NEG_CELLS, "--init", "0.5,0.3,0.2", "--simulate"),
        ("sweep", f"--cells={NEG_CELLS}", "--init=0.5,0.3,0.2", "--simulate"),
        ("sweep", "--config", "{cells}"),
        ("sweep", "--config={cells}"),
        ("--config", "{cells}", "sweep"),
    ],
    [
        ("sweep", "--v0", "-0.3:0.3:0.1", "--v1", "0.2", "--v2", "-0.1", "--init", "0.5,0.3,0.2"),
        ("sweep", "--v0=-0.3:0.3:0.1", "--v1", "0.2", "--v2=-0.1", "--init", "0.5,0.3,0.2"),
    ],
    # a value that reads as a float before its first ',' or ':' is joined, -inf too
    [
        ("sweep", "--cells", "-inf,0.1,0.1", "--init", "0.5,0.3,0.2"),
        ("sweep", "--cells=-inf,0.1,0.1", "--init", "0.5,0.3,0.2"),
        ("sweep", "--cells", "-Infinity,0.1,0.1", "--init", "0.5,0.3,0.2"),
        ("sweep", "--v0", "-inf", "--v1", "0.1", "--v2", "0.1", "--init", "0.5,0.3,0.2"),
        ("sweep", "--v0=-inf", "--v1", "0.1", "--v2", "0.1", "--init", "0.5,0.3,0.2"),
    ],
]

ARGV_ERRORS = [
    (("equilibrium", "--config", "{badbool}"), 2, "allow-out-of-range must be true or false"),
    (("stochastic", "--config", "{emptyn}"), 2,
     "argument --n: expected comma-separated integers, got ''"),
    (("equilibrium", "--config", "{missing}"), 2, "cannot read config file"),
    (("equilibrium", "--v", "0.1,0.1,0.1", "--config"), 2, "--config requires a file path"),
    (("equilibrium", "--config", "{nokv}"), 2, ":1: expected key=value, got 'v 0.1,0.1,0.1'"),
    (("equilibrium", "--config", "{nokey}"), 2, ":1: empty key"),
    # joined into --v=-.5,1,1, which reaches the equilibrium check
    (("equilibrium", "--v", "-.5,1,1"), 3, "no unique equilibrium"),
    # every pairwise product underflows, and V = -5e-324 is all rounding
    (("equilibrium", "--v=-2.3494635800381015e-162,-4.656468321295535e-162,"
      "2.0129455232895262e-162"), 3, "no unique equilibrium"),
    # argparse would match an abbreviation to --config, whose file is never read
    (("equilibrium", "--v", "0.1,0.1,0.1", "--conf", "{missing}"), 2,
     "--config must be spelled in full"),
    (("equilibrium", "--v", "0.1,0.1,0.1", "--confi={missing}"), 2,
     "--config must be spelled in full"),
]


@pytest.fixture
def config_paths(tmp_path):
    paths = {"missing": str(tmp_path / "missing.cfg")}
    for name, text in CONFIG_FILES.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("spellings", EQUIVALENT_SPELLINGS,
                         ids=[" ".join(s[0]) for s in EQUIVALENT_SPELLINGS])
def test_equivalent_argv_spellings_print_the_same(capsys, config_paths, spellings):
    outputs = []
    for argv in spellings:
        code, out, err = run(capsys, *(a.format(**config_paths) for a in argv))
        assert (code, err) == (0, ""), argv
        outputs.append(out)
    assert outputs[0]
    assert outputs == [outputs[0]] * len(spellings)


@pytest.mark.parametrize("argv, code, message", ARGV_ERRORS,
                         ids=[" ".join(argv) for argv, _, _ in ARGV_ERRORS])
def test_argv_errors(capsys, config_paths, argv, code, message):
    got, out, err = run(capsys, *(a.format(**config_paths) for a in argv))
    assert (got, out) == (code, "")
    assert message in err


def test_help_still_lists_config(capsys):
    code, out, _ = run(capsys, "equilibrium", "--help")
    assert code == 0
    assert "--config FILE" in out


# ------------------------------------------------------------ process level

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ternary_dynamics", "equilibrium", "--v", "1,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rho0,")
    proc = subprocess.run(
        [sys.executable, "-m", "ternary_dynamics", "equilibrium", "--v", "-0.1,0.2,0.2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3


def test_closed_stdout_pipe_ends_the_run_quietly():
    # what `ternary-dynamics sweep ... | head -1` meets once head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ternary_dynamics", "sweep", "--cells", DEMO_CELLS,
             "--init", "0.5,0.3,0.2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


# Runs in a fresh interpreter: prints, as JSON, which of numpy, statistics,
# multiprocessing and select (imported by a pool that starts workers) are
# loaded after each import and each cli.main call.
LOADED_AFTER = """
import json, sys
out_dir = sys.argv[1]
def loaded():
    return [name for name in ("numpy", "statistics", "multiprocessing", "select")
            if name in sys.modules]
import ternary_dynamics
seen = {"import ternary_dynamics": loaded()}
import ternary_dynamics.cli as cli
seen["import ternary_dynamics.cli"] = loaded()
for i, argv in enumerate(json.loads(sys.argv[2])):
    assert cli.main([*argv, "--output", f"{out_dir}/{i}.out"]) == 0
    seen[argv[0]] = loaded()
print(json.dumps(seen))
"""


def test_only_the_stochastic_command_loads_numpy(tmp_path):
    commands = [
        ["equilibrium", "--v", "0.5,1,1"],
        ["simulate", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2", "--steps", "5"],
        ["classify", "--v", ATTRACTIVE, "--m", "0"],
        ["sweep", "--cells", DEMO_CELLS, "--init", "0.5,0.3,0.2", "--simulate"],
        ["stochastic", "--v", ATTRACTIVE, "--init", "0.5,0.3,0.2", "--n", "10,100",
         "--reps", "3", "--steps", "5"],
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, str(tmp_path), json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(proc.stdout) == {
        "import ternary_dynamics": [],
        "import ternary_dynamics.cli": [],
        "equilibrium": [],
        "simulate": [],
        "classify": [],
        "sweep": [],
        "stochastic": ["numpy", "statistics"],
    }
