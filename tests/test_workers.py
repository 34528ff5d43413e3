"""Worker processes: the pooled sweep, settings checks before the first byte, lost workers.

A sweep of at least ``cli._SWEEP_POOL_MIN_CELLS`` cells (``--simulate``:
``cli._SIMULATE_POOL_MIN_CELLS``) in a process that may use several CPUs
runs its chunks of cells in forked workers, which return their rows as
text.  The tests choose the path whatever the host: ``_force_pool``
lowers both thresholds to 0, cuts the chunks to 8 cells and
reports 3 CPUs; 1 reported CPU keeps every cell in this process.  Each
records the ``multiprocessing`` contexts asked for, so a test can tell
whether workers started.
"""

import hashlib
import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

import ternary_dynamics._pool
import ternary_dynamics.cli
from ternary_dynamics import InvalidInputError
from ternary_dynamics._pool import WorkerLostError, ordered_map
from ternary_dynamics.cli import main

CLASSIFY = importlib.import_module("ternary_dynamics.classify")
SERIALIZE = importlib.import_module("ternary_dynamics.serialize")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
INIT = ("--init", "0.5,0.3,0.2")
# 7 x 5 x 3 = 105 cells: with 8-cell chunks, 13 full chunks and one of 1 cell
AXES = ("--v0", "-0.9:0.9:0.3", "--v1", "-0.6:0.6:0.3", "--v2", "-0.5:0.5:0.5")
CELLS = ("--cells", "0.1,0.1,0.1;-0.2,0.5,-0.4;-0.1,0.3,0.2;0.3,-0.1,0.2;0,0.2,0.3;"
                    "0.5,0.5,-0.2;nan,0.1,0.1;0.2,0.2,0.2;-0.9,-0.9,0.9;0.4,-0.4,0.1")
OUT_OF_RANGE = ("--v0", "-3:3:0.25", "--v1", "-3:3:0.25", "--v2", "-3:3:0.5", "--m", "1",
                "--allow-out-of-range")


def _recording_contexts(monkeypatch):
    started = []
    real = multiprocessing.get_context

    def get_context(method=None):
        started.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return started


def _force_pool(monkeypatch):
    monkeypatch.setattr(ternary_dynamics.cli, "_SWEEP_POOL_MIN_CELLS", 0)
    monkeypatch.setattr(ternary_dynamics.cli, "_SIMULATE_POOL_MIN_CELLS", 0)
    monkeypatch.setattr(ternary_dynamics.cli, "_SWEEP_CHUNK_CELLS", 8)
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 3)
    return _recording_contexts(monkeypatch)


@pytest.fixture
def pooled(monkeypatch):
    return _force_pool(monkeypatch)


def _outputs(capsys, tmp_path, argv):
    """Exit code, stdout and ``--output`` file text of one sweep."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    path = tmp_path / "sweep.out"
    assert main([*argv, "--output", str(path)]) == 0
    return captured.out, path.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("simulate", [(), ("--simulate",)])
@pytest.mark.parametrize("grid", [AXES, CELLS, OUT_OF_RANGE], ids=["axes", "cells", "out_of_range"])
def test_a_pooled_sweep_writes_the_bytes_of_one_process(capsys, tmp_path, monkeypatch, fmt,
                                                        simulate, grid):
    argv = ["sweep", *grid, *INIT, "--format", fmt, *simulate]
    here = []
    real_sweep = ternary_dynamics.cli.sweep

    def chunk_sweep(cells, *args, **kwargs):
        # in a worker too: its AssertionError reaches main in this process
        assert len(cells) <= 8
        here.append(len(cells))
        return real_sweep(cells, *args, **kwargs)

    monkeypatch.setattr(ternary_dynamics.cli, "sweep", chunk_sweep)
    with monkeypatch.context() as m:
        m.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 1)
        m.setattr(ternary_dynamics.cli, "_SWEEP_CHUNK_CELLS", 8)
        alone = _outputs(capsys, tmp_path, argv)
    # each of the two runs spans two or more chunks, all run in this process
    assert len(here) >= 4 and max(here) == 8
    with monkeypatch.context() as m:
        started = _force_pool(m)
        pooled = _outputs(capsys, tmp_path, argv)
    assert started == ["fork", "fork"]
    assert multiprocessing.active_children() == []
    assert pooled == alone
    assert pooled[0] == pooled[1]


def test_the_out_of_range_grid_is_pooled_at_the_real_threshold(capsys, monkeypatch):
    # the grid of test_out_of_range_sweep_output, 8,125 cells, with its pinned digest
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 2)
    started = _recording_contexts(monkeypatch)
    code = main(["sweep", *OUT_OF_RANGE, *INIT])
    out = capsys.readouterr().out
    assert code == 0 and started == ["fork"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "feb2b1953e6baf95d391d8a7fe9fca0a4e838ddb0bc80513068b9d94c0edc434")


def test_the_calling_process_formats_the_first_chunk_and_the_emitter_frames_the_rest(
        pooled, capsys, monkeypatch):
    # the traced benchmark reads classify spans and the sweep emitter in this process
    calls = []
    emit = SERIALIZE.sweep_to_json

    def recording_emit(out, texts):
        received = []
        calls.append(received)
        emit(out, (received.append(text) or text for text in texts))

    monkeypatch.setattr(SERIALIZE, "sweep_to_json", recording_emit)
    here = []
    classify = CLASSIFY.classify

    def recording_classify(*args):
        here.append(os.getpid())
        return classify(*args)

    monkeypatch.setattr(CLASSIFY, "classify", recording_classify)
    assert main(["sweep", *AXES, *INIT, "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 105
    # one call, given the text of each of the 14 chunks
    assert [len(received) for received in calls] == [14] and pooled == ["fork"]
    assert all(isinstance(text, str) for text in calls[0])
    assert here == [os.getpid()] * 8  # the first chunk's cells only


@pytest.mark.parametrize("setting, message", [
    (("--m", "3"), "coordinate must be 0, 1 or 2, got 3"),
    (("--init", "0.5,0.5,0.5"), "error: "),
    (("--tol", "-1"), "tol must be positive, got -1.0"),
    (("--tol", "nan"), "tol must be positive, got nan"),
    (("--max-steps", "0"), "max_steps and window must be >= 1"),
    (("--agreement-tol", "0"), "agreement_tol must be positive, got 0.0"),
])
@pytest.mark.parametrize("simulate", [(), ("--simulate",)])
def test_every_sweep_setting_is_checked_before_the_first_byte(capsys, tmp_path, monkeypatch,
                                                              setting, message, simulate):
    # a 21^3 grid, above the real threshold, on 3 reported CPUs
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 3)
    started = _recording_contexts(monkeypatch)
    axis = "-0.9:0.9:0.09"
    argv = ["sweep", "--v0", axis, "--v1", axis, "--v2", axis, *INIT, *setting, *simulate]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert main([*argv, "--output", str(tmp_path / "sweep.csv")]) == 2
    assert list(tmp_path.iterdir()) == []
    assert started == []


@pytest.mark.parametrize("cpus", [1, 3], ids=["one-process", "pooled"])
def test_an_error_in_a_later_chunk_ends_the_run_with_its_exit_code(capsys, tmp_path,
                                                                   monkeypatch, cpus):
    # a sweep computes its rows while it writes them: an error past the first chunk,
    # here or in a worker, still gives its exit code and leaves no output file
    _force_pool(monkeypatch)
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: cpus)
    real_sweep = ternary_dynamics.cli.sweep

    def failing_sweep(cells, *args, **kwargs):
        if (0.9, 0.6, 0.5) in cells:  # the grid's last cell
            raise InvalidInputError("the last cell fails")
        return real_sweep(cells, *args, **kwargs)

    monkeypatch.setattr(ternary_dynamics.cli, "sweep", failing_sweep)
    argv = ["sweep", *AXES, *INIT]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the last cell fails\n"
    assert len(captured.out.splitlines()) == 1 + 13 * 8  # the header and 13 full chunks
    assert main([*argv, "--output", str(tmp_path / "sweep.csv")]) == 2
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_pooled_sweep_into_a_closed_pipe(pooled, monkeypatch):
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["sweep", *AXES, *INIT, "--simulate"])
    assert pooled == ["fork"]
    assert multiprocessing.active_children() == []


# Runs in a fresh interpreter: prints, as JSON, whether multiprocessing is
# loaded after a sweep of ``threshold + offset`` cells on 3 reported CPUs,
# where a --simulate sweep (a third argument) has its own threshold.
THRESHOLD_RUN = """
import json, sys
import ternary_dynamics._pool as pool, ternary_dynamics.cli as cli
pool._usable_cpus = lambda: 3
simulate = sys.argv[3:]
threshold = cli._SIMULATE_POOL_MIN_CELLS if simulate else cli._SWEEP_POOL_MIN_CELLS
cells = threshold + int(sys.argv[1])
assert cells <= 10_001
argv = ["sweep", "--v0", "0.1", "--v1", "0.2", "--v2", f"0:{(cells - 1) / 10_000!r}:0.0001",
        "--init", "0.5,0.3,0.2", "--output", sys.argv[2], *simulate]
assert cli.main(argv) == 0
print(json.dumps("multiprocessing" in sys.modules))
"""


def _threshold_run(tmp_path, offset, *simulate):
    """Whether THRESHOLD_RUN loaded multiprocessing, and the lines of its CSV."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = tmp_path / "sweep.csv"
    proc = subprocess.run([sys.executable, "-c", THRESHOLD_RUN, str(offset), str(out), *simulate],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    return json.loads(proc.stdout), out.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("offset, loaded", [(-1, False), (0, True)])
def test_a_grid_under_the_threshold_starts_no_worker_and_loads_no_multiprocessing(
        tmp_path, offset, loaded):
    was_loaded, lines = _threshold_run(tmp_path, offset)
    assert was_loaded is loaded
    assert len(lines) == 1 + ternary_dynamics.cli._SWEEP_POOL_MIN_CELLS + offset


@pytest.mark.parametrize("offset, loaded", [(-1, False), (0, True)])
def test_a_simulate_grid_uses_its_own_lower_threshold(tmp_path, offset, loaded):
    cli = ternary_dynamics.cli
    assert cli._SIMULATE_POOL_MIN_CELLS < cli._SWEEP_POOL_MIN_CELLS
    was_loaded, lines = _threshold_run(tmp_path, offset, "--simulate")
    assert was_loaded is loaded
    assert len(lines) == 1 + cli._SIMULATE_POOL_MIN_CELLS + offset


# ------------------------------------------------------------ lost workers
#
# A worker killed by a signal (SIGKILL here, as the out-of-memory killer
# sends) used to leave the caller waiting forever.  Each run below happens in
# a fresh interpreter under a timeout, with a task that kills its own worker.

KILLED_RUN = """
import json, multiprocessing, os, signal, sys
import ternary_dynamics._pool as pool, ternary_dynamics.cli as cli, ternary_dynamics.sampling as sampling
pool._usable_cpus = lambda: 3
cli._SWEEP_POOL_MIN_CELLS = cli._SIMULATE_POOL_MIN_CELLS = 0
cli._SWEEP_CHUNK_CELLS = 8
sampling._POOL_MIN_STAGES = 0
parent = os.getpid()

def killing(fn):
    def task(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args)
    return task

cli._sweep_text = killing(cli._sweep_text)
sampling._run_chunk = killing(sampling._run_chunk)
code = cli.main(json.loads(sys.argv[1]))
sys.stdout.flush()
print(json.dumps([code, len(multiprocessing.active_children())]), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["sweep", *AXES, *INIT, "--format", "json"],
    ["sweep", *CELLS, *INIT, "--simulate", "--output", "{tmp}/sweep.csv"],
    ["stochastic", "--v", "0.1,0.1,0.1", *INIT, "--n", "10,100", "--reps", "7", "--steps", "5"],
], ids=["sweep", "sweep-to-file", "stochastic"])
def test_a_killed_worker_ends_the_run_with_an_error_and_leaves_no_worker(tmp_path, argv):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", KILLED_RUN, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    error, outcome = proc.stderr.splitlines()
    assert error == "error: a worker process ended abruptly (killed by a signal, or out of memory)"
    assert json.loads(outcome) == [1, 0]  # exit code 1, and no worker left
    assert list(tmp_path.iterdir()) == []  # no output file, no temp file
    if argv[0] == "stochastic":
        assert proc.stdout == ""


def _kill_self(task):
    if task == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def test_ordered_map_raises_when_a_worker_dies():
    def timeout(signum, frame):
        raise TimeoutError("ordered_map waited for a dead worker")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        with pytest.raises(WorkerLostError):
            with ordered_map(_kill_self, range(10), 2) as results:
                assert next(results) == 0
                list(results)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
