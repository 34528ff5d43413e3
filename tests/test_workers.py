"""Worker processes: the pooled sweep, settings checks before the first byte, lost workers,
and the pool itself.

A sweep of at least ``cli._SWEEP_POOL_MIN_CELLS`` cells (``--simulate``:
``cli._SIMULATE_POOL_MIN_CELLS``) in a process that may use several CPUs
runs its chunks of cells in forked workers, which return their rows as
text.  The tests choose the path whatever the host: ``_force_pool``
lowers both thresholds to 0, cuts the chunks to 8 cells and
reports 3 CPUs; 1 reported CPU keeps every cell in this process.  Each
records the workers that ``_pool._fork`` starts, pool by pool, so a test
can tell whether and how many workers started.
"""

import contextlib
import errno
import gc
import hashlib
import importlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

import ternary_dynamics._pool
import ternary_dynamics.cli
from ternary_dynamics import InvalidInputError
from ternary_dynamics._pool import WorkerLostError, ordered_map
from ternary_dynamics.cli import main

from conftest import _assert_no_child_left, _recording_pools

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


def _chunks_of_8(monkeypatch):
    monkeypatch.setattr(ternary_dynamics.cli, "_SWEEP_CHUNK_CELLS", 8)
    monkeypatch.setattr(ternary_dynamics.cli, "_SIMULATE_CHUNK_CELLS", 8)


def _force_pool(monkeypatch):
    monkeypatch.setattr(ternary_dynamics.cli, "_SWEEP_POOL_MIN_CELLS", 0)
    monkeypatch.setattr(ternary_dynamics.cli, "_SIMULATE_POOL_MIN_CELLS", 0)
    _chunks_of_8(monkeypatch)
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 3)
    return _recording_pools(monkeypatch)


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
# the 10 --cells make 2 chunks of 8 cells or fewer: this process formats the first,
# so 1 worker
@pytest.mark.parametrize("grid, workers", [(AXES, 3), (CELLS, 1), (OUT_OF_RANGE, 3)],
                         ids=["axes", "cells", "out_of_range"])
def test_a_pooled_sweep_writes_the_bytes_of_one_process(capsys, tmp_path, monkeypatch, fmt,
                                                        simulate, grid, workers):
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
        _chunks_of_8(m)
        alone = _outputs(capsys, tmp_path, argv)
    # each of the two runs spans two or more chunks, all run in this process
    assert len(here) >= 4 and max(here) == 8
    with monkeypatch.context() as m:
        started = _force_pool(m)
        pooled = _outputs(capsys, tmp_path, argv)
    assert started == [workers, workers]
    _assert_no_child_left()
    assert pooled == alone
    assert pooled[0] == pooled[1]


def test_the_out_of_range_grid_is_pooled_at_the_real_threshold(capsys, monkeypatch):
    # the grid of test_out_of_range_sweep_output, 8,125 cells, with its pinned digest
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 2)
    started = _recording_pools(monkeypatch)
    code = main(["sweep", *OUT_OF_RANGE, *INIT])
    out = capsys.readouterr().out
    assert code == 0 and started == [2]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "feb2b1953e6baf95d391d8a7fe9fca0a4e838ddb0bc80513068b9d94c0edc434")


# the sweep_simulate benchmark input at seed 0 (1,331 cells), above _SIMULATE_POOL_MIN_CELLS
GRID_11 = ("--v0", "-0.9:0.9:0.18", "--v1", "-0.9:0.9:0.18", "--v2", "-0.9:0.9:0.18", "--m", "0")


@pytest.mark.parametrize("grid, fmt", [(GRID_11, "csv"), (OUT_OF_RANGE, "csv"),
                                       (OUT_OF_RANGE, "json")],
                         ids=["11_cubed", "out_of_range-csv", "out_of_range-json"])
def test_simulate_sweeps_are_pooled_at_the_real_constants_with_the_bytes_of_one_process(
        capsys, tmp_path, monkeypatch, grid, fmt):
    argv = ["sweep", *grid, *INIT, "--simulate", "--format", fmt]
    started = _recording_pools(monkeypatch)
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 1)
    alone = _outputs(capsys, tmp_path, argv)
    assert started == []
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 3)
    pooled = _outputs(capsys, tmp_path, argv)
    assert started == [3, 3]
    _assert_no_child_left()
    assert pooled == alone
    assert pooled[0] == pooled[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_41_cubed_classify_only_grid_is_pinned(capsys, monkeypatch, cpus):
    # the sweep_classify benchmark input at seed 0 (68,921 cells); 1 CPU keeps every chunk here
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: cpus)
    started = _recording_pools(monkeypatch)
    axis = "-0.9:0.9:0.045"
    code = main(["sweep", "--v0", axis, "--v1", axis, "--v2", axis, "--m", "0", *INIT,
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0 and started == [2] * (cpus > 1)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7b0b83349203a82d5ed1f8bdec8c81d438b24403765243246ca1d17270066c01")


def test_the_calling_process_formats_the_first_chunk_and_the_emitter_frames_the_rest(
        pooled, capsys, monkeypatch):
    # the traced benchmark reads classify spans and the sweep emitter in this process
    calls = []
    emit = SERIALIZE.sweep_to_json

    def recording_emit(out, header, texts):
        received = []
        calls.append(received)
        emit(out, header, (received.append(text) or text for text in texts))

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
    assert [len(received) for received in calls] == [14] and pooled == [3]
    assert all(isinstance(text, str) for text in calls[0])
    assert here == [os.getpid()] * 8  # the first chunk's cells only


@pytest.mark.parametrize("setting, message", [
    (("--m", "3"), "coordinate must be 0, 1 or 2, got 3"),
    (("--init", "0.5,0.5,0.5"), "error: "),
    (("--tol", "-1"), "tol must be positive, got -1.0"),
    (("--tol", "nan"), "tol must be positive, got nan"),
    (("--max-steps", "0"), "max_steps must be >= 1, got 0"),
    (("--agreement-tol", "0"), "agreement_tol must be positive, got 0.0"),
])
@pytest.mark.parametrize("simulate", [(), ("--simulate",)])
def test_every_sweep_setting_is_checked_before_the_first_byte(capsys, tmp_path, monkeypatch,
                                                              setting, message, simulate):
    # a 21^3 grid, above the real threshold, on 3 reported CPUs
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 3)
    started = _recording_pools(monkeypatch)
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
    started = _force_pool(monkeypatch)
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
    assert started == [3, 3] * (cpus > 1)
    _assert_no_child_left()


@pytest.mark.parametrize("fmt, text", [("csv", ",".join(SERIALIZE.SWEEP_HEADER) + "\n"),
                                       ("json", "[]\n")])
@pytest.mark.parametrize("cpus", [1, 3], ids=["one-process", "pooled"])
def test_an_empty_sweep_writes_the_header_or_an_empty_list(capsys, tmp_path, monkeypatch, fmt,
                                                           text, cpus):
    started = _force_pool(monkeypatch)
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: cpus)
    assert _outputs(capsys, tmp_path, ["sweep", "--cells", ";", *INIT, "--format", fmt]) == (
        text, text)
    assert started == []  # no chunk, so no worker


def test_no_worker_outlives_a_pooled_sweep_into_a_closed_pipe(pooled, monkeypatch):
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["sweep", *AXES, *INIT, "--simulate"])
    assert pooled == [3]
    _assert_no_child_left()


# Runs in a fresh interpreter: prints, as JSON, how many workers a sweep of
# ``threshold + offset`` cells on 3 reported CPUs forked, and whether
# multiprocessing was loaded; a --simulate sweep (a third argument) has its
# own threshold.
THRESHOLD_RUN = """
import json, sys
import ternary_dynamics._pool as pool, ternary_dynamics.cli as cli
pool._usable_cpus = lambda: 3
forks = []
fork = pool._fork
pool._fork = lambda fn, workers: forks.append(fn) or fork(fn, workers)
simulate = sys.argv[3:]
threshold = cli._SIMULATE_POOL_MIN_CELLS if simulate else cli._SWEEP_POOL_MIN_CELLS
cells = threshold + int(sys.argv[1])
assert cells <= 10_001
argv = ["sweep", "--v0", "0.1", "--v1", "0.2", "--v2", f"0:{(cells - 1) / 10_000!r}:0.0001",
        "--init", "0.5,0.3,0.2", "--output", sys.argv[2], *simulate]
assert cli.main(argv) == 0
print(json.dumps([len(forks), "multiprocessing" in sys.modules]))
"""


def _threshold_run(tmp_path, offset, *simulate):
    """THRESHOLD_RUN's workers and whether it loaded multiprocessing, and the lines of its CSV."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = tmp_path / "sweep.csv"
    proc = subprocess.run([sys.executable, "-c", THRESHOLD_RUN, str(offset), str(out), *simulate],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    return json.loads(proc.stdout), out.read_text(encoding="utf-8").splitlines()


def _workers(cells, chunk_cells):
    """Workers that a pooled sweep of ``cells`` forks on 3 reported CPUs.

    One per chunk but the first, which the calling process formats, and at most 3.
    """
    return min(3, -(-cells // chunk_cells) - 1)


@pytest.mark.parametrize("offset, pooled", [(-1, False), (0, True)])
def test_a_grid_under_the_threshold_starts_no_worker_and_loads_no_multiprocessing(
        tmp_path, offset, pooled):
    cli = ternary_dynamics.cli
    cells = cli._SWEEP_POOL_MIN_CELLS + offset
    (workers, loaded), lines = _threshold_run(tmp_path, offset)
    # 3,000 cells make 2 chunks: the one worker formats the second
    assert workers == pooled * _workers(cells, cli._SWEEP_CHUNK_CELLS) == int(pooled)
    assert loaded is False
    assert len(lines) == 1 + cells


@pytest.mark.parametrize("offset, pooled", [(-1, False), (0, True)])
def test_a_simulate_grid_uses_its_own_lower_threshold(tmp_path, offset, pooled):
    cli = ternary_dynamics.cli
    assert cli._SIMULATE_POOL_MIN_CELLS < cli._SWEEP_POOL_MIN_CELLS
    cells = cli._SIMULATE_POOL_MIN_CELLS + offset
    (workers, loaded), lines = _threshold_run(tmp_path, offset, "--simulate")
    assert workers == pooled * _workers(cells, cli._SIMULATE_CHUNK_CELLS) >= 2 * pooled
    assert loaded is False
    assert len(lines) == 1 + cells


# ------------------------------------------------------------ lost workers
#
# A worker killed by a signal (SIGKILL here, as the out-of-memory killer
# sends) used to leave the caller waiting forever.  Each run below happens in
# a fresh interpreter under a timeout, with a task that kills its own worker.

KILLED_RUN = """
import json, os, signal, sys
import ternary_dynamics._pool as pool, ternary_dynamics.cli as cli, ternary_dynamics.sampling as sampling
pool._usable_cpus = lambda: 3
cli._SWEEP_POOL_MIN_CELLS = cli._SIMULATE_POOL_MIN_CELLS = 0
cli._SWEEP_CHUNK_CELLS = cli._SIMULATE_CHUNK_CELLS = 8
sampling._POOL_MIN_STAGES = 0
parent = os.getpid()

def killing(fn):
    def task(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)
    return task

def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return 0
    return 1

cli.sweep = killing(cli.sweep)
sampling._run_chunk = killing(sampling._run_chunk)
code = cli.main(json.loads(sys.argv[1]))
sys.stdout.flush()
print(json.dumps([code, children_left()]), file=sys.stderr)
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


# ------------------------------------------------------------ the pool itself
#
# ordered_map directly, with 2 or 3 workers.  Every wait runs under a
# deadline, so a pool that waits for a dead worker fails instead of hanging.

@pytest.fixture
def deadline():
    """Fail, rather than hang, a test that takes more than 30 s."""
    def timeout(signum, frame):
        raise TimeoutError("ordered_map waited for a dead worker")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _kill_self(task):
    if task == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def test_ordered_map_raises_when_a_worker_dies(deadline):
    with pytest.raises(WorkerLostError):
        with ordered_map(_kill_self, range(10), 2) as results:
            assert next(results) == 0
            list(results)
    _assert_no_child_left()


def _large(task):
    # 3 MiB, over any pipe's buffer, different for every task
    return bytes(range(256)) * (3 * 4096) + task.to_bytes(2, "little")


def _sized(size):
    """``size`` bytes, different from one size to the next."""
    return bytes([size % 251]) * size


def _payload_of_message(size):
    """The size of the bytes whose result, pickled as a worker sends it, is ``size`` bytes."""
    def message(payload):
        return len(pickle.dumps((True, _sized(payload)), pickle.HIGHEST_PROTOCOL))

    payload = 2 * size - message(size)
    assert message(payload) == size
    return payload


# around the calling process's 8 KiB read buffer and a pipe's 64 KiB capacity, and 3 MiB
BOUNDARIES = (0, 1, 8191, 8192, 8193, 65535, 65536, 65537, 3 << 20)
# each size as a result, and, past a pickle's few bytes of its own, as the message on the pipe
SIZES = [*BOUNDARIES, *(_payload_of_message(size) for size in BOUNDARIES if size > 64)]


@pytest.mark.parametrize("fn, tasks", [(_large, range(5)), (_sized, SIZES)],
                         ids=["3-mib", "around-buffer-sizes"])
def test_a_result_over_1_mib_comes_back_intact(deadline, fn, tasks):
    # 2 workers: each reads several tasks and sends several results down its own pipes
    with ordered_map(fn, tasks, 2) as results:
        got = list(results)
    assert got == [fn(task) for task in tasks]
    assert max(map(len, got)) > 1 << 20
    _assert_no_child_left()


# a pickle cut short raises UnpicklingError in the reader, a pipe with none of it EOFError
@pytest.mark.parametrize("cut", [lambda size: 0, lambda size: 1, lambda size: size // 2,
                                 lambda size: size - 1],
                         ids=["nothing", "after-the-first-byte", "at-half", "before-the-last-byte"])
def test_a_worker_killed_in_the_middle_of_a_frame_raises(deadline, monkeypatch, cut):
    parent = os.getpid()
    write = ternary_dynamics._pool._write

    def write_part_then_die(fd, data):
        if os.getpid() == parent:  # a task, sent by this process
            return write(fd, data)
        write(fd, data[:cut(len(data))])
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(ternary_dynamics._pool, "_write", write_part_then_die)
    with pytest.raises(WorkerLostError):
        with ordered_map(_large, range(4), 2) as results:
            list(results)
    _assert_no_child_left()


def _divide(task):
    return 12 // (3 - task)


def test_a_worker_error_reaches_the_caller_with_its_type_and_message(deadline):
    got = []
    with pytest.raises(ZeroDivisionError) as info:
        with ordered_map(_divide, range(6), 2) as results:
            got.extend(results)
    assert type(info.value) is ZeroDivisionError
    assert str(info.value) == "integer division or modulo by zero"
    assert got == [4, 6, 12]  # the results before the first error, in task order
    _assert_no_child_left()


def _one_dies_two_sleep(task):
    if task == 0:  # the task this process runs
        return
    if task == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)


def test_a_killed_worker_is_seen_while_the_others_still_run(deadline):
    start = time.monotonic()
    with pytest.raises(WorkerLostError):
        with ordered_map(_one_dies_two_sleep, range(4), 3) as results:
            list(results)
    # the workers of tasks 2 and 3 would sleep for 60 s; they were killed instead
    assert time.monotonic() - start < 20
    _assert_no_child_left()


def _one_dies_idle_one_sleeps(task):
    if task == 1:
        # ends this worker a moment after it returns task 1, as it waits for its next task
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, 0.05)
    elif task == 2:
        time.sleep(60)
    return task  # task 0 runs in this process and returns at once


def _tasks_paused_until_a_worker_ends():
    # the pool takes the first 3 tasks (2 workers and this process) before it forks
    yield 0
    yield 1
    yield 2
    # the next task goes to the worker of task 1: wait until it has died, without reaping it
    while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        time.sleep(0.01)
    yield 3


def test_a_worker_that_died_while_idle_fails_the_write_of_its_next_task(deadline):
    start = time.monotonic()
    with pytest.raises(WorkerLostError) as info:
        with ordered_map(_one_dies_idle_one_sleeps, _tasks_paused_until_a_worker_ends(),
                         2) as results:
            list(results)
    assert isinstance(info.value.__context__, BrokenPipeError)  # the task pipe, not a result pipe
    # the worker of task 2 would sleep for 60 s; it was killed instead
    assert time.monotonic() - start < 20
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
def test_a_fork_that_fails_raises_and_ends_the_workers_already_started(deadline, monkeypatch):
    fds = sorted(os.listdir("/proc/self/fd"))
    error = BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
    fork, waitpid = os.fork, os.waitpid
    forked, reaped = [], []

    def fork_once():
        if forked:
            raise error
        forked.append(fork())
        return forked[-1]

    def recording_waitpid(pid, options):
        reaped.append(waitpid(pid, options))
        return reaped[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    with pytest.raises(BlockingIOError) as info:
        with ordered_map(_divide, range(4), 3):
            pass
    assert info.value is error
    # the first worker was killed and reaped, and every pipe of both forks is closed
    [(pid, status)] = reaped
    assert pid == forked[0] and os.WIFSIGNALED(status)
    assert os.WTERMSIG(status) == signal.SIGKILL
    assert sorted(os.listdir("/proc/self/fd")) == fds
    _assert_no_child_left()


def _sigint_ignored(task):
    return os.getpid(), signal.getsignal(signal.SIGINT) is signal.SIG_IGN


def test_workers_ignore_sigint(deadline):
    with ordered_map(_sigint_ignored, range(4), 2) as results:
        got = list(results)
    # task 0 ran in this process, which keeps its own handler; tasks 1-3 ran in the workers
    assert got[0] == (os.getpid(), False)
    assert [ignored for pid, ignored in got[1:] if pid != os.getpid()] == [True] * 3
    assert signal.getsignal(signal.SIGINT) is not signal.SIG_IGN
    _assert_no_child_left()


@pytest.mark.parametrize("tasks", [[], [5]], ids=["none", "one"])
def test_a_run_of_one_task_or_none_forks_no_worker(monkeypatch, tasks):
    started = _recording_pools(monkeypatch)
    with ordered_map(_sigint_ignored, tasks, 3) as results:
        got = list(results)
    assert got == [(os.getpid(), False)] * len(tasks)  # run here, if at all
    assert started == []
    _assert_no_child_left()


@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen-by-caller"])
@pytest.mark.parametrize("fails", [False, True], ids=["ok", "error"])
def test_the_gc_state_is_the_same_after_the_block(deadline, frozen, fails):
    if frozen:
        gc.freeze()
    try:
        before = gc.isenabled(), gc.get_freeze_count()
        with pytest.raises(ZeroDivisionError) if fails else contextlib.nullcontext():
            with ordered_map(_divide, range(3 + fails), 2) as results:
                assert gc.get_freeze_count() > 0  # frozen while the workers run
                list(results)
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        if frozen:
            gc.unfreeze()
    _assert_no_child_left()
