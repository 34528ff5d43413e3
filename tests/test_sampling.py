import io
import statistics
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ternary_dynamics._pool
import ternary_dynamics.sampling
from ternary_dynamics import (
    DegenerateClampError,
    DeviationRow,
    DirectingParams,
    EmpiricalTrajectory,
    InvalidInputError,
    SampleConfig,
    SimplexPoint,
    lln_diagnostic,
    replication_stream,
    run_replications,
    stochastic_step,
    trajectory,
)
from ternary_dynamics.cli import main
from ternary_dynamics.core import _clamped_step, build_regression_matrix
from ternary_dynamics.serialize import (
    DEVIATION_HEADER,
    REPLICATION_HEADER,
    replication_rows,
    write_table,
)

from conftest import _assert_no_child_left, _recording_pools


def emitted(emit, *args, **kwargs):
    """The text ``emit`` writes to a stream, given the rest of its arguments."""
    buf = io.StringIO()
    emit(buf, *args, **kwargs)
    return buf.getvalue()


PARAMS = DirectingParams(0.1, 0.1, 0.1)
INIT = SimplexPoint(0.5, 0.3, 0.2)


def test_sample_config_validation():
    SampleConfig(sample_volume=1, replications=1, seed=0, steps=0)
    with pytest.raises(InvalidInputError):
        SampleConfig(sample_volume=0, replications=1, seed=0, steps=1)
    with pytest.raises(InvalidInputError):
        SampleConfig(sample_volume=10, replications=0, seed=0, steps=1)
    with pytest.raises(InvalidInputError):
        SampleConfig(sample_volume=10, replications=1, seed=-1, steps=1)
    with pytest.raises(InvalidInputError):
        SampleConfig(sample_volume=10, replications=1, seed=2**64, steps=1)
    with pytest.raises(InvalidInputError):
        SampleConfig(sample_volume=10, replications=1, seed=0, steps=-1)
    with pytest.raises(InvalidInputError):
        SampleConfig(sample_volume=10.5, replications=1, seed=0, steps=1)


# ------------------------------------------------------------ single steps

def test_stochastic_step_degenerate_target_is_exact():
    # an absorbing vertex makes the multinomial deterministic for any volume
    params = DirectingParams(-0.2, 0.5, -0.4)
    rng = replication_stream(0, 0)
    for n in (1, 7, 1000):
        out = stochastic_step(params, SimplexPoint(1.0, 0.0, 0.0), n, rng)
        assert tuple(out) == (1.0, 0.0, 0.0)


def test_stochastic_step_single_trial_is_unit_vector():
    rng = replication_stream(1, 0)
    for _ in range(50):
        out = stochastic_step(PARAMS, INIT, 1, rng)
        assert sorted(out) == [0.0, 0.0, 1.0]


def test_stochastic_step_large_volume_near_target():
    rng = replication_stream(7, 0)
    out = stochastic_step(PARAMS, INIT, 10**6, rng)
    assert tuple(out) == pytest.approx((0.45, 0.31, 0.24), abs=0.005)


def test_stochastic_step_mean_is_unbiased():
    rng = replication_stream(123, 0)
    target = np.array((0.45, 0.31, 0.24))
    draws = 10**4
    total = np.zeros(3)
    for _ in range(draws):
        total += np.asarray(tuple(stochastic_step(PARAMS, INIT, 100, rng)))
    mean = total / draws
    stderr = np.sqrt(target * (1.0 - target) / (100 * draws))
    assert np.all(np.abs(mean - target) <= 4.0 * stderr)


def test_stochastic_step_requires_positive_volume():
    with pytest.raises(InvalidInputError):
        stochastic_step(PARAMS, INIT, 0, replication_stream(0, 0))


def test_sample_volume_is_below_2_63():
    # numpy takes the volume of a multinomial draw as int64
    big = 2**63
    with pytest.raises(InvalidInputError, match=rf"^sample_volume must be < 2\*\*63, got {big}$"):
        SampleConfig(big, 1, 0, 1)
    with pytest.raises(InvalidInputError, match=rf"^sample volume must be < 2\*\*63, got {big}$"):
        stochastic_step(PARAMS, INIT, big, replication_stream(0, 0))
    assert SampleConfig(big - 1, 1, 0, 1).sample_volume == big - 1
    assert sum(stochastic_step(PARAMS, INIT, big - 1, replication_stream(0, 0))) == pytest.approx(1)


# ------------------------------------------------------------- replications

def test_replication_streams_are_independent_and_reproducible():
    a = replication_stream(42, 0).multinomial(100, (0.3, 0.3, 0.4))
    b = replication_stream(42, 1).multinomial(100, (0.3, 0.3, 0.4))
    again = replication_stream(42, 0).multinomial(100, (0.3, 0.3, 0.4))
    assert (a == again).all()
    assert not (a == b).all()


@pytest.mark.parametrize("seed, replication, message", [
    (0.5, 0, "seed must be an integer, got 0.5"),
    (0, 1.7, "replication must be an integer, got 1.7"),
    ("3", 0, "seed must be an integer, got '3'"),
    (0, "3", "replication must be an integer, got '3'"),
    (-1, 0, "seed must be a 64-bit unsigned integer, got -1"),
    (2**64, 0, f"seed must be a 64-bit unsigned integer, got {2**64}"),
    (0, -1, "replication must be a 64-bit unsigned integer, got -1"),
    (0, 2**64, f"replication must be a 64-bit unsigned integer, got {2**64}"),
])
def test_replication_stream_rejects_a_key_outside_64_bit_integers(seed, replication, message):
    # a float used to be truncated into the key, '3' parsed, and -1 or 2**64
    # escaped as a bare OverflowError
    with pytest.raises(InvalidInputError) as exc:
        replication_stream(seed, replication)
    assert str(exc.value) == message


def test_replication_stream_accepts_the_whole_key_range():
    for seed, replication in [(0, 0), (2**64 - 1, 2**64 - 1), (np.uint64(2**64 - 1), True)]:
        replication_stream(seed, replication).multinomial(10, (0.5, 0.5))
    assert (replication_stream(np.int64(5), 1).integers(0, 100, 4)
            == replication_stream(5, True).integers(0, 100, 4)).all()


def test_run_replications_zero_steps():
    cfg = SampleConfig(sample_volume=100, replications=3, seed=9, steps=0)
    for traj in run_replications(PARAMS, INIT, cfg):
        assert traj.points == ((0.5, 0.3, 0.2),)
        assert traj.counts == ()


def test_run_replications_deterministic_and_distinct():
    cfg = SampleConfig(sample_volume=1000, replications=2, seed=42, steps=10)
    first = run_replications(PARAMS, INIT, cfg)
    second = run_replications(PARAMS, INIT, cfg)
    assert first == second
    assert (emitted(write_table, "csv", REPLICATION_HEADER, replication_rows(first))
            == emitted(write_table, "csv", REPLICATION_HEADER, replication_rows(second)))
    assert first[0].counts != first[1].counts


def test_run_replications_counts_are_exact():
    cfg = SampleConfig(sample_volume=137, replications=4, seed=5, steps=20)
    for traj in run_replications(PARAMS, INIT, cfg):
        assert len(traj.counts) == 20
        for stage in traj.counts:
            assert sum(stage) == 137
            assert all(c >= 0 for c in stage)
        for point in traj.points:
            assert abs(sum(point) - 1.0) <= 1e-12


def test_run_replications_independent_of_replication_count():
    # replication r draws from the (seed, r) Philox stream only, so it is the
    # same whether the run has r + 1 replications or more
    cfg = SampleConfig(sample_volume=200, replications=6, seed=11, steps=15)
    full = run_replications(PARAMS, INIT, cfg)
    for count in (1, 2, 5):
        fewer = run_replications(PARAMS, INIT, cfg._replace(replications=count))
        assert fewer == full[:count]


@pytest.mark.parametrize("seed, other", [(2**63 + 1, 2**63 + 2), (2**64 - 1, 0)])
def test_seeds_above_2_63_key_distinct_streams(seed, other):
    # a key passed as a plain list became float64: these pairs collided
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = replication_stream(seed, 0).integers(0, 2**63, 8).tolist()
        other_draws = replication_stream(other, 0).integers(0, 2**63, 8).tolist()
        cfg = SampleConfig(sample_volume=1000, replications=1, seed=seed, steps=5)
        counts = run_replications(PARAMS, INIT, cfg)[0].counts
        other_counts = run_replications(PARAMS, INIT, cfg._replace(seed=other))[0].counts
    assert draws != other_draws
    assert counts != other_counts


# Plain loops the sampling layer must reproduce exactly: counts converted one
# numpy integer at a time, the state kept as numpy quotients, and the
# deviation taken point by point.

def reference_run_replications(params, init, cfg):
    rows = build_regression_matrix(params)
    n = cfg.sample_volume
    trajectories = []
    for r in range(cfg.replications):
        rng = replication_stream(cfg.seed, r)
        state = (init.p0, init.p1, init.p2)
        counts = []
        for _ in range(cfg.steps):
            target = _clamped_step(rows, state)
            drawn = rng.multinomial(n, target)
            counts.append((int(drawn[0]), int(drawn[1]), int(drawn[2])))
            state = (drawn[0] / n, drawn[1] / n, drawn[2] / n)
        trajectories.append(EmpiricalTrajectory(
            replication=r,
            seed=cfg.seed,
            sample_volume=n,
            init=(init.p0, init.p1, init.p2),
            counts=tuple(counts),
        ))
    return tuple(trajectories)


def reference_lln_diagnostic(params, init, volumes, cfg):
    reference = [(s.p0, s.p1, s.p2) for s in trajectory(params, init, cfg.steps, mode="clamped")]
    rows = []
    for n in volumes:
        trajs = reference_run_replications(params, init, cfg._replace(sample_volume=n))
        deviations = []
        for traj in trajs:
            worst = 0.0
            for point, ref in zip(traj.points, reference):
                for a, b in zip(point, ref):
                    gap = abs(a - b)
                    if gap > worst:
                        worst = gap
            deviations.append(worst)
        rows.append(DeviationRow(
            sample_volume=n,
            median_max_deviation=statistics.median(deviations),
            replications=cfg.replications,
        ))
    return rows


IDENTITY_CASES = {
    "attractive": (DirectingParams(0.1, 0.1, 0.1), SimplexPoint(0.5, 0.3, 0.2)),
    "repulsive": (DirectingParams(-0.2, 0.5, -0.4), SimplexPoint(0.5, 0.25, 0.25)),
    # the clamped path reaches the vertex (1, 0, 0) at step 3
    "absorbing": (DirectingParams(-0.1, 0.3, 0.2), SimplexPoint(0.5, 0.3, 0.2)),
}
IDENTITY_VOLUMES = [1, 7, 10, 10_000]


@pytest.mark.parametrize("case", IDENTITY_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n", IDENTITY_VOLUMES)
def test_run_replications_matches_reference_loop(case, seed, n):
    params, init = IDENTITY_CASES[case]
    cfg = SampleConfig(sample_volume=n, replications=3, seed=seed, steps=25)
    got = run_replications(params, init, cfg)
    expected = reference_run_replications(params, init, cfg)
    assert repr(got) == repr(expected)
    assert all(type(c) is int for traj in got for stage in traj.counts for c in stage)


@pytest.mark.parametrize("case", IDENTITY_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_lln_diagnostic_matches_reference_loop(case, seed):
    params, init = IDENTITY_CASES[case]
    cfg = SampleConfig(sample_volume=1, replications=5, seed=seed, steps=25)
    got = lln_diagnostic(params, init, IDENTITY_VOLUMES, cfg)
    expected = reference_lln_diagnostic(params, init, IDENTITY_VOLUMES, cfg)
    assert repr(got) == repr(expected)


@st.composite
def _simplex_inits(draw):
    """A vertex, or a point with every component > 0."""
    vertex = draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]))
    a, b = sorted(draw(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99))))
    interior = (a, b - a, 1.0 - b) if b - a > 0.0 and 1.0 - b > 0.0 else (0.5, 0.3, 0.2)
    return SimplexPoint(*draw(st.sampled_from([vertex, interior])))


def _outcome(diagnostic, *args):
    try:
        return repr(diagnostic(*args))
    except DegenerateClampError:
        return "DegenerateClampError"


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(params=st.builds(DirectingParams, _unit, _unit, _unit),
       init=_simplex_inits(),
       steps=st.integers(0, 30),
       volumes=st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True).map(sorted),
       replications=st.integers(1, 4),
       seed=st.integers(0, 2**64 - 1))
@example(params=DirectingParams(-0.1, 0.3, 0.2), init=SimplexPoint(0.5, 0.3, 0.2), steps=0,
         volumes=[1, 10], replications=2, seed=0)
def test_lln_diagnostic_matches_reference_loop_across_the_cube(params, init, steps, volumes,
                                                               replications, seed):
    cfg = SampleConfig(sample_volume=1, replications=replications, seed=seed, steps=steps)
    assert (_outcome(lln_diagnostic, params, init, volumes, cfg)
            == _outcome(reference_lln_diagnostic, params, init, volumes, cfg))


# ---------------------------------------------------------- LLN diagnostic

def test_lln_diagnostic_recovers_deterministic_absorbing_path():
    # at an absorbing vertex every stage target is a unit vector: zero noise
    params = DirectingParams(-0.2, 0.5, -0.4)
    init = SimplexPoint(1.0, 0.0, 0.0)
    cfg = SampleConfig(sample_volume=10, replications=5, seed=3, steps=10)
    rows = lln_diagnostic(params, init, [10, 100, 1000], cfg)
    assert [r.median_max_deviation for r in rows] == [0.0, 0.0, 0.0]


def test_lln_diagnostic_single_volume():
    cfg = SampleConfig(sample_volume=100, replications=4, seed=3, steps=5)
    rows = lln_diagnostic(PARAMS, INIT, [100], cfg)
    assert len(rows) == 1
    assert rows[0].sample_volume == 100
    assert rows[0].replications == 4


def test_lln_diagnostic_median_shrinks_with_volume():
    cfg = SampleConfig(sample_volume=100, replications=30, seed=42, steps=50)
    rows = lln_diagnostic(PARAMS, INIT, [100, 1000, 10000], cfg)
    meds = [r.median_max_deviation for r in rows]
    assert meds[0] >= meds[1] >= meds[2]
    assert meds[2] < meds[0]


def test_lln_diagnostic_matches_deterministic_reference():
    # deviations are measured against the clamped trajectory, stage 0 included
    cfg = SampleConfig(sample_volume=50, replications=3, seed=8, steps=12)
    rows = lln_diagnostic(PARAMS, INIT, [50], cfg)
    reference = trajectory(PARAMS, INIT, cfg.steps, mode="clamped")
    trajs = run_replications(PARAMS, INIT, cfg)
    expected = sorted(
        max(
            abs(a - b)
            for point, ref in zip(t.points, reference)
            for a, b in zip(point, (ref.p0, ref.p1, ref.p2))
        )
        for t in trajs
    )[1]
    assert rows[0].median_max_deviation == expected


def test_lln_diagnostic_volume_validation():
    cfg = SampleConfig(sample_volume=10, replications=2, seed=0, steps=2)
    with pytest.raises(InvalidInputError):
        lln_diagnostic(PARAMS, INIT, [], cfg)
    with pytest.raises(InvalidInputError):
        lln_diagnostic(PARAMS, INIT, [100, 100], cfg)
    with pytest.raises(InvalidInputError):
        lln_diagnostic(PARAMS, INIT, [1000, 10], cfg)
    with pytest.raises(InvalidInputError):
        lln_diagnostic(PARAMS, INIT, [0, 10], cfg)


def test_lln_diagnostic_rejects_a_bad_volume_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("replications ran before every volume was checked")

    monkeypatch.setattr(ternary_dynamics.sampling, "_replicate", fail)
    cfg = SampleConfig(sample_volume=10, replications=2, seed=0, steps=2)
    with pytest.raises(InvalidInputError, match=r"sample volume must be < 2\*\*63"):
        lln_diagnostic(PARAMS, INIT, [10, 2**63], cfg)


def test_deviation_table_serialization_round():
    cfg = SampleConfig(sample_volume=100, replications=3, seed=1, steps=5)
    rows = lln_diagnostic(PARAMS, INIT, [10, 100], cfg)
    text = emitted(write_table, "csv", DEVIATION_HEADER, rows)
    lines = text.splitlines()
    assert lines[0] == "n,median_max_deviation,replications"
    assert len(lines) == 3


# -------------------------------------------------------- worker processes
#
# A run of at least ``_POOL_MIN_STAGES`` stages in a process that may use
# several CPUs runs its replications in forked workers.  The fixtures below
# choose the path whatever the host.  ``pooled`` lowers the stage threshold
# to 0 and reports 3 CPUs, so 5 or 7 replications split into uneven chunks;
# ``_both_paths`` also reports 1 CPU for an in-process run.  Both record the
# workers that ``_pool._fork`` starts, pool by pool, so a test can tell
# whether a pool ran and how many workers it had.


def _force_pool(monkeypatch):
    monkeypatch.setattr(ternary_dynamics.sampling, "_POOL_MIN_STAGES", 0)
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 3)


@pytest.fixture
def pooled(monkeypatch):
    _force_pool(monkeypatch)
    return _recording_pools(monkeypatch)


def _both_paths(monkeypatch, call):
    """``call()`` in this process, then in a pool of forked workers.

    Returns both results and checks that exactly the second call started a
    pool, and that no worker outlives either call.
    """
    started = _recording_pools(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 1)
        alone = call()
    assert started == []
    _assert_no_child_left()
    with monkeypatch.context() as m:
        _force_pool(m)
        pooled = call()
    # one pool, of 2 workers (a run of 2 chunks) or 3 (one per reported CPU)
    assert len(started) == 1 and started[0] in (2, 3)
    _assert_no_child_left()
    return alone, pooled


@pytest.mark.parametrize("case", IDENTITY_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("steps", [0, 25])
@pytest.mark.parametrize("replications", [5, 7])
def test_run_replications_in_workers_matches_in_process_and_reference(monkeypatch, case, seed,
                                                                       steps, replications):
    params, init = IDENTITY_CASES[case]
    cfg = SampleConfig(sample_volume=10, replications=replications, seed=seed, steps=steps)
    alone, pooled = _both_paths(monkeypatch, lambda: run_replications(params, init, cfg))
    assert repr(pooled) == repr(alone) == repr(reference_run_replications(params, init, cfg))


@pytest.mark.parametrize("case", IDENTITY_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("steps", [0, 25])
@pytest.mark.parametrize("volumes, replications", [
    ([10_000], 7), ([1, 7], 1), ([1, 7], 5), (IDENTITY_VOLUMES, 7),
])
def test_lln_diagnostic_in_workers_matches_in_process_and_reference(monkeypatch, case, seed, steps,
                                                                    volumes, replications):
    params, init = IDENTITY_CASES[case]
    cfg = SampleConfig(sample_volume=1, replications=replications, seed=seed, steps=steps)
    alone, pooled = _both_paths(monkeypatch, lambda: lln_diagnostic(params, init, volumes, cfg))
    assert repr(pooled) == repr(alone) == repr(
        reference_lln_diagnostic(params, init, volumes, cfg))


def test_a_one_chunk_run_stays_in_process(pooled):
    # one replication of one volume cannot be split, whatever the CPU count
    cfg = SampleConfig(sample_volume=10, replications=1, seed=0, steps=5)
    assert run_replications(PARAMS, INIT, cfg) == reference_run_replications(PARAMS, INIT, cfg)
    assert pooled == []


def test_a_process_with_another_thread_does_not_fork(pooled):
    # a forked child would inherit the other thread's locks in whatever state they are
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        cfg = SampleConfig(sample_volume=10, replications=5, seed=0, steps=5)
        got = run_replications(PARAMS, INIT, cfg)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert pooled == []
    assert got == reference_run_replications(PARAMS, INIT, cfg)


def test_the_stage_threshold_is_measured_in_stages_of_the_whole_run(monkeypatch):
    sampling = ternary_dynamics.sampling
    monkeypatch.setattr(ternary_dynamics._pool, "_usable_cpus", lambda: 3)
    started = _recording_pools(monkeypatch)
    # 7 replications x 5 steps x 2 volumes = 70 stages
    cfg = SampleConfig(sample_volume=10, replications=7, seed=0, steps=5)
    monkeypatch.setattr(sampling, "_POOL_MIN_STAGES", 71)
    lln_diagnostic(PARAMS, INIT, [10, 100], cfg)
    assert started == []
    monkeypatch.setattr(sampling, "_POOL_MIN_STAGES", 70)
    lln_diagnostic(PARAMS, INIT, [10, 100], cfg)
    assert started == [3]
    _assert_no_child_left()


# Replications 2 and 5 of the (seed 5, n = 1000) run fail: 2 at its last step,
# after a pause, and 5 at its second.  With 3 CPUs and 7 replications they
# fall in different chunks, and replication 5's error reaches the caller first.
FAIL_CFG = SampleConfig(sample_volume=1000, replications=7, seed=5, steps=6)
FAIL_AT = {2: 6, 5: 2}
FAIL_PAUSE_S = {2: 0.3, 5: 0.0}
FAIL_MESSAGE = "replication 2, step 6: clamping removed all probability mass"


@pytest.fixture
def failing_replications(monkeypatch):
    """Make ``_clamped_step`` fail on the states that replications 2 and 5 reach.

    The failure is chosen by state, not by a count of calls, so it is the
    same in whichever process a replication runs.
    """
    trajs = reference_run_replications(PARAMS, INIT, FAIL_CFG)
    poisoned = {tuple(trajs[r].points[step - 1]): FAIL_PAUSE_S[r] for r, step in FAIL_AT.items()}
    # each poisoned state is reached by one replication only, and not before its step
    for traj in trajs:
        hits = [k + 1 for k, point in enumerate(traj.points[:-1]) if tuple(point) in poisoned]
        assert hits == ([FAIL_AT[traj.replication]] if traj.replication in FAIL_AT else [])
    real_step = ternary_dynamics.sampling._clamped_step

    def step(rows, state):
        if tuple(state) in poisoned:
            time.sleep(poisoned[tuple(state)])
            raise DegenerateClampError("clamping removed all probability mass")
        return real_step(rows, state)

    monkeypatch.setattr(ternary_dynamics.sampling, "_clamped_step", step)


@pytest.mark.usefixtures("failing_replications")
@pytest.mark.parametrize("volumes", [[1000], [1000, 10_000]])
def test_the_lowest_failing_replication_raises_in_workers_as_in_process(monkeypatch, volumes):
    def outcome():
        with pytest.raises(DegenerateClampError) as info:
            if len(volumes) == 1:
                run_replications(PARAMS, INIT, FAIL_CFG)
            else:
                lln_diagnostic(PARAMS, INIT, volumes, FAIL_CFG)
        return type(info.value), str(info.value)

    alone, pooled = _both_paths(monkeypatch, outcome)
    assert alone == pooled == (DegenerateClampError, FAIL_MESSAGE)


@pytest.mark.usefixtures("failing_replications")
@pytest.mark.parametrize("volumes", ["1000", "1000,10000"])
def test_the_cli_exits_4_with_the_same_error_from_workers(monkeypatch, capsys, volumes):
    def outcome():
        code = main(["stochastic", "--v", "0.1,0.1,0.1", "--init", "0.5,0.3,0.2",
                     "--n", volumes, "--reps", "7", "--seed", "5", "--steps", "6"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone, pooled = _both_paths(monkeypatch, outcome)
    assert alone == pooled == (4, "", f"error: {FAIL_MESSAGE}\n")


def test_no_worker_outlives_a_cli_run_into_a_closed_pipe(pooled, monkeypatch):
    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["stochastic", "--v", "0.1,0.1,0.1", "--init", "0.5,0.3,0.2", "--n", "10,100",
              "--reps", "5", "--seed", "5", "--steps", "6"])
    assert pooled == [3]
    _assert_no_child_left()
