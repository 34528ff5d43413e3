"""Finite-sample layer: multinomial resampling of the clamped dynamics.

Each stochastic stage first moves to the deterministic clamped target and
then replaces it by the empirical frequencies of ``n`` independent
category draws, so the expected next state equals the deterministic one
and the noise shrinks like ``n**-0.5``.  Replication ``r`` of a run draws
from the counter-based Philox stream keyed by ``(seed, r)``, which makes
runs bit-reproducible and replications independent without any shared
generator state.  At volume ``n`` a stage's target depends only on the
previous stage's counts, one of ``(n+1)(n+2)/2`` lattice states, so the
replications of one task share a map from counts to target that stops
storing at ``_TARGETS_MAX`` entries; a stored target is the same doubles.

Because replication ``r`` depends on nothing but ``(seed, r)``, a large
run splits each volume's replications into contiguous chunks, one per CPU
the process may use (:func:`._pool.workers_for`).  The calling process runs
the first chunk itself and forked workers run the rest, one worker per
chunk after the first at most (:func:`._pool.ordered_map`).  The output is
the same bits for any CPU count, and there is no option for it: a process
that may use one CPU or runs other threads, or a run too small to pay for
starting the workers, runs every replication in the calling process.

numpy is needed only here, and is imported by a run or by
:func:`replication_stream`, not with the package: ``import
ternary_dynamics`` and the deterministic commands never load it.  A run
imports ``numpy.random`` before any fork (:mod:`._pool`), so numpy is
imported once, not once in every worker.
"""

from collections import namedtuple
from functools import partial
from itertools import chain, repeat
from operator import sub, truediv
from typing import NamedTuple

from . import _pool
from .core import (
    InvalidInputError,
    ModelError,
    SimplexPoint,
    _clamped_step,
    _count,
    _Validated,
    build_regression_matrix,
    step_clamped,
    trajectory,
)


def _sample_volume(n):
    """``n`` as an int in ``[1, 2**63)``: numpy draws take the volume as int64."""
    n = _count(n, "sample volume")
    if n < 1:
        raise InvalidInputError(f"sample volume must be >= 1, got {n}")
    if n >= 2**63:
        raise InvalidInputError(f"sample volume must be < 2**63, got {n}")
    return n


def _key_word(value, what):
    """``value`` as an int in ``[0, 2**64)``: one ``uint64`` word of a Philox key."""
    value = _count(value, what)
    if not 0 <= value < 2**64:
        raise InvalidInputError(f"{what} must be a 64-bit unsigned integer, got {value}")
    return value


class SampleConfig(_Validated, namedtuple("SampleConfig", "replications seed steps")):
    """Settings for stochastic replication runs; the sample volume is an argument of each run."""

    __slots__ = ()

    def __new__(cls, replications, seed, steps):
        self = tuple.__new__(cls, map(_count, (replications, seed, steps), cls._fields))
        if self.replications < 1:
            raise InvalidInputError(f"replications must be >= 1, got {self.replications}")
        if self.steps < 0:
            raise InvalidInputError(f"steps must be >= 0, got {self.steps}")
        _key_word(self.seed, "seed")
        return self


class EmpiricalTrajectory(NamedTuple):
    """Frequencies observed along one stochastic replication.

    Stage 0 is the exact initial point; every later stage is integer draw
    counts over the sample volume.
    """

    replication: int
    seed: int
    sample_volume: int
    init: tuple
    counts: tuple

    @property
    def points(self):
        """Frequency triples for stages 0..steps."""
        n = self.sample_volume
        return (self.init,) + tuple((c0 / n, c1 / n, c2 / n) for c0, c1, c2 in self.counts)


def replication_stream(seed, replication):
    """Independent generator for one replication, keyed by (seed, replication).

    Both must be integers in ``[0, 2**64)``.  The key is built as
    ``uint64``: a plain list would become float64 for seeds >= 2**63 and
    lose their low bits.
    """
    seed = _key_word(seed, "seed")
    replication = _key_word(replication, "replication")
    import numpy as np

    key = np.array([seed, replication], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stochastic_step(params, freq, n, rng):
    """One stochastic stage: clamped target, then empirical frequencies of n draws."""
    n = _sample_volume(n)
    c0, c1, c2 = rng.multinomial(n, step_clamped(params, freq)).tolist()
    return tuple.__new__(SimplexPoint, (c0 / n, c1 / n, c2 / n))


# Entries a task's target map holds: past this it stops storing.  An entry (a
# counts tuple and a 3-element float64 array) is ~320 bytes under tracemalloc,
# so 4,096 entries are ~1.3 MB, under 5% of the ~35 MiB peak RSS of the LLN
# table at n = 10..10^4 (400 replications x 200 steps, two 200-replication
# tasks a volume).  There an unbounded map reached 28,394 entries (~9 MB) at
# n = 10^4; this one serves 99.8 / 97 / 62 / 8% of stages at n = 10 / 100 /
# 10^3 / 10^4.
_TARGETS_MAX = 4096


def _replicate(rows, init, n, seed, r, steps, targets):
    """Draw counts of replication ``r``: one triple of ints summing to ``n`` per step.

    ``targets`` is the task's map from a stage's counts (``None`` for
    ``init``) to the next stage's clamped target, stored as the float64
    array the draw would convert it to.  The target is a function of the
    counts alone, so a stored one gives the same doubles, and the same
    draws, as computing it again.  A failing target raises before it is
    stored; once the map is full, a target not in it is drawn from as
    computed.
    """
    from numpy import array

    draw = replication_stream(seed, r).multinomial
    counts = []
    drawn = None
    for k in range(steps):
        pvals = targets.get(drawn)
        if pvals is None:
            state = init if drawn is None else (drawn[0] / n, drawn[1] / n, drawn[2] / n)
            try:
                pvals = _clamped_step(rows, state)
            except ModelError as exc:
                raise type(exc)(f"replication {r}, step {k + 1}: {exc}") from exc
            if len(targets) < _TARGETS_MAX:
                pvals = targets[drawn] = array(pvals)
        drawn = tuple(draw(n, pvals).tolist())
        counts.append(drawn)
    return counts


def _run_chunk(rows, init, seed, steps, ref, task):
    """Results of replications ``start``..``stop - 1`` at volume ``n``, in order.

    ``task`` is ``(n, start, stop)``; the arguments before it are the run's,
    the same for every task.  The task's replications share one map of
    clamped targets (:func:`_replicate`).  A replication's result is its
    counts.  Given the flattened clamped path ``ref`` (stages 1..steps), it
    is only the replication's largest gap to that path, so the counts are
    dropped where they were drawn.
    """
    n, start, stop = task
    targets = {}
    results = []
    for r in range(start, stop):
        counts = _replicate(rows, init, n, seed, r, steps, targets)
        # Stage 0 is ``init`` on both paths, a gap of 0.0: the ``default`` of ``max``.
        results.append(counts if ref is None else max(
            map(abs, map(sub, map(truediv, chain.from_iterable(counts), repeat(n)), ref)),
            default=0.0))
    return results


# A run of fewer stages (replications x steps, summed over volumes) stays in
# the calling process.  On a 2-vCPU host, starting two forked workers, one
# round trip of 4 tasks and stopping them took ~11 ms, ~3.5 ms of it the
# import of pickle.  A fresh-interpreter ``stochastic`` call over three
# volumes and 100 steps (alternating pairs, in-process -> pooled medians,
# numpy's import included) broke even at 5,100 and 9,900 stages (7 of 11
# pairs won each), and won at 12,000 (218 -> 198 ms, 16 of 21) and 15,000
# (234 -> 214 ms, 19 of 21).
_POOL_MIN_STAGES = 15_000


def _map_replications(rows, init, volumes, cfg, ref=None):
    """Per volume, the :func:`_run_chunk` result of every replication, in replication order.

    A run of at least ``_POOL_MIN_STAGES`` stages, when
    :func:`._pool.workers_for` allows it, splits each volume's replications
    into contiguous chunks, one per CPU; this process runs the first chunk
    and forked workers the rest.  Any other run goes in this process, a
    volume at a time.  Either way the first error in replication order is
    raised with its type and message, and no worker is left when this
    returns.  A task is ``(n, start, stop)``: the rest of
    :func:`_run_chunk`'s arguments are bound once, and reach the workers
    with the fork.
    """
    reps, steps, seed = cfg.replications, cfg.steps, cfg.seed
    workers = _pool.workers_for(reps * steps * len(volumes), _POOL_MIN_STAGES)
    # one chunk a CPU, or the whole volume in this process; no chunk is empty
    parts = min(max(workers, 1), reps)
    tasks = [(n, reps * i // parts, reps * (i + 1) // parts) for n in volumes for i in range(parts)]
    import numpy.random  # before a fork, once for every worker
    with _pool.ordered_map(partial(_run_chunk, rows, init, seed, steps, ref), tasks,
                           workers) as results:
        chunks = list(results)
    return [list(chain.from_iterable(chunks[i:i + parts])) for i in range(0, len(chunks), parts)]


def run_replications(params, init, n, cfg):
    """Independent stochastic trajectories at sample volume ``n``, one per replication.

    Identical ``(params, init, n, cfg)`` reproduce bit-identical output, and
    replication ``r`` depends only on ``(seed, r)``: not on how many
    replications run, nor on how many CPUs run them.  A failing step is
    re-raised with its replication and step attached.
    """
    n = _sample_volume(n)
    init = SimplexPoint.of(init)
    [counts] = _map_replications(build_regression_matrix(params), init, [n], cfg)
    return tuple(
        EmpiricalTrajectory(replication=r, seed=cfg.seed, sample_volume=n, init=tuple(init),
                            counts=tuple(c))
        for r, c in enumerate(counts)
    )


class DeviationRow(NamedTuple):
    """Median worst-case gap between stochastic and deterministic paths at one volume."""

    sample_volume: int
    median_max_deviation: float
    replications: int


def lln_diagnostic(params, init, volumes, cfg):
    """Deviation table over increasing sample volumes.

    For each volume the deviation of a replication is the maximum over all
    stages and components of the absolute gap to the deterministic clamped
    trajectory; the table reports the median across replications.  Each
    replication is reduced to its deviation where it runs, so no volume's
    counts are ever held at once.
    """
    import statistics

    volumes = [_sample_volume(n) for n in volumes]
    if not volumes:
        raise InvalidInputError("volumes must be nonempty")
    if any(b <= a for a, b in zip(volumes, volumes[1:])):
        raise InvalidInputError(f"volumes must be strictly increasing, got {volumes}")
    ref = list(chain.from_iterable(trajectory(params, init, cfg.steps, mode="clamped")[1:]))
    deviations = _map_replications(build_regression_matrix(params), SimplexPoint.of(init),
                                   volumes, cfg, ref)
    return [
        DeviationRow(sample_volume=n, median_max_deviation=statistics.median(d),
                     replications=cfg.replications)
        for n, d in zip(volumes, deviations)
    ]
