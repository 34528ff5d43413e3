"""Helpers shared by test modules.

The worker-process checks serve ``test_workers.py`` and ``test_sampling.py``;
``interior_starts`` serves the hypothesis tests of ``test_core.py`` and
``test_classify.py``.
"""

import os

import pytest
from hypothesis import strategies as st

import ternary_dynamics._pool
from ternary_dynamics import SimplexPoint

# Simplex points with every component positive.
interior_starts = st.tuples(*[st.floats(1e-9, 1.0)] * 3).map(
    lambda w: SimplexPoint(*(x / sum(w) for x in w)))


def _recording_pools(monkeypatch):
    """A list that gets, for each pool started, the number of workers it forked."""
    pools = []
    real = ternary_dynamics._pool._fork

    def fork(fn, workers):
        if not workers:  # the first worker of a pool
            pools.append(0)
        pools[-1] += 1
        return real(fn, workers)

    monkeypatch.setattr(ternary_dynamics._pool, "_fork", fork)
    return pools


def _assert_no_child_left():
    # no child process at all, running or waiting to be reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
