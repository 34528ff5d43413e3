"""Helpers shared by the worker-process tests of ``test_workers.py`` and ``test_sampling.py``."""

import os

import pytest

import ternary_dynamics._pool


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
