"""``estimate_limit`` must equal plain stepping bit for bit.

The exact-cycle shortcut in ``estimate_limit`` may skip steps but never
change a result: every field of the returned ``LimitEstimate`` (checked
through ``repr``) and every ``DegenerateClampError`` must match a plain
loop over the same clamped step, whatever the spacing of its cycle
checkpoints (``_CYCLE_SPAN``) is.  The spacing only decides how soon a cycle
is seen, and so how many clamped steps are taken; those counts are pinned here.
"""

import functools
import importlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternary_dynamics import (DegenerateClampError, DirectingParams, SimplexPoint, estimate_limit,
                              sweep)
from ternary_dynamics.cli import _axis
from ternary_dynamics.core import _clamped_step, build_regression_matrix

CLASSIFY = importlib.import_module("ternary_dynamics.classify")
REFERENCE_INIT = SimplexPoint(0.5, 0.3, 0.2)
PERIOD_4_CELLS = [(0.18, 0.9, 0.54), (0.9, 0.36, 0.54)]  # locked in after ~35 steps
SLOW_PERIOD_2_CELLS = [(0.72, 0.72, 0.9), (0.9, 0.72, 0.72)]  # after ~2,900 steps


def plain_estimate(params, init, tol, max_steps):
    rows = build_regression_matrix(params)
    state = (init.p0, init.p1, init.p2)
    quiet = 0
    delta = float("inf")
    for k in range(1, max_steps + 1):
        nxt = _clamped_step(rows, state)
        delta = max(abs(nxt[0] - state[0]), abs(nxt[1] - state[1]), abs(nxt[2] - state[2]))
        state = nxt
        if delta == 0.0:
            return state, True, k, delta
        quiet = quiet + 1 if delta <= tol else 0
        if quiet >= 10:
            return state, True, k, delta
    return state, False, max_steps, delta


class StepCounter:
    """``_clamped_step`` that counts its calls, to patch into ``classify``."""

    def __init__(self):
        self.steps = 0

    def __call__(self, rows, p):
        self.steps += 1
        return _clamped_step(rows, p)


def outcomes(v, init, tol, max_steps):
    """``((fields, steps taken), fields)`` of ``estimate_limit`` and of the plain loop.

    Fields are the ``repr`` of the four ``LimitEstimate`` fields, or the
    name of the ``DegenerateClampError`` raised.
    """
    params = DirectingParams(*v)
    counter = StepCounter()
    try:
        with mock.patch.object(CLASSIFY, "_clamped_step", counter):
            est = estimate_limit(params, init, tol, max_steps)
        fast = tuple(map(repr, (tuple(est.state), est.converged, est.steps_used,
                                est.terminal_delta)))
    except DegenerateClampError:
        fast = "DegenerateClampError"
    try:
        plain = tuple(map(repr, plain_estimate(params, init, tol, max_steps)))
    except DegenerateClampError:
        plain = "DegenerateClampError"
    return (fast, counter.steps), plain


# Grid values reach the exact cycles of the reference grids; free floats
# cover the rest of the |v_m| <= 1 cube.
component = st.one_of(
    st.sampled_from([round(-0.9 + 0.09 * i, 2) for i in range(21)]),
    st.floats(-1.0, 1.0, allow_nan=False),
)


@st.composite
def interior_points(draw):
    a = draw(st.floats(0.01, 0.98))
    b = draw(st.floats(0.01, 0.99))
    p1 = (1.0 - a) * b
    return SimplexPoint(a, p1, 1.0 - a - p1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    v=st.tuples(component, component, component),
    init=st.one_of(st.just(REFERENCE_INIT), interior_points()),
    max_steps=st.integers(1, 3000),
    tol=st.one_of(st.sampled_from([1e-10, 1e-6, 0.05, 0.3, 0.5]), st.floats(1e-12, 1.0)),
)
def test_estimate_limit_matches_plain_stepping(v, init, max_steps, tol):
    (fast, steps), plain = outcomes(v, init, tol, max_steps)
    assert fast == plain
    assert steps <= max_steps


@pytest.mark.parametrize("span", [1, 2, 16, 2**62])
@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    v=st.tuples(component, component, component),
    init=st.one_of(st.just(REFERENCE_INIT), interior_points()),
    max_steps=st.integers(1, 3000),
    tol=st.one_of(st.sampled_from([1e-10, 1e-6, 0.05, 0.3, 0.5]), st.floats(1e-12, 1.0)),
)
def test_cycle_span_changes_only_speed(span, v, init, max_steps, tol):
    # span 1 never sees a cycle, 2 sees only period 2, and 2**62 keeps only the start
    with mock.patch.object(CLASSIFY, "_CYCLE_SPAN", span):
        (fast, steps), plain = outcomes(v, init, tol, max_steps)
    assert fast == plain
    assert steps <= max_steps


@functools.cache
def first_repeat(cell, init=REFERENCE_INIT):
    """``(step, period)`` of the first state of the plain orbit from ``init`` seen before."""
    rows = build_regression_matrix(DirectingParams(*cell))
    state = (init.p0, init.p1, init.p2)
    seen = {state: 0}
    for k in itertools.count(1):
        state = _clamped_step(rows, state)
        if state in seen:
            return k, k - seen[state]
        seen[state] = k


# The step at which estimate_limit first sees each cell's cycle from REFERENCE_INIT
SIGHTING = dict(zip(PERIOD_4_CELLS + SLOW_PERIOD_2_CELLS, (51, 51, 2945, 2865)))
NEAR_FIRST_SIGHTING = (
    [(cell, n) for cell in PERIOD_4_CELLS
     for n in (50, 51, 52, 53, 66, 67, 68, 69, 70, 71, 1001, 1002)]
    + [(cell, n) for cell in SLOW_PERIOD_2_CELLS
       for n in (2864, 2865, 2866, 2867, 2944, 2945, 2946, 2947, 4096, 4097, 4098, 4099)]
)


@pytest.mark.parametrize("cell, max_steps", NEAR_FIRST_SIGHTING)
def test_cycle_found_at_or_near_max_steps(cell, max_steps):
    (fast, steps), plain = outcomes(cell, REFERENCE_INIT, 1e-10, max_steps)
    assert fast == plain
    assert plain[1:3] == ("False", repr(max_steps))
    # A checkpoint every _CYCLE_SPAN steps sees the cycle at most _CYCLE_SPAN + period
    # steps after the orbit first repeats a state, then steps only as far as the phase
    # of max_steps within the cycle
    repeat, period = first_repeat(cell)
    assert period == (4 if cell in PERIOD_4_CELLS else 2)
    sighted = SIGHTING[cell]
    assert repeat <= sighted <= repeat + CLASSIFY._CYCLE_SPAN + period
    assert steps == min(max_steps, sighted + (max_steps - sighted) % period)


# The orbit first repeats at step 9, with period 2, before the first checkpoint after the
# start (which is off the cycle): the checkpoint at step 15 sees it at step 17.
EARLY_CYCLE = (0.83, 0.33, 0.72)
EARLY_CYCLE_INIT = SimplexPoint(0.58, 0.42, 0.0)


@pytest.mark.parametrize("max_steps, value, steps", [
    (10_000, "0.49761633352310125", 18),
    (10_001, "0.0", 17),
])
def test_cycle_that_repeats_before_the_first_checkpoint(max_steps, value, steps):
    (fast, taken), plain = outcomes(EARLY_CYCLE, EARLY_CYCLE_INIT, 1e-10, max_steps)
    assert fast == plain
    assert plain[0].startswith(f"({value}, ")  # the terminal state's p0
    assert plain[1:] == ("False", repr(max_steps), "0.4978394705457506")
    repeat, period = first_repeat(EARLY_CYCLE, EARLY_CYCLE_INIT)
    assert (repeat, period) == (9, 2)
    sighted = 17
    assert repeat <= sighted <= repeat + CLASSIFY._CYCLE_SPAN + period
    assert taken == steps == sighted + (max_steps - sighted) % period


@pytest.mark.parametrize("axis, steps", [
    ("-0.9:0.9:0.18", 26826),  # the benchmark's 11^3 grid
    ("-0.9:0.9:0.09", 178319),  # ROADMAP's 21^3 grid
])
def test_sweep_clamped_step_count(axis, steps):
    values = _axis(axis)
    counter = StepCounter()
    with mock.patch.object(CLASSIFY, "_clamped_step", counter):
        sweep(itertools.product(values, values, values), 0, REFERENCE_INIT, simulate=True)
    assert counter.steps == steps


@pytest.mark.parametrize("cell", SLOW_PERIOD_2_CELLS)
def test_slow_cycle_steps_do_not_grow_with_max_steps(cell):
    counter = StepCounter()
    with mock.patch.object(CLASSIFY, "_clamped_step", counter):
        est = estimate_limit(DirectingParams(*cell), REFERENCE_INIT, max_steps=10**9)
    assert (est.converged, est.steps_used) == (False, 10**9)
    assert counter.steps <= 2950


@pytest.mark.parametrize("cell, tol, converged", [
    # the quiet run starts at step 25 and keeps counting through the period-2
    # cycle sighted at step 33: it converges at step 34, not at a skip to 2,500
    ((0.41, 0.72, 0.95), 0.5505158308881404, "True"),
    # two of the four steps of this orbit move by exactly tol, two by one ulp more
    ((0.09, 0.81, 0.54), 0.1845791683196646, "False"),
])
def test_cycle_with_sub_tol_step_is_not_skipped(cell, tol, converged):
    (fast, steps), plain = outcomes(cell, REFERENCE_INIT, tol, 2500)
    assert fast == plain
    assert plain[1] == converged
    assert steps == int(plain[2])
