"""``estimate_limit`` must equal plain stepping bit for bit.

The exact-cycle shortcut in ``estimate_limit`` may skip steps but never
change a result: every field of the returned ``LimitEstimate`` (checked
through ``repr``) and every ``DegenerateClampError`` must match a plain
loop over the same clamped step.
"""

import importlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternary_dynamics import DegenerateClampError, DirectingParams, SimplexPoint, estimate_limit
from ternary_dynamics.core import _clamped_step, build_regression_matrix

CLASSIFY = importlib.import_module("ternary_dynamics.classify")
REFERENCE_INIT = SimplexPoint(0.5, 0.3, 0.2)
PERIOD_4_CELLS = [(0.18, 0.9, 0.54), (0.9, 0.36, 0.54)]  # locked in after ~35 steps
SLOW_PERIOD_2_CELLS = [(0.72, 0.72, 0.9), (0.9, 0.72, 0.72)]  # after ~2,900 steps


def plain_estimate(params, init, coordinate, tol, max_steps, window):
    rows = build_regression_matrix(params)
    state = (init.p0, init.p1, init.p2)
    quiet = 0
    delta = float("inf")
    for k in range(1, max_steps + 1):
        nxt = _clamped_step(rows, state)
        delta = max(abs(nxt[0] - state[0]), abs(nxt[1] - state[1]), abs(nxt[2] - state[2]))
        state = nxt
        if delta == 0.0:
            return state[coordinate], True, k, delta
        quiet = quiet + 1 if delta <= tol else 0
        if quiet >= window:
            return state[coordinate], True, k, delta
    return state[coordinate], False, max_steps, delta


def outcomes(v, init, coordinate, tol, max_steps, window):
    """``((fields, steps taken), fields)`` of ``estimate_limit`` and of the plain loop.

    Fields are the ``repr`` of the four ``LimitEstimate`` fields, or the
    name of the ``DegenerateClampError`` raised.
    """
    params = DirectingParams(*v)
    steps = 0

    def counted_step(rows, p):
        nonlocal steps
        steps += 1
        return _clamped_step(rows, p)

    try:
        with mock.patch.object(CLASSIFY, "_clamped_step", counted_step):
            est = estimate_limit(params, init, coordinate, tol=tol, max_steps=max_steps,
                                 window=window)
        fast = tuple(map(repr, (est.value, est.converged, est.steps_used, est.terminal_delta)))
    except DegenerateClampError:
        fast = "DegenerateClampError"
    try:
        plain = tuple(map(repr, plain_estimate(params, init, coordinate, tol, max_steps,
                                               window)))
    except DegenerateClampError:
        plain = "DegenerateClampError"
    return (fast, steps), plain


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
    coordinate=st.integers(0, 2),
    max_steps=st.integers(1, 3000),
    tol=st.one_of(st.sampled_from([1e-10, 1e-6, 0.05, 0.3, 0.5]), st.floats(1e-12, 1.0)),
    window=st.integers(1, 20),
)
def test_estimate_limit_matches_plain_stepping(v, init, coordinate, max_steps, tol, window):
    (fast, steps), plain = outcomes(v, init, coordinate, tol, max_steps, window)
    assert fast == plain
    assert steps <= max_steps


NEAR_FIRST_SIGHTING = (
    [(cell, n) for cell in PERIOD_4_CELLS for n in (66, 67, 68, 69, 70, 71, 1001, 1002)]
    + [(cell, n) for cell in SLOW_PERIOD_2_CELLS for n in (4096, 4097, 4098, 4099)]
)


@pytest.mark.parametrize("cell, max_steps", NEAR_FIRST_SIGHTING)
def test_cycle_found_at_or_near_max_steps(cell, max_steps):
    (fast, steps), plain = outcomes(cell, REFERENCE_INIT, 0, 1e-10, max_steps, 10)
    assert fast == plain
    assert plain[1:3] == ("False", repr(max_steps))
    # Brent first sees the cycle at step 67 (period 4) or 4097 (period 2), then
    # steps only as far as the phase of max_steps within the cycle
    first_seen, period = (67, 4) if cell in PERIOD_4_CELLS else (4097, 2)
    assert steps == min(max_steps, first_seen + (max_steps - first_seen) % period)


@pytest.mark.parametrize("cell, tol, window, converged", [
    # every step of this orbit moves by ~0.305 <= tol: quiet keeps counting
    # through the cycle and convergence comes after the cycle is first seen
    (PERIOD_4_CELLS[0], 0.35, 100, "True"),
    # two of the four steps of this orbit move by exactly tol, two by one ulp more
    (PERIOD_4_CELLS[1], 0.4450513303740332, 50, "False"),
])
def test_cycle_with_sub_tol_step_is_not_skipped(cell, tol, window, converged):
    (fast, steps), plain = outcomes(cell, REFERENCE_INIT, 0, tol, 2500, window)
    assert fast == plain
    assert plain[1] == converged
    assert steps == int(plain[2])
