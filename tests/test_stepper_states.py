"""The states the steppers build without the value-type checks.

The kernel reads the parameters as floats, and ``trajectory(mode="clamped")``,
``step_clamped`` and ``stochastic_step`` build their ``SimplexPoint`` results
without ``SimplexPoint``'s checks.  A parameter triple of another number type
must therefore step exactly like its float values, and every state those
steppers return must pass the checks it skipped.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternary_dynamics import (
    DegenerateClampError,
    DirectingParams,
    ModelError,
    SampleConfig,
    SimplexPoint,
    estimate_limit,
    replication_stream,
    run_replications,
    step_clamped,
    step_raw,
    stochastic_step,
    trajectory,
)

INIT = SimplexPoint(0.5, 0.3, 0.2)
FLOAT_CELLS = [(0.1, 0.2, 0.3), (-0.2, 0.5, -0.4), (0.1, 0.1, 0.1), (-0.1, 0.3, 0.2)]
OTHER_TYPES = {
    "int": [(1, 0, 0), (1, -1, 1), (0, 1, 1), (-1, 1, 0)],
    "Fraction": [tuple(map(Fraction, map(str, v))) for v in FLOAT_CELLS],
    "float64": [tuple(map(np.float64, v)) for v in FLOAT_CELLS],
    "float32": [tuple(map(np.float32, v)) for v in FLOAT_CELLS],
}
CASES = [pytest.param(v, id=f"{name}-{i}")
         for name, cells in OTHER_TYPES.items() for i, v in enumerate(cells)]
CALLS = {
    "trajectory_raw": lambda v: trajectory(v, INIT, 60, mode="raw"),
    "trajectory_clamped": lambda v: trajectory(v, INIT, 60, mode="clamped"),
    "step_raw": lambda v: step_raw(v, INIT),
    "step_clamped": lambda v: step_clamped(v, INIT),
    "stochastic_step": lambda v: stochastic_step(v, INIT, 1000, replication_stream(0, 0)),
    "estimate_limit": lambda v: estimate_limit(v, INIT),
    "run_replications": lambda v: run_replications(v, INIT, SampleConfig(100, 2, 0, 20)),
}


def outcome(call, params):
    """``repr`` of the result, or the type and message of the ``ModelError`` raised."""
    try:
        return repr(call(params))
    except ModelError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("call", CALLS.values(), ids=list(CALLS))
@pytest.mark.parametrize("params", CASES)
def test_other_number_types_step_like_their_float_values(call, params):
    assert outcome(call, params) == outcome(call, tuple(map(float, params)))


def assert_passes_the_checks(state):
    assert type(state) is SimplexPoint
    assert all(type(p) is float for p in state)
    checked = SimplexPoint(*state)
    assert checked == state
    assert repr(checked) == repr(state)


@st.composite
def starts(draw):
    """A point inside the simplex, on an edge or at a vertex, in any coordinate order."""
    a, b = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    point = draw(st.sampled_from([(a, b - a, 1.0 - b), (a, 1.0 - a, 0.0), (1.0, 0.0, 0.0)]))
    return SimplexPoint(*draw(st.permutations(point)))


unit = st.floats(-1.0, 1.0)
# 2 * v_m stays finite up to 8e307, but the dot products of the kernel may overflow
wide = st.one_of(st.floats(-10.0, 10.0), st.floats(-8e307, 8e307))
params = st.one_of(
    st.builds(DirectingParams, unit, unit, unit),
    st.tuples(wide, wide, wide).map(lambda v: DirectingParams(*v, bound_check=False)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(params=params, init=starts(), steps=st.integers(1, 30))
def test_unchecked_states_pass_the_simplex_point_checks(params, init, steps):
    try:
        states = trajectory(params, init, steps, mode="clamped")
    except DegenerateClampError:
        states = []
    for state in states:
        assert_passes_the_checks(state)
    rng = replication_stream(0, 0)
    state = init
    for _ in range(steps):
        try:
            nxt = step_clamped(params, state)
        except DegenerateClampError:
            break
        assert_passes_the_checks(nxt)
        for n in (1, 10, 10**6):
            assert_passes_the_checks(stochastic_step(params, state, n, rng))
        state = nxt
