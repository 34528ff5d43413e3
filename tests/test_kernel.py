"""The one-step kernels must equal the plain generator-expression version bit for bit.

``reference_raw_step`` and ``reference_clamped_step`` are the straightforward
form of the kernels: a generator over the rows, ``min(1.0, max(0.0, x))``
clipping and a loop over the snap coordinates.  ``_raw_step`` and
``_clamped_step`` are unrolled for speed and are compared against them
through ``repr``, which tells ``-0.0`` from ``0.0`` and shows NaN.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternary_dynamics import DegenerateClampError, DirectingParams
from ternary_dynamics.core import (
    ABSORB_EPS,
    InvalidInputError,
    _clamped_step,
    _raw_step,
    build_regression_matrix,
)

ZERO_ROWS = ((0.0, 0.0, 0.0),) * 3


def reference_raw_step(rows, p):
    x0, x1, x2 = p
    return tuple(
        x - (row[0] * x0 + row[1] * x1 + row[2] * x2) for x, row in zip(p, rows)
    )


def reference_clamped_step(rows, p):
    q = reference_raw_step(rows, p)
    clipped = tuple(min(1.0, max(0.0, x)) for x in q)
    total = clipped[0] + clipped[1] + clipped[2]
    if total <= 0.0:
        raise DegenerateClampError(
            f"clamping removed all probability mass (clipped sum {total!r})"
        )
    renormed = (clipped[0] / total, clipped[1] / total, clipped[2] / total)
    for m in range(3):
        if renormed[m] >= 1.0 - ABSORB_EPS:
            return tuple(1.0 if n == m else 0.0 for n in range(3))
    return renormed


def outcome(step, rows, p):
    """``repr`` of the result, or the type and message of a ``DegenerateClampError``."""
    try:
        return repr(step(rows, p))
    except DegenerateClampError as exc:
        return type(exc).__name__, str(exc)


def assert_kernels_match(rows, p):
    assert repr(_raw_step(rows, p)) == repr(reference_raw_step(rows, p))
    assert outcome(_clamped_step, rows, p) == outcome(reference_clamped_step, rows, p)


unit = st.floats(-1.0, 1.0)
huge = st.floats(-1e308, 1e308)
raw_component = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))


@st.composite
def simplex_points(draw):
    a, b = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    corners = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (a, 1.0 - a, 0.0))
    return draw(st.sampled_from(corners + ((a, b - a, 1.0 - b),) * 4))


@st.composite
def raw_states(draw):
    x0, x1 = draw(raw_component), draw(raw_component)
    return x0, x1, 1.0 - x0 - x1


@settings(max_examples=600, derandomize=True, deadline=None)
@given(v=st.tuples(unit, unit, unit), p=simplex_points())
def test_kernels_match_reference_over_model_cube(v, p):
    assert_kernels_match(build_regression_matrix(DirectingParams(*v)), p)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(v=st.tuples(huge, huge, huge), p=st.one_of(simplex_points(), raw_states()))
def test_kernels_match_reference_out_of_range_params(v, p):
    try:
        rows = build_regression_matrix(DirectingParams(*v, bound_check=False))
    except InvalidInputError:
        return  # 2 * v_m overflowed; such params never reach the kernel
    assert_kernels_match(rows, p)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(v=st.tuples(unit, unit, unit), p=raw_states())
def test_kernels_match_reference_off_the_simplex(v, p):
    assert_kernels_match(build_regression_matrix(DirectingParams(*v)), p)


@pytest.mark.parametrize("rows, p, raw_check", [
    # -0.0 - (0.0 * -0.0 + ...) is -0.0: the clamp must return +0.0
    (ZERO_ROWS, (-0.0, 0.5, 0.5), lambda q: math.copysign(1.0, q[0]) < 0.0 and q[0] == 0.0),
    # inf + (-inf) inside the dot product makes NaN, which clamps to 0.0
    (build_regression_matrix(DirectingParams(8e307, 8e307, 0.0, bound_check=False)),
     (2.0, 3.0, -4.0), lambda q: math.isnan(q[0])),
    # +inf clamps to 1.0
    (((-1e308, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), (10.0, 0.5, -9.5),
     lambda q: q[0] == math.inf),
    # -inf clamps to 0.0, which leaves a unit vector to snap to
    (((1e308, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), (10.0, 0.5, -9.5),
     lambda q: q[0] == -math.inf),
])
def test_kernels_match_reference_on_special_linear_results(rows, p, raw_check):
    assert raw_check(_raw_step(rows, p))
    assert_kernels_match(rows, p)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("top", [1.0, 1.0 - ABSORB_EPS / 2, 1.0 - ABSORB_EPS, 1.0 - 2 * ABSORB_EPS])
def test_clamped_step_snaps_each_coordinate(m, top):
    p = [0.0, 0.0, 0.0]
    p[m] = top
    p[(m + 1) % 3] = 1.0 - top
    result = _clamped_step(ZERO_ROWS, tuple(p))
    assert repr(result) == repr(reference_clamped_step(ZERO_ROWS, tuple(p)))
    snapped = result[m] == 1.0
    assert snapped == (top / (top + (1.0 - top)) >= 1.0 - ABSORB_EPS)
    if snapped:
        assert result == tuple(1.0 if n == m else 0.0 for n in range(3))


@pytest.mark.parametrize("p", [(-1.0, -1.0, -1.0), (-0.0, -0.0, -0.0), (math.nan, -2.0, -math.inf)])
def test_clamped_step_degenerate_error_type_and_message(p):
    with pytest.raises(DegenerateClampError) as exc:
        _clamped_step(ZERO_ROWS, p)
    assert str(exc.value) == "clamping removed all probability mass (clipped sum 0.0)"
    assert outcome(_clamped_step, ZERO_ROWS, p) == outcome(reference_clamped_step, ZERO_ROWS, p)
