import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ternary_dynamics import (
    DegenerateClampError,
    DirectingParams,
    Equilibrium,
    FluctuationVector,
    InvalidInputError,
    NoEquilibriumError,
    RawState,
    SampleConfig,
    SimplexPoint,
    build_regression_matrix,
    classify,
    compute_equilibrium,
    contraction_factor,
    estimate_limit,
    lln_diagnostic,
    reduced_matrix,
    replication_stream,
    run_replications,
    step_clamped,
    step_raw,
    stochastic_step,
    to_fluctuation,
    trajectory,
)
from ternary_dynamics.core import _clamped_step

from conftest import interior_starts


def random_simplex(rng):
    p = rng.uniform(0.0, 1.0, size=3)
    p = p / p.sum()
    return RawState(p[0], p[1], p[2])


# ---------------------------------------------------------------- parameters

def test_params_reject_out_of_range():
    with pytest.raises(InvalidInputError):
        DirectingParams(2.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        DirectingParams(0.0, -1.5, 0.0)


def test_params_bound_bypass_flag():
    params = DirectingParams(2.0, 1.0, 1.0, bound_check=False)
    assert not params.in_model_range
    assert DirectingParams(1.0, -1.0, 0.5).in_model_range


def test_params_reject_nonfinite():
    with pytest.raises(InvalidInputError):
        DirectingParams(float("nan"), 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        DirectingParams(float("inf"), 0.0, 0.0, bound_check=False)


# ------------------------------------------------------------- state types

def test_simplex_point_validation():
    SimplexPoint(0.5, 0.3, 0.2)
    with pytest.raises(InvalidInputError):
        SimplexPoint(0.5, 0.3, 0.3)
    with pytest.raises(InvalidInputError):
        SimplexPoint(-0.1, 0.6, 0.5)
    with pytest.raises(InvalidInputError):
        SimplexPoint(1.2, -0.1, -0.1)


def test_raw_state_allows_out_of_range_components():
    state = RawState(1.5, -0.25, -0.25)
    assert tuple(state) == (1.5, -0.25, -0.25)
    with pytest.raises(InvalidInputError):
        RawState(0.5, 0.3, 0.3)


def test_raw_state_balance_tolerance_scales_with_magnitude():
    # integers up to 2**53 are exact, so this large state sums to 1 exactly
    RawState(2e6, -1e6, -999999.0)
    with pytest.raises(InvalidInputError):
        RawState(2e6, -1e6, -999999.5)


def test_fluctuation_vector_balance():
    FluctuationVector(0.2, -0.1, -0.1)
    with pytest.raises(InvalidInputError):
        FluctuationVector(0.2, 0.1, 0.1)


TRIPLES = [
    (SimplexPoint, (0.5, 0.3, 0.2)),
    (RawState, (1.5, -0.25, -0.25)),
    (FluctuationVector, (0.2, -0.1, -0.1)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, values", TRIPLES)
def test_triples_reject_nonfinite(cls, values, bad):
    for i in range(3):
        components = list(values)
        components[i] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            cls(*components)


@pytest.mark.parametrize("cls, values", TRIPLES)
def test_triple_of_keeps_instance_and_builds_from_components(cls, values):
    x = cls(*values)
    assert cls.of(x) is x
    assert tuple(x) == values
    assert cls.of(list(values)) == x


def test_simplex_point_of_rejects_raw_state_off_the_simplex():
    with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
        SimplexPoint.of(RawState(1.5, -0.25, -0.25))


# -------------------------------------------------------- regression matrix

def column_sums(rows):
    return tuple(rows[0][n] + rows[1][n] + rows[2][n] for n in range(3))


def matrix_vector(rows, vec):
    """M·p with each row evaluated left to right."""
    x0, x1, x2 = vec
    return tuple(row[0] * x0 + row[1] * x1 + row[2] * x2 for row in rows)


def test_matrix_all_zero_params():
    rows = build_regression_matrix(DirectingParams(0.0, 0.0, 0.0))
    assert rows == ((0.0, 0.0, 0.0),) * 3


def test_matrix_symmetric_unit_params():
    rows = build_regression_matrix(DirectingParams(1.0, 1.0, 1.0))
    for i in range(3):
        for j in range(3):
            assert rows[i][j] == (2.0 if i == j else -1.0)
    assert column_sums(rows) == (0.0, 0.0, 0.0)


def test_matrix_hand_built_rows():
    rows = build_regression_matrix(DirectingParams(0.5, 1.0, 1.0))
    assert rows == ((1.0, -1.0, -1.0), (-0.5, 2.0, -1.0), (-0.5, -1.0, 2.0))


def test_matrix_column_sums_exactly_zero_random():
    rng = np.random.default_rng(101)
    for _ in range(500):
        v = rng.uniform(-1.0, 1.0, size=3)
        rows = build_regression_matrix(DirectingParams(*v))
        assert column_sums(rows) == (0.0, 0.0, 0.0)


def test_matrix_apply_is_row_dot_product():
    rows = build_regression_matrix(DirectingParams(0.1, 0.1, 0.1))
    assert matrix_vector(rows, (0.5, 0.3, 0.2)) == pytest.approx(
        (0.05, -0.01, -0.04), abs=1e-15
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_matrix_rejects_nonfinite_entries_from_unvalidated_params(bad):
    # Plain tuples skip DirectingParams; 2 * 1e308 overflows to inf.
    init = SimplexPoint(0.5, 0.3, 0.2)
    with pytest.raises(InvalidInputError, match="finite"):
        build_regression_matrix((bad, 0.1, 0.1))
    with pytest.raises(InvalidInputError, match="finite"):
        step_clamped((bad, 0.0, 0.0), init)
    with pytest.raises(InvalidInputError, match="finite"):
        trajectory((0.1, bad, 0.1), init, 3, mode="clamped")
    with pytest.raises(InvalidInputError, match="finite"):
        estimate_limit((0.1, 0.1, bad), init)


# Components that are not numbers, or do not fit a double.
NOT_DOUBLES = [
    pytest.param(None, id="None"),
    pytest.param("x", id="str"),
    pytest.param(10**400, id="int"),
    pytest.param(-(10**400), id="negative-int"),
    pytest.param(Fraction(10**400, 3), id="Fraction"),
]
VALUE_TYPES = {
    "DirectingParams": lambda bad: DirectingParams(bad, 0.0, 0.0),
    "DirectingParams-unbounded": lambda bad: DirectingParams(0.0, bad, 0.0, bound_check=False),
    "SimplexPoint": lambda bad: SimplexPoint(0.5, bad, 0.5),
    "RawState": lambda bad: RawState(0.5, 0.5, bad),
    "FluctuationVector": lambda bad: FluctuationVector(bad, 0.0, 0.0),
    "Equilibrium": lambda bad: Equilibrium(0.5, 0.5, 0.0, bad, None),
}
# Every entry that reads a parameter triple and a state, as a call of (params, state).
ENTRIES = {
    "step_raw": step_raw,
    "step_clamped": step_clamped,
    "trajectory-raw": lambda v, p: trajectory(v, p, 3),
    "trajectory-clamped": lambda v, p: trajectory(v, p, 3, mode="clamped"),
    "estimate_limit": estimate_limit,
    "stochastic_step": lambda v, p: stochastic_step(v, p, 10, replication_stream(0, 0)),
    "run_replications": lambda v, p: run_replications(v, p, 10, SampleConfig(2, 0, 3)),
    "lln_diagnostic": lambda v, p: lln_diagnostic(v, p, [10], SampleConfig(2, 0, 3)),
}


@pytest.mark.parametrize("bad", NOT_DOUBLES)
@pytest.mark.parametrize("build", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_a_value_type_of_a_component_that_is_not_a_double_raises_invalid_input(build, bad):
    # it raised TypeError, ValueError or OverflowError from float()
    with pytest.raises(InvalidInputError, match="components must be numbers that fit a double"):
        build(bad)


# The entries that read a parameter triple alone.
PARAMS_ONLY = [build_regression_matrix, reduced_matrix, contraction_factor]


@pytest.mark.parametrize("bad", NOT_DOUBLES)
@pytest.mark.parametrize("entry", [*PARAMS_ONLY, *ENTRIES.values()],
                         ids=[*(entry.__name__ for entry in PARAMS_ONLY), *ENTRIES])
def test_parameters_that_are_not_doubles_raise_invalid_input(entry, bad):
    args = () if entry in PARAMS_ONLY else (SimplexPoint(0.5, 0.3, 0.2),)
    with pytest.raises(InvalidInputError, match="parameters must be numbers that fit a double"):
        entry((0.1, bad, 0.1), *args)


@pytest.mark.parametrize("bad", NOT_DOUBLES)
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
def test_a_state_with_a_component_that_is_not_a_double_raises_invalid_input(entry, bad):
    with pytest.raises(InvalidInputError, match="components must be numbers that fit a double"):
        entry((0.1, 0.1, 0.1), (0.5, bad, 0.5))


_MATRIX_EDGES = (0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 8.98846567431158e307,
                 math.nextafter(8.98846567431158e307, 0.0), math.inf, -math.inf, math.nan,
                 5e-324, 1.7976931348623157e308)


def _check_matrix_finiteness_rule(v):
    # The rule restated over all nine entries: diagonal 2*v_m, off-diagonal -v_n.
    entries = [2.0 * v[m] if m == n else -v[n] for m in range(3) for n in range(3)]
    try:
        rows = build_regression_matrix(v)
    except InvalidInputError:
        assert not all(map(math.isfinite, entries))
    else:
        assert all(map(math.isfinite, entries))
        assert [x for row in rows for x in row] == entries


@settings(max_examples=500, derandomize=True, deadline=None)
@given(params=st.tuples(*[st.one_of(st.sampled_from(_MATRIX_EDGES), st.floats())] * 3))
def test_matrix_raises_exactly_when_an_entry_is_not_finite(params):
    _check_matrix_finiteness_rule(params)


def test_matrix_raises_exactly_when_an_entry_is_not_finite_on_edge_triples():
    for params in itertools.product(_MATRIX_EDGES, repeat=3):
        _check_matrix_finiteness_rule(params)


# -------------------------------------------------------------- equilibrium

def test_equilibrium_symmetric_params():
    eq = compute_equilibrium(DirectingParams(1.0, 1.0, 1.0))
    assert eq.rho == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
    assert eq.v_denominator == 3.0


def test_equilibrium_hand_substituted():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    assert eq.rho == (0.5, 0.25, 0.25)
    assert eq.v_denominator == 2.0
    rows = build_regression_matrix(eq.params)
    assert max(map(abs, matrix_vector(rows, eq.rho))) <= 1e-12


def test_equilibrium_components_may_leave_unit_interval():
    eq = compute_equilibrium(DirectingParams(0.3, -0.1, 0.2))
    assert eq.v_denominator == pytest.approx(0.01, abs=1e-15)
    assert eq.rho == pytest.approx((-2.0, 6.0, -3.0), abs=1e-12)
    assert eq.rho0 + eq.rho1 + eq.rho2 == pytest.approx(1.0, abs=1e-12)


def test_equilibrium_singular_denominator():
    with pytest.raises(NoEquilibriumError, match="V = 0"):
        compute_equilibrium(DirectingParams(-0.1, 0.2, 0.2))
    with pytest.raises(NoEquilibriumError):
        compute_equilibrium(DirectingParams(0.0, 0.0, 0.0))
    with pytest.raises(NoEquilibriumError):
        compute_equilibrium(DirectingParams(0.2, 0.0, 0.0))


@pytest.mark.parametrize("v", [(1e200, 1e200, -1e200), (-1e200, 1e200, 1e200), (1e200, 1e200, 1e200)])
def test_equilibrium_nonfinite_denominator(v):
    # pairwise products overflow; with mixed signs their sum is NaN
    with pytest.raises(NoEquilibriumError, match="not finite"):
        compute_equilibrium(DirectingParams(*v, bound_check=False))


def test_equilibrium_infinite_denominator():
    # finite pairwise products of ~1e308 whose sum overflows: every rho_i would be 0
    with pytest.raises(NoEquilibriumError, match="V = inf"):
        compute_equilibrium(DirectingParams(1e154, 1e154, 1e154, bound_check=False))
    with pytest.raises(NoEquilibriumError, match="V = -inf"):
        compute_equilibrium((1.0, 1.0, -1.7e308))


@pytest.mark.parametrize("params", [
    (10**200,) * 3,  # the products do not fit a double
    (2**1100, 1, 1),
    (1, 1, -(10**400)),
    (Fraction(10**200),) * 3,
    (10**154,) * 3,  # the products fit, their sum V does not
])
def test_exact_products_past_the_double_range_have_no_equilibrium(params):
    # as float parameters whose V overflows; these raised OverflowError
    with pytest.raises(NoEquilibriumError):
        compute_equilibrium(params)
    with pytest.raises(NoEquilibriumError):
        classify(params, 0)


def test_exact_products_within_the_double_range_have_their_equilibrium():
    assert compute_equilibrium((10**150,) * 3).rho == (1 / 3, 1 / 3, 1 / 3)
    assert classify((2**500, 1, 1), 1).rho_m == 0.5


def test_equilibrium_float32_result_is_still_checked():
    # float32 products and quotients miss the balance tolerance, so only a float
    # result skips Equilibrium's checks
    with pytest.raises(InvalidInputError, match="must sum to 1"):
        compute_equilibrium(tuple(map(np.float32, (0.1, 0.2, 0.3))))


@pytest.mark.parametrize("dtype, v", [
    (np.int64, (2**40, 2**40, 1 - 2**40)),  # used to wrap to rho = (0.5, 0.5, 0.0)
    (np.int32, (2**31 - 1, 2**31 - 2, 3)),
    (np.uint64, (2**40, 2**40, 2**40)),
])
def test_equilibrium_of_fixed_width_integers_does_not_wrap(dtype, v):
    # the wrapped products raised only a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq = compute_equilibrium(tuple(map(dtype, v)))
    assert repr(eq[:4]) == repr(compute_equilibrium(v)[:4])
    assert eq == compute_equilibrium(v)


# a signed float whose exponent is uniform from the subnormals to ~1e308
_magnitude = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                       st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-323, 307))


@st.composite
def _near_cancelling(draw):
    """(v0, v1, v2), v2 a few ulps from the value that makes V = v1*v2 + v0*v2 + v0*v1 vanish."""
    v0, v1 = draw(_magnitude), draw(_magnitude)
    v2 = -v0 * v1 / (v0 + v1) if v0 + v1 != 0.0 else 1.0
    v2 = v2 if math.isfinite(v2) else 1.0
    for _ in range(draw(st.integers(0, 4))):
        v2 = math.nextafter(v2, draw(st.sampled_from([math.inf, -math.inf])))
    return draw(st.permutations((v0, v1, v2)))


_floats = st.floats(allow_nan=False, allow_infinity=False)
_top = st.floats(1e153, 1e155) | st.floats(-1e155, -1e153)  # products near the float maximum
_float_triple = st.one_of(
    st.tuples(_floats, _floats, _floats),
    st.tuples(_magnitude, _magnitude, _magnitude),
    st.tuples(_top, _top, _top),
    _near_cancelling(),
)
_bounded = st.floats(-1e150, 1e150)  # no numpy overflow warning in the products
_exact = st.one_of(st.integers(-10**100, 10**100),
                   st.fractions(-10**6, 10**6, max_denominator=10**6))
_other_triple = st.one_of(
    st.tuples(_exact, _exact, _exact),
    st.tuples(_bounded, _bounded, _bounded).map(lambda v: tuple(map(np.float64, v))),
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(params=st.one_of(_float_triple.map(lambda v: DirectingParams(*v, bound_check=False)),
                        _other_triple))
@example(params=DirectingParams(1e-160, 1e-160, -2e-160, bound_check=False))
@example(params=DirectingParams(1.7e308, 1e-308, 1e-308, bound_check=False))
@example(params=(1, 2, 3))
@example(params=(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)))
@example(params=(np.float64(0.1), np.float64(0.2), np.float64(0.3)))
def test_compute_equilibrium_result_passes_the_equilibrium_checks(params):
    # compute_equilibrium does not send a float result through Equilibrium's checks;
    # whenever it returns, those checks accept it and give the same value.
    try:
        eq = compute_equilibrium(params)
    except NoEquilibriumError:
        return
    assert Equilibrium(*eq) == eq
    assert all(type(x) is float for x in eq[:4])
    v0, v1, v2 = params
    p12, p02, p01 = v1 * v2, v0 * v2, v0 * v1
    V = p12 + p02 + p01
    assert repr(eq) == repr(Equilibrium(p12 / V, p02 / V, p01 / V, V, params))


def test_v_bar_accessor():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    assert eq.v_bar == pytest.approx(4.0, abs=1e-14)
    zero_param = compute_equilibrium(DirectingParams(0.1, 0.0, 0.1))
    with pytest.raises(InvalidInputError):
        zero_param.v_bar


# -------------------------------------------------------------- fluctuations

def test_fluctuation_at_equilibrium_is_zero():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    f = to_fluctuation(RawState(*eq.rho), eq)
    assert tuple(f) == (0.0, 0.0, 0.0)


def test_fluctuation_componentwise_subtraction():
    eq = compute_equilibrium(DirectingParams(1.0, 1.0, 1.0))
    f = to_fluctuation(RawState(0.5, 0.3, 0.2), eq)
    assert tuple(f) == pytest.approx((1 / 6, -1 / 30, -2 / 15), abs=1e-15)


def test_fluctuation_of_a_plain_triple_matches_the_state_type():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    plain = to_fluctuation((0.5, 0.3, 0.2), eq)
    for cls in (SimplexPoint, RawState):
        assert repr(plain) == repr(to_fluctuation(cls(0.5, 0.3, 0.2), eq))
    with pytest.raises(InvalidInputError, match="fluctuations must sum to 0"):
        to_fluctuation((0.5, 0.3, 0.3), eq)


def test_fluctuation_balance_random():
    rng = np.random.default_rng(102)
    done = 0
    while done < 300:
        v = rng.uniform(-1.0, 1.0, size=3)
        if abs(v[1] * v[2] + v[0] * v[2] + v[0] * v[1]) <= 1e-6:
            continue
        done += 1
        eq = compute_equilibrium(DirectingParams(*v))
        f = to_fluctuation(random_simplex(rng), eq)
        assert abs(f.f0 + f.f1 + f.f2) <= 1e-12


# ------------------------------------------------------------------ stepping

def test_step_raw_worked_example():
    out = step_raw(DirectingParams(0.1, 0.1, 0.1), RawState(0.5, 0.3, 0.2))
    assert tuple(out) == pytest.approx((0.45, 0.31, 0.24), abs=1e-15)


def test_step_raw_with_zero_params_and_no_equilibrium():
    out = step_raw(DirectingParams(0.2, 0.0, 0.0), RawState(0.5, 0.25, 0.25))
    assert tuple(out) == pytest.approx((0.3, 0.35, 0.35), abs=1e-15)


def test_step_raw_fixed_point_at_equilibrium():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    out = step_raw(eq.params, RawState(*eq.rho))
    assert tuple(out) == pytest.approx(eq.rho, abs=1e-12)


def test_step_raw_conserves_sum_random():
    rng = np.random.default_rng(103)
    for _ in range(500):
        v = rng.uniform(-1.0, 1.0, size=3)
        out = step_raw(DirectingParams(*v), random_simplex(rng))
        assert abs(out.p0 + out.p1 + out.p2 - 1.0) <= 1e-12


def test_step_clamped_interior_matches_raw():
    params = DirectingParams(0.1, 0.1, 0.1)
    state = SimplexPoint(0.5, 0.3, 0.2)
    clamped = step_clamped(params, state)
    raw = step_raw(params, RawState(*state))
    assert tuple(clamped) == pytest.approx(tuple(raw), abs=1e-15)


def test_step_clamped_unit_vector_absorbs():
    out = step_clamped(DirectingParams(-0.2, 0.5, -0.4), SimplexPoint(1.0, 0.0, 0.0))
    assert tuple(out) == (1.0, 0.0, 0.0)


def test_step_clamped_fixed_point_at_interior_equilibrium():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    out = step_clamped(eq.params, SimplexPoint(*eq.rho))
    assert tuple(out) == pytest.approx(eq.rho, abs=1e-12)


def test_step_clamped_repulsive_start_below_threshold_hits_zero():
    # threshold is rho0 ~ 0.909; starting below it the coordinate must fall
    params = DirectingParams(-0.2, 0.5, -0.4)
    states = trajectory(params, SimplexPoint(0.5, 0.25, 0.25), 10, mode="clamped")
    p0 = [s.p0 for s in states]
    assert p0[6] == 0.0
    assert all(b <= a for a, b in zip(p0[1:], p0[2:]))


def test_degenerate_clamp_guard():
    zero_rows = ((0.0, 0.0, 0.0),) * 3
    with pytest.raises(DegenerateClampError):
        _clamped_step(zero_rows, (-1.0, -1.0, -1.0))


# ---------------------------------------------------------------- trajectory

def test_trajectory_zero_steps():
    init = RawState(0.5, 0.3, 0.2)
    assert trajectory(DirectingParams(0.1, 0.1, 0.1), init, 0) == [init]


def test_trajectory_constant_at_equilibrium():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    states = trajectory(eq.params, RawState(*eq.rho), 5)
    for s in states:
        assert tuple(s) == pytest.approx(eq.rho, abs=1e-12)


def test_trajectory_geometric_contraction():
    # symmetric params act on fluctuations as multiplication by 1 - 3v
    states = trajectory(DirectingParams(0.1, 0.1, 0.1), RawState(0.5, 0.3, 0.2), 20)
    f0 = (0.5 - 1 / 3, 0.3 - 1 / 3, 0.2 - 1 / 3)
    for k, s in enumerate(states):
        expected = tuple(1 / 3 + 0.7**k * f for f in f0)
        assert tuple(s) == pytest.approx(expected, abs=1e-12)


def test_trajectory_clamped_keeps_simplex():
    states = trajectory(
        DirectingParams(-0.2, 0.5, -0.4), SimplexPoint(0.5, 0.25, 0.25), 50, mode="clamped"
    )
    for s in states:
        assert isinstance(s, SimplexPoint)


def test_trajectory_argument_validation():
    params = DirectingParams(0.1, 0.1, 0.1)
    init = RawState(0.5, 0.3, 0.2)
    with pytest.raises(InvalidInputError):
        trajectory(params, init, -1)
    with pytest.raises(InvalidInputError):
        trajectory(params, init, 2.5)
    with pytest.raises(InvalidInputError):
        trajectory(params, init, 3, mode="bogus")
    with pytest.raises(InvalidInputError):
        trajectory(params, RawState(1.5, -0.25, -0.25), 3, mode="clamped")


def _exponent(x):
    """The ``e`` of the float ``x`` as an integer over ``2**e``, in lowest terms."""
    return x.as_integer_ratio()[1].bit_length() - 1


def _scaled(x, s):
    """The float ``x`` times ``2**s``, an integer for any ``s >= _exponent(x)``."""
    n, d = x.as_integer_ratio()
    return n << (s - d.bit_length() + 1)


def _dot(row, x):
    return row[0] * x[0] + row[1] * x[1] + row[2] * x[2]


def raw_bound_excess(rows, states):
    """The first ``(k, i)`` where float raw states leave a derived bound of the exact ones.

    ``states`` are the floats ``y_0, ..., y_n`` of the raw stepper on the float matrix
    ``rows``, ``A``.  The exact replay takes ``A`` and ``y_0`` as exact rationals:
    ``x_0 = y_0`` and ``x_{k+1} = x_k - A x_k``.  ``None`` when ``|y_k,i - x_k,i| <=
    b_k,i`` throughout.

    Bound.  ``_raw_step`` computes component ``i`` from ``y`` as ``y_i - ((a_i0 y_0 +
    a_i1 y_1) + a_i2 y_2)``, in six roundings.  Each is ``(a op b)(1 + d) + e`` with ``|d|
    <= u = 2**-53``, where ``e`` is zero except for a product with a subnormal result,
    ``|e| <= t = 2**-1075`` (a sum whose result is subnormal is exact).  A product passes
    at most four roundings and ``y_i`` one, so with ``gamma_4 = 4u / (1 - 4u)`` the step
    is off the exact ``y - A y`` by at most ``l_i = gamma_4 (|y_i| + sum_j |a_ij| |y_j|) +
    3t (1 + u)**3``.  The errors ``y_k - x_k`` are then the map ``I - A`` of the last ones
    plus that step's, so, with ``b_0 = 0``::

        b_{k+1,i} = sum_j |delta_ij - a_ij| b_k,j + l_i(y_k)

    It carries the map's norm, which ``k u`` alone does not: over 40 steps of 1,500
    uniform cube cells the error reached 144 k u max_i |y_k,i|.  The bound is evaluated
    exactly, rounded up only by ``gamma_4 <= 2**-51 + 2**-101`` and ``3t (1 + u)**3 <=
    4t``.  Every double is an integer over a power of two, so every value here is an
    integer over ``2**s``, with ``s`` up by the rows' exponent a step: the rationals
    ``Fraction`` gives, without its gcds (a ``Fraction`` replay alone took 11 times as
    long as this whole check).
    """
    f = max(map(_exponent, itertools.chain.from_iterable(rows)))
    s = max(map(_exponent, itertools.chain.from_iterable(states)))
    a = [[_scaled(x, f) for x in row] for row in rows]
    abs_a = [[abs(x) for x in row] for row in a]
    abs_map = [[abs((i == j) * (1 << f) - a[i][j]) for j in range(3)] for i in range(3)]
    exact = [_scaled(x, s) for x in states[0]]
    bound = [0, 0, 0]
    for k in range(1, len(states)):
        y = [abs(_scaled(x, s)) for x in states[k - 1]]
        s += f
        terms = [(y[i] << f) + _dot(abs_a[i], y) for i in range(3)]
        # ceilings of gamma_4 terms and 4t, at scale 2**s
        bound = [_dot(abs_map[i], bound) - (-terms[i] >> 51) - (-terms[i] >> 101)
                 - (-(1 << s) >> 1073) for i in range(3)]
        exact = [(exact[i] << f) - _dot(a[i], exact) for i in range(3)]
        for i in range(3):
            if abs(_scaled(states[k][i], s) - exact[i]) > bound[i]:
                return k, i
    return None


@settings(max_examples=500, derandomize=True, deadline=None)
@given(cell=st.tuples(*[st.floats(-1.0, 1.0)] * 3), init=interior_starts)
@example(cell=(5e-324, -1.0, 0.5), init=SimplexPoint(0.5, 0.3, 0.2))  # subnormal products
def test_raw_trajectory_stays_within_a_derived_bound_of_an_exact_replay(cell, init):
    params = DirectingParams(*cell)
    assert raw_bound_excess(build_regression_matrix(params),
                            trajectory(params, init, 40, mode="raw")) is None


@pytest.mark.parametrize("cell", [(0.1, 0.2, 0.3), (-0.2, 0.5, -0.4), (0.01, -0.02, 0.03)])
def test_the_raw_bound_catches_one_step_off_by_2_to_the_minus_50(cell):
    params = DirectingParams(*cell)
    init = SimplexPoint(0.5, 0.3, 0.2)
    (_, y_1) = trajectory(params, init, 1, mode="raw")
    off = RawState(*(c * (1.0 + 2.0 ** -50) for c in y_1))
    states = [init, *trajectory(params, off, 39, mode="raw")]
    assert raw_bound_excess(build_regression_matrix(params), states)[0] == 1


# ----------------------------------------------------- reduced system

def test_reduced_matrix_examples():
    assert reduced_matrix(DirectingParams(0.0, 0.0, 0.0)) == ((0.0, 0.0), (0.0, 0.0))
    a = reduced_matrix(DirectingParams(0.1, 0.1, 0.1))
    assert a[0] == pytest.approx((-0.3, 0.0), abs=1e-15)
    assert a[1] == pytest.approx((0.0, -0.3), abs=1e-15)


def test_reduced_step_matches_full_step_random():
    rng = np.random.default_rng(104)
    for _ in range(500):
        v = rng.uniform(-1.0, 1.0, size=3)
        params = DirectingParams(*v)
        state = random_simplex(rng)
        V = v[1] * v[2] + v[0] * v[2] + v[0] * v[1]
        if abs(V) <= 1e-6:
            continue
        eq = compute_equilibrium(params)
        f = to_fluctuation(state, eq)
        (a, b), (c, d) = reduced_matrix(params)
        reduced = (f.f0 + (a * f.f0 + b * f.f1), f.f1 + (c * f.f0 + d * f.f1))
        full = step_raw(params, state)
        full_f = (full.p0 - eq.rho0, full.p1 - eq.rho1)
        assert abs(full_f[0] - reduced[0]) <= 1e-12
        assert abs(full_f[1] - reduced[1]) <= 1e-12


def test_contraction_factor_examples():
    assert contraction_factor(DirectingParams(0.1, 0.1, 0.1)) == pytest.approx(0.7, abs=1e-12)
    assert contraction_factor(DirectingParams(0.0, 0.0, 0.0)) == 1.0
    # |v_m| <= 1 does not imply the unclamped iteration contracts
    assert contraction_factor(DirectingParams(1.0, 1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("params", [
    (10**300, 10**300, -(10**300)),
    (Fraction(10**300), Fraction(10**300), Fraction(-(10**300))),
    (10**154, 10**154, -(10**154)),
], ids=["int-1e300", "Fraction-1e300", "int-1e154"])
def test_contraction_factor_of_exact_params_whose_products_overflow_is_the_float_result(params):
    # each parameter fits a double, but the determinant's exact products do not
    got, want = contraction_factor(params), contraction_factor(tuple(map(float, params)))
    assert got == want or (math.isnan(got) and math.isnan(want))


# ------------------------------------------------------- linear structure

def test_step_is_linear_on_fluctuations():
    rng = np.random.default_rng(105)
    params = DirectingParams(0.3, 0.2, 0.4)
    eq = compute_equilibrium(params)

    def image(f):
        state = RawState(eq.rho0 + f[0], eq.rho1 + f[1], eq.rho2 + f[2])
        out = step_raw(params, state)
        return (out.p0 - eq.rho0, out.p1 - eq.rho1, out.p2 - eq.rho2)

    for _ in range(200):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        f = rng.uniform(-0.2, 0.2, size=2)
        g = rng.uniform(-0.2, 0.2, size=2)
        f = (f[0], f[1], -f[0] - f[1])
        g = (g[0], g[1], -g[0] - g[1])
        combined = tuple(a * x + b * y for x, y in zip(f, g))
        lhs = image(combined)
        fi, gi = image(f), image(g)
        rhs = tuple(a * x + b * y for x, y in zip(fi, gi))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_symmetric_params_contract_fluctuations_exactly():
    rng = np.random.default_rng(106)
    for v in (0.05, 0.1, 0.2, 0.3, 0.5, 0.65):
        params = DirectingParams(v, v, v)
        factor = abs(1.0 - 3.0 * v)
        for _ in range(50):
            state = random_simplex(rng)
            out = step_raw(params, state)
            for before, after in zip(
                (state.p0 - 1 / 3, state.p1 - 1 / 3, state.p2 - 1 / 3),
                (out.p0 - 1 / 3, out.p1 - 1 / 3, out.p2 - 1 / 3),
            ):
                assert abs(abs(after) - factor * abs(before)) <= 1e-12
