"""The value types validate on every path that builds an instance.

``DirectingParams``, ``SimplexPoint``, ``RawState``, ``FluctuationVector``
and ``Equilibrium`` are tuples.  ``reference_error`` restates the checks they
make (finite components, the ``|v_m| <= 1`` bound, the [0, 1] range of a
probability and the scaled balance check) with the exact messages, and every
way of building an instance must agree with it: the constructor, ``of``,
``_make``, ``_replace``, ``copy.copy``, ``copy.deepcopy`` and pickling.
"""

import copy
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ternary_dynamics import (
    DirectingParams,
    Equilibrium,
    FluctuationVector,
    InvalidInputError,
    NoEquilibriumError,
    RawState,
    SimplexPoint,
    compute_equilibrium,
)

FIELDS = {
    DirectingParams: ("v0", "v1", "v2"),
    SimplexPoint: ("p0", "p1", "p2"),
    RawState: ("p0", "p1", "p2"),
    FluctuationVector: ("f0", "f1", "f2"),
    Equilibrium: ("rho0", "rho1", "rho2", "v_denominator", "params"),
}
TYPES = list(FIELDS)
BALANCE = {
    SimplexPoint: (1.0, "probabilities"),
    RawState: (1.0, "components"),
    FluctuationVector: (0.0, "fluctuations"),
    Equilibrium: (1.0, "equilibrium components"),
}


def reference_error(cls, args):
    """Message of the ``InvalidInputError`` that ``cls(*args)`` must raise, or None."""
    values = tuple(map(float, args[:4] if cls is Equilibrium else args))
    if not all(map(math.isfinite, values)):
        return f"{cls.__name__} components must be finite, got {values}"
    if cls is DirectingParams:
        if max(map(abs, values)) > 1.0:
            return (f"directing parameters must satisfy |v_m| <= 1, got {values}; "
                    "pass bound_check=False to run outside the model range")
        return None
    if cls is SimplexPoint and any(p < 0.0 or p > 1.0 for p in values):
        return f"probabilities must lie in [0, 1], got {values}"
    total, noun = BALANCE[cls]
    got = values[0] + values[1] + values[2]
    if abs(got - total) > 1e-12 * max(1.0, *map(abs, values[:3])):
        return f"{noun} must sum to {total:g}, got sum {got!r}"
    return None


def expected(cls, args):
    """What building ``cls`` from ``args`` must give: its type and repr, or the error."""
    message = reference_error(cls, args)
    if message is not None:
        return "InvalidInputError", message
    values = [float(a) for a in args[:4]] + list(args[4:])
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], values))
    return cls, f"{cls.__name__}({fields})"


def outcome(build, *args, **kwargs):
    try:
        value = build(*args, **kwargs)
    except InvalidInputError as exc:
        return "InvalidInputError", str(exc)
    return type(value), repr(value)


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}

unit = st.floats(-1.0, 1.0)
component = st.one_of(
    unit,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 1e-12]),
)
cube = st.tuples(unit, unit, unit)
any_triple = st.tuples(component, component, component)


@st.composite
def simplex_points(draw):
    a, b = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    return a, b - a, 1.0 - b


@st.composite
def sum_one(draw):
    x0, x1 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-1e300, 1e300))
    return x0, x1, 1.0 - x0 - x1


@st.composite
def zero_sum(draw):
    f0, f1 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-1e300, 1e300))
    return f0, f1, -(f0 + f1)


@st.composite
def equilibria(draw):
    """Components of the equilibrium of a cell of the cube."""
    try:
        return tuple(compute_equilibrium(DirectingParams(*draw(cube))))
    except NoEquilibriumError:
        assume(False)


@st.composite
def equilibrium_args(draw):
    rho = draw(st.one_of(simplex_points(), sum_one(), any_triple))
    return (*rho, draw(component), DirectingParams(*draw(cube)))


VALID = {
    DirectingParams: cube,
    SimplexPoint: simplex_points(),
    RawState: st.one_of(simplex_points(), sum_one()),
    FluctuationVector: zero_sum(),
    Equilibrium: equilibria(),
}
ARGS = {
    DirectingParams: st.one_of(cube, any_triple),
    SimplexPoint: st.one_of(simplex_points(), sum_one(), zero_sum(), any_triple),
    RawState: st.one_of(simplex_points(), sum_one(), zero_sum(), any_triple),
    FluctuationVector: st.one_of(zero_sum(), sum_one(), any_triple),
    Equilibrium: st.one_of(equilibria(), equilibrium_args()),
}
BASE = {
    DirectingParams: DirectingParams(0.1, 0.2, 0.3),
    SimplexPoint: SimplexPoint(0.5, 0.3, 0.2),
    RawState: RawState(1.5, -0.25, -0.25),
    FluctuationVector: FluctuationVector(0.2, -0.1, -0.1),
    Equilibrium: compute_equilibrium(DirectingParams(0.1, 0.2, 0.3)),
}


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_constructor_validates(cls, data):
    args = data.draw(ARGS[cls])
    want = expected(cls, args)
    assert outcome(cls, *args) == want
    assert outcome(cls._make, args) == want
    assert outcome(BASE[cls]._replace, **dict(zip(FIELDS[cls], args))) == want
    if hasattr(cls, "of"):
        assert outcome(cls.of, list(args)) == want


def assert_copies_equal(value):
    for clone in CLONES.values():
        twin = clone(value)
        assert type(twin) is type(value)
        assert repr(twin) == repr(value)
        assert twin == value == tuple(value)
        assert hash(twin) == hash(tuple(value))


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_copies_equal_the_original(cls, data):
    assert_copies_equal(cls(*data.draw(VALID[cls])))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(v=st.tuples(st.floats(-1e300, 1e300), unit, st.floats(-1e300, 1e300)))
def test_out_of_range_params_and_their_equilibrium_survive_copies(v):
    assume(max(map(abs, v)) > 1.0)
    params = DirectingParams(*v, bound_check=False)
    assert_copies_equal(params)
    assert not copy.copy(params).in_model_range
    try:
        eq = compute_equilibrium(params)
    except NoEquilibriumError:
        return
    assert_copies_equal(eq)


FORGED = [
    (DirectingParams, (math.nan, 0.0, 0.0)),
    (SimplexPoint, (7.0, 0.0, 0.0)),
    (RawState, (0.5, 0.3, 0.3)),
    (FluctuationVector, (1.0, 0.0, 0.0)),
    (Equilibrium, (0.5, 0.5, 0.5, 1.0, DirectingParams(0.1, 0.1, 0.1))),
]


@pytest.mark.parametrize("clone", CLONES.values(), ids=list(CLONES))
@pytest.mark.parametrize("cls, components", FORGED, ids=[cls.__name__ for cls, _ in FORGED])
def test_copies_of_a_forged_instance_are_validated(cls, components, clone):
    # tuple.__new__ skips the checks; every rebuild must run them
    forged = tuple.__new__(cls, components)
    assert outcome(clone, forged) == ("InvalidInputError", reference_error(cls, components))


@pytest.mark.parametrize("value, text", [
    (SimplexPoint(0.5, 0.3, 0.2), "SimplexPoint(p0=0.5, p1=0.3, p2=0.2)"),
    (RawState(1.5, -0.25, -0.25), "RawState(p0=1.5, p1=-0.25, p2=-0.25)"),
    (FluctuationVector(0.2, -0.1, -0.1), "FluctuationVector(f0=0.2, f1=-0.1, f2=-0.1)"),
    (DirectingParams(2, 1, 1, bound_check=False), "DirectingParams(v0=2.0, v1=1.0, v2=1.0)"),
    (Equilibrium(0.2, 0.4, 0.4, 5, DirectingParams(2, 1, 1, bound_check=False)),
     "Equilibrium(rho0=0.2, rho1=0.4, rho2=0.4, v_denominator=5.0, "
     "params=DirectingParams(v0=2.0, v1=1.0, v2=1.0))"),
])
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_instances_are_immutable_and_take_keywords(cls):
    value = BASE[cls]
    assert cls(**dict(zip(FIELDS[cls], value))) == value
    with pytest.raises(AttributeError):
        setattr(value, FIELDS[cls][0], 0.0)
    with pytest.raises(AttributeError):
        value.extra = 0.0
