"""State types and one-step dynamics of a ternary statistical experiment.

The model tracks a triple of probabilities over discrete stages.  Stage
increments are linear in the current state: the next state is
``p - M @ p`` where ``M`` is the 3x3 regression matrix generated by the
directing action parameters ``(v0, v1, v2)``.  Every column of ``M`` sums
to zero, so the total mass ``p0 + p1 + p2`` is conserved, but individual
components may leave ``[0, 1]``.  Two steppers are provided:

* :func:`step_raw` applies the linear map as-is (components unconstrained);
* :func:`step_clamped` clips the result to ``[0, 1]``, renormalises, and
  snaps near-vertex states to the exact absorbing unit vector, so boundary
  limits 0 and 1 are reachable.

The parameter, state and equilibrium types are immutable tuples, validated once
where a value enters: a sweep cell of three floats in [-1, 1] by one range test,
any other value by its constructor.  The kernel steps in floats, and the states
that the clamp or the multinomial draws build are not checked again.
"""

import math
import operator
from collections import namedtuple

BALANCE_TOL = 1e-12
SINGULAR_REL_TOL = 1e-14
_LEAST_NORMAL = 2.0 ** -1022  # sys.float_info.min
ABSORB_EPS = 1e-9


class ModelError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidInputError(ModelError, ValueError):
    """Parameters, states or configuration violate a construction invariant."""


class NoEquilibriumError(ModelError):
    """No unique equilibrium: the denominator v1*v2 + v0*v2 + v0*v1 vanishes or is not finite."""


class DegenerateClampError(ModelError):
    """A clamped step clipped away all probability mass."""


def _finite_floats(cls, values):
    try:
        values = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(
            f"{cls.__name__} components must be numbers that fit a double: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise InvalidInputError(f"{cls.__name__} components must be finite, got {values}")
    return values


def _check_sum(values, total, noun):
    # The tolerance scales with the largest component, so the check stays
    # meaningful for diverging raw trajectories.
    got = values[0] + values[1] + values[2]
    if abs(got - total) > BALANCE_TOL * max(1.0, *map(abs, values)):
        raise InvalidInputError(f"{noun} must sum to {total:g}, got sum {got!r}")


class _Validated(tuple):
    """Base of the validated tuples: each validates in ``__new__`` and derives from a namedtuple.

    ``_make``, and so ``_replace``, builds through ``__new__``, as copies and unpickling do.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class DirectingParams(_Validated, namedtuple("DirectingParams", "v0 v1 v2")):
    """Directing action parameters (v0, v1, v2).

    The model assumes ``|v_m| <= 1``; construction enforces the bound.
    Pass ``bound_check=False`` for exploratory runs outside it (reports
    downstream flag such parameter sets).
    """

    __slots__ = ()

    def __new__(cls, v0, v1, v2, bound_check=True):
        values = _finite_floats(cls, (v0, v1, v2))
        self = tuple.__new__(cls, values)
        if bound_check and not self.in_model_range:
            raise InvalidInputError(
                f"directing parameters must satisfy |v_m| <= 1, got {values}; "
                "pass bound_check=False to run outside the model range"
            )
        return self

    def __getnewargs__(self):
        # The bound check is a choice made at construction and is not stored,
        # so a copy of an instance built outside the range must skip it.
        return (*self, False)

    @property
    def in_model_range(self):
        """True when every parameter lies in [-1, 1]."""
        return max(abs(self.v0), abs(self.v1), abs(self.v2)) <= 1.0


def _params_in_range(v0, v1, v2):
    """``DirectingParams`` of three floats in [-1, 1], built without the checks that cannot fail.

    Any other triple gives ``None``: a NaN fails every comparison, an infinity the bound.
    """
    if -1.0 <= v0 <= 1.0 and -1.0 <= v1 <= 1.0 and -1.0 <= v2 <= 1.0:
        return tuple.__new__(DirectingParams, (v0, v1, v2))
    return None


def _range_flags(params):
    """A row's ``params_out_of_range`` flag."""
    return () if params.in_model_range else ("params_out_of_range",)


class _Triple(_Validated):
    """Validation shared by the three-component state types.

    Subclasses also derive from a namedtuple of three float fields that
    must sum to ``_total`` and, with ``_unit_interval``, lie in [0, 1].
    """

    __slots__ = ()
    _total = 1.0
    _noun = "components"
    _unit_interval = False

    def __new__(cls, *args, **kwargs):
        # The namedtuple __new__ binds the field names and reports wrong arity.
        values = _finite_floats(cls, super().__new__(cls, *args, **kwargs))
        if cls._unit_interval and any(p < 0.0 or p > 1.0 for p in values):
            raise InvalidInputError(f"{cls._noun} must lie in [0, 1], got {values}")
        _check_sum(values, cls._total, cls._noun)
        return tuple.__new__(cls, values)

    @classmethod
    def of(cls, state):
        """``state`` itself if it already is a ``cls``, else a ``cls`` of its components."""
        return state if isinstance(state, cls) else cls(*state)


class SimplexPoint(_Triple, namedtuple("SimplexPoint", "p0 p1 p2")):
    """A probability triple: components in [0, 1] summing to 1."""

    __slots__ = ()
    _noun = "probabilities"
    _unit_interval = True


class RawState(_Triple, namedtuple("RawState", "p0 p1 p2")):
    """A sum-one triple whose components may leave [0, 1]."""

    __slots__ = ()


class FluctuationVector(_Triple, namedtuple("FluctuationVector", "f0 f1 f2")):
    """Deviation of a state from equilibrium; components sum to 0."""

    __slots__ = ()
    _total = 0.0
    _noun = "fluctuations"


class Equilibrium(_Validated, namedtuple("Equilibrium", "rho0 rho1 rho2 v_denominator params")):
    """Stationary triple: the increment regression vanishes there.

    Components sum to 1 but may individually leave [0, 1].
    """

    __slots__ = ()

    def __new__(cls, rho0, rho1, rho2, v_denominator, params):
        values = _finite_floats(cls, (rho0, rho1, rho2, v_denominator))
        _check_sum(values[:3], 1.0, "equilibrium components")
        return tuple.__new__(cls, (*values, params))

    @property
    def rho(self):
        return (self.rho0, self.rho1, self.rho2)

    @property
    def v_bar(self):
        """Sum of reciprocal directing parameters; defined only when all are nonzero."""
        v0, v1, v2 = self.params
        if v0 == 0.0 or v1 == 0.0 or v2 == 0.0:
            raise InvalidInputError("v_bar is undefined when a directing parameter is zero")
        return 1.0 / v0 + 1.0 / v1 + 1.0 / v2


def build_regression_matrix(params):
    """Rows of the matrix with diagonal entries 2*v_m and column-n off-diagonal entries -v_n.

    The parameters are read as floats, so the kernel steps in double precision.
    """
    v0, v1, v2 = params
    try:
        v0, v1, v2 = float(v0), float(v1), float(v2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(
            f"directing parameters must be numbers that fit a double: {exc}") from None
    d0, d1, d2 = 2.0 * v0, 2.0 * v1, 2.0 * v2
    # Each off-diagonal entry -v_n is finite whenever the diagonal 2*v_n is.
    if not (math.isfinite(d0) and math.isfinite(d1) and math.isfinite(d2)):
        raise InvalidInputError("regression matrix entries must be finite")
    return (
        (d0, -v1, -v2),
        (-v0, d1, -v2),
        (-v0, -v1, d2),
    )


def compute_equilibrium(params):
    """Closed-form equilibrium (v1*v2, v0*v2, v0*v1) / (v1*v2 + v0*v2 + v0*v1).

    Raises :class:`NoEquilibriumError` when the denominator is zero relative
    to the largest pairwise product, so catastrophic cancellation never
    manufactures a spurious equilibrium, when it is below the least normal
    double while a product is too, or when it is not finite (pairwise
    products that overflow to opposite infinities sum to NaN, and finite ones
    near the top of the float range can sum to infinity; exact int or
    fraction products are held to the same range).  Why both floors: a
    product is rounded by at most ``u = 2**-53`` of itself, or by up to
    ``2**-1075`` outright where it is below ``2**-1022``, and the two sums by
    ``u`` of their terms (a sum whose result is subnormal is exact), so the
    float ``V`` is off by at most ``3u sum|v_i v_j|``, plus up to
    ``3 * 2**-1075`` where a product is subnormal.  The relative test keeps
    the first term below ``9e14 u |V|``, about ``0.1 |V|``; only
    ``|V| >= 2**-1022`` keeps the second below ``3u |V|``.  A smaller ``V``
    can then be all rounding (with a zero factor, ``V`` is one such
    product), and its ``rho`` has no correct digit.

    A float result skips :class:`Equilibrium`'s checks, which cannot fail
    for it: past the denominator test every ``|rho_i| < 1e14`` and their sum
    is within a few ulps of 1.  Other number types (ints, fractions, numpy
    scalars) go through the validating constructor.  Integers of any type
    (anything with ``__index__``) are taken as Python ints first, so a
    fixed-width integer such as numpy's ``int64`` cannot wrap in the products.
    """
    v0, v1, v2 = params
    if type(params) is not DirectingParams:  # its components are always floats
        v0, v1, v2 = (operator.index(v) if hasattr(type(v), "__index__") else v
                      for v in (v0, v1, v2))
    p12 = v1 * v2
    p02 = v0 * v2
    p01 = v0 * v1
    denom = p12 + p02 + p01
    scale = max(abs(p12), abs(p02), abs(p01))
    try:
        if (not SINGULAR_REL_TOL * scale < abs(denom) < math.inf
                or (-_LEAST_NORMAL < denom < _LEAST_NORMAL
                    and min(abs(p12), abs(p02), abs(p01)) < _LEAST_NORMAL)):
            raise NoEquilibriumError(f"no unique equilibrium: V = {denom!r} (v1*v2 + v0*v2 + "
                                     "v0*v1 is zero within rounding, subnormal or not finite)")
        values = (p12 / denom, p02 / denom, p01 / denom, denom, params)
        if type(denom) is float:
            return tuple.__new__(Equilibrium, values)
        float(denom)  # an exact V, an int or a Fraction, past the double range overflows
    except OverflowError:  # so does an exact product past it, in the guard
        raise NoEquilibriumError("no unique equilibrium: V = v1*v2 + v0*v2 + v0*v1 or one "
                                 "of its products is too large for a double") from None
    return Equilibrium(*values)


def to_fluctuation(state, eq):
    """Componentwise deviation of a state from the equilibrium."""
    p0, p1, p2 = state
    return FluctuationVector(p0 - eq.rho0, p1 - eq.rho1, p2 - eq.rho2)


def _raw_step(rows, p):
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    x0, x1, x2 = p
    return (
        x0 - (a0 * x0 + a1 * x1 + a2 * x2),
        x1 - (b0 * x0 + b1 * x1 + b2 * x2),
        x2 - (c0 * x0 + c1 * x1 + c2 * x2),
    )


def _clamped_step(rows, p):
    q0, q1, q2 = _raw_step(rows, p)
    # Same result as min(1.0, max(0.0, q)), including NaN -> 0.0 and -0.0 -> 0.0.
    q0 = q0 if q0 > 0.0 else 0.0
    q0 = q0 if q0 < 1.0 else 1.0
    q1 = q1 if q1 > 0.0 else 0.0
    q1 = q1 if q1 < 1.0 else 1.0
    q2 = q2 if q2 > 0.0 else 0.0
    q2 = q2 if q2 < 1.0 else 1.0
    total = q0 + q1 + q2
    if total <= 0.0:
        raise DegenerateClampError(
            f"clamping removed all probability mass (clipped sum {total!r})"
        )
    q0 /= total
    q1 /= total
    q2 /= total
    snap = 1.0 - ABSORB_EPS
    if q0 >= snap:
        return (1.0, 0.0, 0.0)
    if q1 >= snap:
        return (0.0, 1.0, 0.0)
    if q2 >= snap:
        return (0.0, 0.0, 1.0)
    return (q0, q1, q2)


def step_raw(params, state):
    """One unclamped linear step; conserves the component sum only."""
    state = RawState.of(state)
    rows = build_regression_matrix(params)
    return RawState(*_raw_step(rows, state))


def step_clamped(params, state):
    """One step projected back onto the probability simplex.

    Out-of-range components are clipped to [0, 1] and the result is
    renormalised; a coordinate within ``ABSORB_EPS`` of 1 is snapped to the
    exact unit vector, which the dynamics then treats as absorbing.
    """
    state = SimplexPoint.of(state)
    rows = build_regression_matrix(params)
    return tuple.__new__(SimplexPoint, _clamped_step(rows, state))


def _count(value, what):
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None
    return value


def trajectory(params, init, steps, mode="raw"):
    """States of stages 0..steps under repeated stepping.

    ``mode`` selects the stepper: ``"raw"`` keeps the literal linear
    dynamics (elements are :class:`RawState`), ``"clamped"`` keeps the
    trajectory on the simplex (elements are :class:`SimplexPoint`).
    Step failures are re-raised with the failing stage index attached.
    """
    steps = _count(steps, "steps")
    if steps < 0:
        raise InvalidInputError(f"steps must be >= 0, got {steps}")
    if mode not in ("raw", "clamped"):
        raise InvalidInputError(f"mode must be 'raw' or 'clamped', got {mode!r}")
    rows = build_regression_matrix(params)
    p = (SimplexPoint if mode == "clamped" else RawState).of(init)
    out = [p]
    for k in range(steps):
        try:
            p = (tuple.__new__(SimplexPoint, _clamped_step(rows, p)) if mode == "clamped"
                 else RawState(*_raw_step(rows, p)))
        except ModelError as exc:
            raise type(exc)(f"step {k + 1}: {exc}") from exc
        out.append(p)
    return out


def reduced_matrix(params):
    """2x2 increment matrix for the first two fluctuation components.

    The third component is eliminated through the zero-sum balance, so one
    reduced step reproduces the (f0, f1) part of a full linear step.
    """
    v0, v1, v2 = params
    try:
        return (
            (-(2.0 * v0 + v2), v1 - v2),
            (v0 - v2, -(2.0 * v1 + v2)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(
            f"directing parameters must be numbers that fit a double: {exc}") from None


def contraction_factor(params):
    """Spectral radius of the one-step map on the zero-sum fluctuation plane.

    A value below 1 means the unclamped iteration converges to the
    equilibrium from every start.
    """
    (a, b), (c, d) = reduced_matrix(params)
    a, d = a + 1.0, d + 1.0
    tr = a + d
    try:
        det = a * d - b * c
    except OverflowError:  # exact products that do not fit a double: the float values' result
        return contraction_factor(tuple(map(float, params)))
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return max(abs((tr + root) / 2.0), abs((tr - root) / 2.0))
    # disc < 0 implies det > 0: only a NaN disc (an overflowed matrix) gets here with det < 0
    return math.nan if det < 0.0 else math.sqrt(det)
