"""Limit-scenario classification and empirical limit estimation.

A coordinate ``m`` of the dynamics is classified from two quantities: the
directing parameter ``v_m`` and the equilibrium component ``rho_m``.  With
``rho_m`` inside (0, 1) the equilibrium is attractive (``v_m > 0``, the
coordinate converges to ``rho_m``) or repulsive (``v_m < 0``, it escapes to
0 or 1 depending on which side it starts).  With ``rho_m`` outside [0, 1]
the limit is 1 when ``v_m < 0`` (dominant) and 0 when ``v_m > 0``
(degenerate).  Boundary inputs (``v_m = 0`` or ``rho_m`` on {0, 1}) have no
scenario and raise :class:`BoundaryCaseError`.

Empirical limits are estimated by iterating the clamped stepper, and
:func:`sweep` tabulates classifications (optionally with simulated limits)
over a parameter grid.
"""

import enum
from typing import NamedTuple

from .core import (
    DegenerateClampError,
    DirectingParams,
    InvalidInputError,
    ModelError,
    NoEquilibriumError,
    SimplexPoint,
    _clamped_step,
    _count,
    _params_in_range,
    _range_flags,
    build_regression_matrix,
    compute_equilibrium,
    contraction_factor,
)

BOUNDARY_TOL = 1e-12
DEFAULT_WINDOW = 10
# estimate_limit keeps a cycle checkpoint every _CYCLE_SPAN steps; a longer period is not skipped.
_CYCLE_SPAN = 16


class BoundaryCaseError(ModelError):
    """No scenario is assigned: v_m is zero or rho_m sits on {0, 1}."""

    def __init__(self, message, flags=(), rho_m=None, v_m=None):
        super().__init__(message)
        self.flags = tuple(flags)
        self.rho_m = rho_m
        self.v_m = v_m


class UnresolvedPredictionError(ModelError):
    """A repulsive prediction has no branch: the start sits exactly on the threshold."""


class Scenario(enum.Enum):
    ATTRACTIVE = "attractive"
    REPULSIVE = "repulsive"
    DOMINANT = "dominant"
    DEGENERATE = "degenerate"


class ScenarioReport(NamedTuple):
    """Classification outcome for one coordinate.

    ``predicted_limit`` is ``None`` for the repulsive scenario, where the
    limit depends on the initial value; use :meth:`resolve_limit`.
    """

    coordinate: int
    scenario: Scenario
    rho_m: float
    v_m: float
    predicted_limit: float | None
    contraction_factor: float

    def resolve_limit(self, initial_value):
        """Predicted limit given the coordinate's initial value."""
        if self.scenario is not Scenario.REPULSIVE:
            return self.predicted_limit
        if abs(initial_value - self.rho_m) <= BOUNDARY_TOL:
            raise UnresolvedPredictionError(
                f"initial value {initial_value!r} sits on the repulsive threshold {self.rho_m!r}"
            )
        return 1.0 if initial_value > self.rho_m else 0.0


class LimitEstimate(NamedTuple):
    """Terminal value of one coordinate under clamped iteration."""

    value: float
    converged: bool
    steps_used: int
    terminal_delta: float


def _check_coordinate(coordinate):
    coordinate = _count(coordinate, "coordinate")
    if coordinate not in (0, 1, 2):
        raise InvalidInputError(f"coordinate must be 0, 1 or 2, got {coordinate}")
    return coordinate


def classify(params, coordinate=0):
    """Scenario of one coordinate from the sign of v_m and the location of rho_m.

    A plain ``int`` 0, 1 or 2 skips the coordinate check; ``True`` or ``numpy.int64(1)`` becomes 1.
    """
    if type(coordinate) is not int or not 0 <= coordinate <= 2:
        coordinate = _check_coordinate(coordinate)
    eq = compute_equilibrium(params)
    v_m = params[coordinate]
    rho_m = eq[coordinate]
    on_boundary = abs(rho_m) <= BOUNDARY_TOL or abs(rho_m - 1.0) <= BOUNDARY_TOL
    if v_m == 0.0 or on_boundary:
        flags = ["v_zero"] if v_m == 0.0 else []
        if on_boundary:
            flags.append("rho_boundary")
        raise BoundaryCaseError(
            f"no scenario for coordinate {coordinate}: v_m = {v_m!r}, rho_m = {rho_m!r}",
            flags=flags,
            rho_m=rho_m,
            v_m=v_m,
        )
    if 0.0 < rho_m < 1.0:
        scenario = Scenario.ATTRACTIVE if v_m > 0.0 else Scenario.REPULSIVE
        predicted = rho_m if scenario is Scenario.ATTRACTIVE else None
    else:
        scenario = Scenario.DOMINANT if v_m < 0.0 else Scenario.DEGENERATE
        predicted = 1.0 if scenario is Scenario.DOMINANT else 0.0
    return tuple.__new__(ScenarioReport, (coordinate, scenario, rho_m, v_m, predicted,
                                          contraction_factor(params)))


def _check_limit_settings(tol, max_steps, window):
    """``estimate_limit``'s checks of its stopping rule; returns ``max_steps`` and ``window``."""
    if not tol > 0.0:
        raise InvalidInputError(f"tol must be positive, got {tol!r}")
    max_steps = _count(max_steps, "max_steps")
    window = _count(window, "window")
    if max_steps < 1:
        raise InvalidInputError(f"max_steps must be >= 1, got {max_steps}")
    if window < 1:
        raise InvalidInputError(f"window must be >= 1, got {window}")
    return max_steps, window


def estimate_limit(params, init, coordinate=0, tol=1e-10, max_steps=10000, window=DEFAULT_WINDOW):
    """Empirical limit of one coordinate under clamped iteration.

    Convergence is declared after ``window`` consecutive steps whose
    sup-norm increment stays within ``tol``, or immediately at an exact
    fixed point (absorbing vertices included).  Exhausting ``max_steps``
    reports ``converged=False`` rather than raising.

    Many cells of the clamped map lock into an exact periodic orbit and
    never converge (periods 2, 4, 6 and 8 occur on the reference grids, and
    10 off them).  The step is a pure function of the state, so once the
    state at step ``k`` repeats bit for bit the checkpoint taken ``L`` steps
    earlier and each of those ``L`` steps moved by more than ``tol``, the
    outcome is fixed: only the ``(max_steps - k) % L`` steps needed to read
    off the final state and increment are taken.  The result is identical
    to stepping to the end; in particular ``steps_used`` still reports
    ``max_steps``.  A cycle with a step within ``tol`` keeps the normal
    loop.  A checkpoint is kept every 16 steps (the start, then steps 15,
    31, 47, ...), so a cycle of period ``L <= 16`` is seen within
    ``16 + L`` steps of the orbit's first exact repeat.  A longer period
    is not skipped: it steps to ``max_steps``, with the same result.
    """
    coordinate = _check_coordinate(coordinate)
    max_steps, window = _check_limit_settings(tol, max_steps, window)
    state = SimplexPoint.of(init)
    rows = build_regression_matrix(params)
    quiet = 0
    last_quiet = 0  # last step whose increment was within tol
    saved = state  # the checkpoint, taken at step ``at``
    at = 0
    a, b, c = state
    k = 0
    while k < max_steps:
        k += 1
        state = _clamped_step(rows, state)
        x, y, z = state
        delta = max(abs(x - a), abs(y - b), abs(z - c))
        a, b, c = x, y, z
        if delta <= tol:
            quiet += 1
            if quiet >= window or delta == 0.0:
                return LimitEstimate(state[coordinate], True, k, delta)
            last_quiet = k
        else:
            quiet = 0
        if state == saved:
            if last_quiet <= at:
                k = max_steps - (max_steps - k) % (k - at)
        elif k % _CYCLE_SPAN == _CYCLE_SPAN - 1:
            saved = state
            at = k
    return LimitEstimate(state[coordinate], False, max_steps, delta)


class SweepRow(NamedTuple):
    """One grid cell of a scenario sweep; its field names are ``serialize.SWEEP_HEADER``."""

    v0: float
    v1: float
    v2: float
    coordinate: int
    rho_m: float | None
    v_m: float | None
    scenario: str
    predicted_limit: float | None
    contraction_factor: float | None
    simulated_limit: float | None
    agreement: str | None
    flags: tuple


def sweep(cells, coordinate=0, init=SimplexPoint(1 / 3, 1 / 3, 1 / 3), simulate=False, *,
          bound_check=True, tol=1e-10, max_steps=10000, agreement_tol=1e-6):
    """Classify every parameter triple in ``cells``; one row per cell, in input order.

    ``cells`` is any iterable of triples, read once, such as ``itertools.product(v0s, v1s, v2s)``.

    Cell-level failures become row markers (``no_equilibrium``, ``boundary``, ``invalid_params``)
    instead of aborting the sweep.  With ``simulate`` the clamped limit is also estimated, and a
    resolved prediction agrees with it within ``agreement_tol``; a cell whose limit cannot be
    estimated keeps its classification and is flagged ``degenerate_clamp`` or ``matrix_overflow``.
    Each row depends only on its own cell, so a sub-grid gives the same rows as the matching rows
    of a larger grid.  ``coordinate``, ``init``, ``tol``, ``max_steps`` and ``agreement_tol`` are
    checked before the first cell, with or without ``simulate``, so ``sweep((), ...)`` checks every
    setting and returns ``[]``; a cell that is not three numbers raises :class:`InvalidInputError`
    when the loop reaches it.
    """
    coordinate = _check_coordinate(coordinate)
    if not agreement_tol > 0.0:
        raise InvalidInputError(f"agreement_tol must be positive, got {agreement_tol!r}")
    _check_limit_settings(tol, max_steps, DEFAULT_WINDOW)
    init = SimplexPoint.of(init)
    start = init[coordinate]
    rows = []
    for cell in cells:
        try:
            v0, v1, v2 = triple = tuple(map(float, cell))
        except (TypeError, ValueError, OverflowError):
            raise InvalidInputError(
                f"grid cells must be triples of numbers, got {cell!r}") from None
        # A cell that is not classified sets only the fields where its row differs.
        report = rho_m = predicted = contraction = simulated = agreement = None
        flags = []
        params = _params_in_range(v0, v1, v2)
        if params is None:
            # Out of range or not finite: only bound_check=False builds it, with a range flag.
            try:
                params = DirectingParams(v0, v1, v2, bound_check=bound_check)
            except InvalidInputError:
                scenario = "invalid_params"
            else:
                flags += _range_flags(params)
        if params is not None:
            try:
                report = classify(params, coordinate)
            except NoEquilibriumError:
                scenario, contraction = "no_equilibrium", contraction_factor(params)
            except BoundaryCaseError as exc:
                scenario, rho_m, contraction = "boundary", exc.rho_m, contraction_factor(params)
                flags += exc.flags
        if report is not None:
            scenario, rho_m = report.scenario._value_, report.rho_m
            contraction = report.contraction_factor
            try:
                predicted = report.resolve_limit(start)
            except UnresolvedPredictionError:
                flags.append("unresolved_prediction")
            if simulate:
                try:
                    estimate = estimate_limit(params, init, coordinate, tol=tol,
                                              max_steps=max_steps)
                except DegenerateClampError:
                    flags.append("degenerate_clamp")
                except InvalidInputError:
                    # After the checks above, the only source: 2*v_n overflows in the matrix.
                    flags.append("matrix_overflow")
                else:
                    simulated = estimate.value
                    if not estimate.converged:
                        flags.append("not_converged")
                    if predicted is not None:
                        agreement = ("agree" if abs(simulated - predicted) <= agreement_tol
                                     else "disagree")
        rows.append(tuple.__new__(SweepRow, (
            v0, v1, v2, coordinate, rho_m, triple[coordinate], scenario, predicted, contraction,
            simulated, agreement, tuple(sorted(flags)) if flags else ())))
    return rows
