import hashlib
import importlib
import io
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ternary_dynamics import (
    BoundaryCaseError,
    DegenerateClampError,
    DirectingParams,
    InvalidInputError,
    NoEquilibriumError,
    Scenario,
    ScenarioReport,
    SimplexPoint,
    SweepRow,
    UnresolvedPredictionError,
    classify,
    compute_equilibrium,
    contraction_factor,
    estimate_limit,
    reduced_matrix,
    sweep,
)
from ternary_dynamics import cli
from ternary_dynamics.classify import DEFAULT_WINDOW
from ternary_dynamics.cli import _axis
from ternary_dynamics.serialize import SWEEP_HEADER, write_table

from conftest import interior_starts


def emitted(emit, *args, **kwargs):
    """The text ``emit`` writes to a stream, given the rest of its arguments."""
    buf = io.StringIO()
    emit(buf, *args, **kwargs)
    return buf.getvalue()


CLASSIFY = importlib.import_module("ternary_dynamics.classify")

ATTRACTIVE = (0.1, 0.1, 0.1)
REPULSIVE = (-0.2, 0.5, -0.4)
DOMINANT = (-0.1, 0.3, 0.2)
DEGENERATE = (0.3, -0.1, 0.2)
DEMO_CELLS = [ATTRACTIVE, REPULSIVE, DOMINANT, DEGENERATE]


# -------------------------------------------------------------- classify

def test_classify_attractive():
    report = classify(DirectingParams(*ATTRACTIVE), 0)
    assert report.scenario is Scenario.ATTRACTIVE
    assert report.rho_m == pytest.approx(1 / 3, abs=1e-15)
    assert report.predicted_limit == report.rho_m
    assert report.contraction_factor == pytest.approx(0.7, abs=1e-12)


def test_classify_repulsive():
    report = classify(DirectingParams(*REPULSIVE), 0)
    assert report.scenario is Scenario.REPULSIVE
    assert report.rho_m == pytest.approx(-0.2 / -0.22, abs=1e-12)
    assert report.predicted_limit is None
    assert report.resolve_limit(0.5) == 0.0
    assert report.resolve_limit(0.95) == 1.0


def test_classify_dominant():
    report = classify(DirectingParams(*DOMINANT), 0)
    assert report.scenario is Scenario.DOMINANT
    assert report.rho_m == pytest.approx(6.0, abs=1e-12)
    assert report.predicted_limit == 1.0


def test_classify_degenerate():
    report = classify(DirectingParams(*DEGENERATE), 0)
    assert report.scenario is Scenario.DEGENERATE
    assert report.rho_m == pytest.approx(-2.0, abs=1e-12)
    assert report.predicted_limit == 0.0


def test_classify_other_coordinates():
    # the same rule applies per coordinate, so one triple can mix scenarios
    params = DirectingParams(*REPULSIVE)
    assert classify(params, 1).scenario is Scenario.DEGENERATE
    assert classify(params, 2).scenario is Scenario.REPULSIVE
    for m in range(3):
        report = classify(DirectingParams(*ATTRACTIVE), m)
        assert report.scenario is Scenario.ATTRACTIVE
        assert report.coordinate == m


def test_classify_boundary_v_zero_and_rho_boundary():
    with pytest.raises(BoundaryCaseError) as info:
        classify(DirectingParams(0.1, 0.0, 0.1), 1)
    assert set(info.value.flags) == {"v_zero", "rho_boundary"}

    with pytest.raises(BoundaryCaseError) as info:
        classify(DirectingParams(0.1, 0.0, 0.1), 0)
    assert info.value.flags == ("rho_boundary",)
    assert info.value.rho_m == 0.0

    # rho_0 lands on 1 only up to rounding; the tolerance must still catch it
    with pytest.raises(BoundaryCaseError) as info:
        classify(DirectingParams(0.5, 0.3, -0.3), 0)
    assert "rho_boundary" in info.value.flags


def test_classify_propagates_no_equilibrium():
    with pytest.raises(NoEquilibriumError):
        classify(DirectingParams(-0.1, 0.2, 0.2), 0)


def test_classify_coordinate_validation():
    with pytest.raises(InvalidInputError):
        classify(DirectingParams(*ATTRACTIVE), 3)
    with pytest.raises(InvalidInputError):
        classify(DirectingParams(*ATTRACTIVE), 1.5)


def test_classify_depends_only_on_vm_and_rhom():
    # swapping v1 and v2 leaves (v0, rho0) unchanged
    rng = np.random.default_rng(201)
    checked = 0
    while checked < 300:
        v = rng.uniform(-1.0, 1.0, size=3)
        try:
            first = classify(DirectingParams(v[0], v[1], v[2]), 0)
            second = classify(DirectingParams(v[0], v[2], v[1]), 0)
        except (NoEquilibriumError, BoundaryCaseError):
            continue
        checked += 1
        assert first.scenario is second.scenario
        # the swap permutes the summation order inside V, so allow rounding
        assert first.rho_m == pytest.approx(second.rho_m, rel=1e-12, abs=1e-15)
        if first.predicted_limit is None:
            assert second.predicted_limit is None
        else:
            assert first.predicted_limit == pytest.approx(
                second.predicted_limit, rel=1e-12, abs=1e-15
            )


def test_classification_predicates_partition_random_draws():
    rng = np.random.default_rng(202)
    accepted = 0
    while accepted < 1000:
        v = rng.uniform(-1.0, 1.0, size=3)
        m = int(rng.integers(0, 3))
        V = v[1] * v[2] + v[0] * v[2] + v[0] * v[1]
        if abs(V) <= 1e-6:
            continue
        rho_m = (v[1] * v[2], v[0] * v[2], v[0] * v[1])[m] / V
        if abs(v[m]) <= 1e-9 or min(abs(rho_m), abs(rho_m - 1.0)) <= 1e-9:
            continue
        accepted += 1
        interior = 0.0 < rho_m < 1.0
        predicates = (
            v[m] > 0.0 and interior,
            v[m] < 0.0 and interior,
            not interior and v[m] < 0.0,
            not interior and v[m] > 0.0,
        )
        assert sum(predicates) == 1
        report = classify(DirectingParams(*v), m)
        expected = (Scenario.ATTRACTIVE, Scenario.REPULSIVE, Scenario.DOMINANT,
                    Scenario.DEGENERATE)[predicates.index(True)]
        assert report.scenario is expected


# The classification rules and a classify-only sweep row, restated from the
# paper's table without the shortcuts the package takes for speed.

def restated_contraction(params):
    (a, b), (c, d) = reduced_matrix(params)
    a, d = a + 1.0, d + 1.0
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return max(abs((tr + root) / 2.0), abs((tr - root) / 2.0))
    return math.nan if det < 0.0 else math.sqrt(det)


def restated_report(params, coordinate):
    m = operator.index(coordinate)
    eq = compute_equilibrium(params)
    v_m, rho_m = params[m], eq[m]
    flags = [flag for flag, hit in (
        ("v_zero", v_m == 0.0),
        ("rho_boundary", min(abs(rho_m), abs(rho_m - 1.0)) <= CLASSIFY.BOUNDARY_TOL),
    ) if hit]
    if flags:
        raise BoundaryCaseError("restated", flags=flags, rho_m=rho_m, v_m=v_m)
    if 0.0 < rho_m < 1.0:
        scenario = Scenario.ATTRACTIVE if v_m > 0.0 else Scenario.REPULSIVE
        predicted = rho_m if v_m > 0.0 else None
    else:
        scenario = Scenario.DOMINANT if v_m < 0.0 else Scenario.DEGENERATE
        predicted = 1.0 if v_m < 0.0 else 0.0
    return ScenarioReport(coordinate=m, scenario=scenario, rho_m=rho_m, v_m=v_m,
                          predicted_limit=predicted,
                          contraction_factor=restated_contraction(params))


def restated_row(cell, coordinate, init, bound_check):
    m = operator.index(coordinate)
    v = tuple(map(float, cell))
    fields = dict(v0=v[0], v1=v[1], v2=v[2], coordinate=m, v_m=v[m], rho_m=None,
                  predicted_limit=None, contraction_factor=None, simulated_limit=None,
                  agreement=None)
    try:
        params = DirectingParams(*v, bound_check=bound_check)
    except InvalidInputError:
        return SweepRow(**fields, scenario="invalid_params", flags=())
    flags = [] if params.in_model_range else ["params_out_of_range"]
    try:
        report = restated_report(params, m)
    except NoEquilibriumError:
        fields.update(scenario="no_equilibrium", contraction_factor=restated_contraction(params))
    except BoundaryCaseError as exc:
        fields.update(scenario="boundary", rho_m=exc.rho_m,
                      contraction_factor=restated_contraction(params))
        flags += exc.flags
    else:
        fields.update(scenario=report.scenario.value, rho_m=report.rho_m,
                      contraction_factor=report.contraction_factor)
        try:
            fields["predicted_limit"] = report.resolve_limit(init[m])
        except UnresolvedPredictionError:
            flags.append("unresolved_prediction")
    return SweepRow(**fields, flags=tuple(sorted(flags)))


def outcome(fn, *args):
    """``repr`` of ``fn(*args)``, or what its boundary or missing equilibrium carries."""
    try:
        return repr(fn(*args))
    except BoundaryCaseError as exc:
        return "boundary", exc.flags, repr(exc.rho_m), repr(exc.v_m)
    except NoEquilibriumError:
        return "no_equilibrium"


# Grid-like values hit the exact cases: v_m = 0, rho_m on {0, 1}, V = 0 by cancellation.
GRID_VALUES = [0.0, -0.0, 0.1, -0.1, 0.2, 0.25, -0.25, 0.3, -0.3, 0.5, -0.5, 1.0, -1.0]
cube_values = st.one_of(st.sampled_from(GRID_VALUES), st.floats(-1.0, 1.0))
# Outside the cube: run with bound_check=False, or become invalid_params rows.
wild_values = st.one_of(
    cube_values,
    st.sampled_from([math.nan, math.inf, -math.inf, 2.0, -3.0, 1e200, -1e200, 1e308]),
    st.floats(),
)
coordinates = st.one_of(st.integers(0, 2), st.booleans(), st.integers(0, 2).map(np.int64))
starts = st.sampled_from([SimplexPoint(0.5, 0.3, 0.2), SimplexPoint(1 / 3, 1 / 3, 1 / 3)])


@settings(max_examples=600, derandomize=True, deadline=None)
@given(cell=st.one_of(st.tuples(cube_values, cube_values, cube_values),
                      st.tuples(wild_values, wild_values, wild_values)),
       coordinate=coordinates, init=starts, bound_check=st.booleans())
@example(cell=(0.0, 0.2, 0.3), coordinate=0, init=SimplexPoint(0.5, 0.3, 0.2), bound_check=True)
@example(cell=(0.2, 0.0, 0.3), coordinate=True, init=SimplexPoint(0.5, 0.3, 0.2),
         bound_check=True)
@example(cell=(0.5, 0.5, -0.25), coordinate=np.int64(2), init=SimplexPoint(0.5, 0.3, 0.2),
         bound_check=True)
@example(cell=(-0.5, -0.5, -0.5), coordinate=1, init=SimplexPoint(1 / 3, 1 / 3, 1 / 3),
         bound_check=True)
@example(cell=(math.nan, 0.1, 0.1), coordinate=0, init=SimplexPoint(0.5, 0.3, 0.2),
         bound_check=False)
@example(cell=(2.0, -3.0, 0.1), coordinate=True, init=SimplexPoint(0.5, 0.3, 0.2),
         bound_check=False)
def test_classify_and_a_classify_only_sweep_match_the_restated_rules(cell, coordinate, init,
                                                                    bound_check):
    # repr tells True from 1, -0.0 from 0.0 and a NaN from None, and shows every bit
    try:
        params = DirectingParams(*cell, bound_check=bound_check)
    except InvalidInputError:
        pass
    else:
        assert outcome(classify, params, coordinate) == outcome(restated_report, params,
                                                                coordinate)
    (row,) = sweep([cell], coordinate, init, bound_check=bound_check)
    assert repr(row) == repr(restated_row(cell, coordinate, init, bound_check))


MIRRORED = {Scenario.ATTRACTIVE: Scenario.REPULSIVE, Scenario.REPULSIVE: Scenario.ATTRACTIVE,
            Scenario.DOMINANT: Scenario.DEGENERATE, Scenario.DEGENERATE: Scenario.DOMINANT}
cube_cells = st.tuples(cube_values, cube_values, cube_values)
# A cube cell times 2**-e, down to the least subnormal: from e ~ 511 its products underflow,
# and near e = 537 they are a few least subnormals each, so V can be all rounding.
tiny_cells = st.builds(lambda cell, e: tuple(math.ldexp(v, -e) for v in cell), cube_cells,
                       st.one_of(st.integers(0, 1074), st.integers(530, 545)))


def scenario_outcome(cell, coordinate):
    """Coordinate ``coordinate``'s scenario, boundary flags, ``rho_m`` and contraction factor,
    the floats as ``repr``; a missing equilibrium has none of them."""
    try:
        report = classify(DirectingParams(*cell), coordinate)
    except BoundaryCaseError as exc:
        return "boundary", exc.flags, repr(exc.rho_m), None
    except NoEquilibriumError:
        return "no_equilibrium", (), None, None
    return report.scenario, (), repr(report.rho_m), repr(report.contraction_factor)


# v -> -v keeps every pairwise product v_i * v_j, so V and each rho_i, but flips v_m's sign.
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(cell=cube_cells, coordinate=st.integers(0, 2))
@example(cell=(0.0, 0.2, 0.3), coordinate=0)
@example(cell=(0.5, 0.5, -0.25), coordinate=2)
def test_negating_v_swaps_each_scenario_with_its_mirror_and_keeps_rho_m(cell, coordinate):
    scenario, flags, rho_m, _ = scenario_outcome(cell, coordinate)
    negated = scenario_outcome(tuple(-v for v in cell), coordinate)
    assert negated[:3] == (MIRRORED.get(scenario, scenario), flags, rho_m)


# Swapping v0 with v1 swaps rho0 with rho1 and keeps V and rho2 (float products and sums of
# two commute), and reflects the reduced matrix across its antidiagonal: same trace and det.
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(cell=cube_cells, coordinate=st.integers(0, 2))
@example(cell=(0.0, 0.2, 0.3), coordinate=0)
@example(cell=(0.5, 0.5, -0.25), coordinate=2)
def test_swapping_v0_with_v1_and_coordinate_0_with_1_changes_nothing(cell, coordinate):
    swapped = scenario_outcome((cell[1], cell[0], cell[2]), (1, 0, 2)[coordinate])
    assert swapped == scenario_outcome(cell, coordinate)


UNIT_ROUNDOFF = Fraction(1, 2 ** 53)
LEAST_NORMAL = Fraction(1, 2 ** 1022)


def exact_scenario(v_m, rho_m):
    """``classify``'s rules on exact ``v_m`` and ``rho_m``, with no tolerance."""
    if v_m == 0 or rho_m in (0, 1):
        return "boundary"
    if 0 < rho_m < 1:
        return Scenario.ATTRACTIVE if v_m > 0 else Scenario.REPULSIVE
    return Scenario.DOMINANT if v_m < 0 else Scenario.DEGENERATE


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(cell=st.one_of(cube_cells, tiny_cells))
@example(cell=(0.3, 0.6, -0.2))  # V = 0 in decimals, not in the floats' exact values
@example(cell=(5e-324, 0.75, 0.75))  # two products round up to the least subnormal
@example(cell=(0.0, 1.0, 5e-324))  # V is the least subnormal: no equilibrium
@example(cell=(-2e-323, 1.5e-322, 0.16679128018481126))  # a subnormal V: no equilibrium
@example(cell=(1e-150, 1e-150, -5.000000005e-151))  # normal products, V subnormal: exact sum
# every product underflows: rho was (2, 1, -2) against the exact (2.96, 1.50, -3.46), k = 2.3
@example(cell=(-2.3494635800381015e-162, -4.656468321295535e-162, 2.0129455232895262e-162))
@example(cell=(0.5, -0.25, 0.25))  # rho0 = 1 exactly: v1 = -v2
def test_classify_matches_an_exact_rational_reference_within_a_derived_error_bound(cell):
    """Each float is taken as its exact rational; ``Fraction`` gives the exact products
    ``P_i`` (``P_0 = v1*v2``, ...), ``V = sum(P_i)`` and ``rho_i = P_i / V``.

    Scenario: where ``classify`` gives one (neither ``no_equilibrium`` nor ``boundary``),
    the exact one is the same, for every coordinate.

    Error bound.  IEEE doubles round to nearest, with unit roundoff ``u = 2**-53``.  A
    product or quotient ``x`` is off by at most half an ulp, ``u |x|`` for a normal
    result and ``t = u 2**-1022 = 2**-1075`` for a subnormal one, and never by more
    than ``|x|`` (0 is a double); a sum is ``x (1 + d)`` with ``|d| <= u`` (a subnormal
    sum is exact).  ``compute_equilibrium`` forms ``p_i = P_i + e_i`` with ``|e_i| <= E_i
    = min(u max(|P_i|, 2**-1022), |P_i|)``, then ``D = (p_0 + p_1) + p_2`` and ``r_i =
    p_i / D``.  Two sum roundings give ``|D - sum(p_i)| <= gamma_2 sum|p_i|`` with
    ``gamma_2 = 2u / (1 - 2u)``, so ``D = V (1 + s)``, ``|s| <= k = (gamma_2 sum|P_i| +
    (1 + gamma_2) sum(E_i)) / |V|``, and::

        r_i = (rho_i + e_i / V)(1 + d) / (1 + s) + e,   |d| <= u, |e| <= t
        |r_i - rho_i| <= (|rho_i| (u + k) + E_i (1 + u) / |V|) / (1 - k) + t

    which holds while ``k < 1``.  Away from underflow ``E_i = u |P_i|``, so the bound is
    about ``|rho_i| (2u + k) / (1 - k)`` with ``k ~ 3u sum|P_i| / |V|``; past the
    ``SINGULAR_REL_TOL = 1e-14`` guard, ``|D| > 1e-14 max|p_i|`` gives ``|V| >~ 9e-15
    max|P_i|`` and so ``k <~ 0.11``; this holds for a subnormal ``D`` too, since a sum
    whose result is subnormal is exact.  Where a product underflows, ``E_i <= u |P_i| +
    t``, and ``compute_equilibrium`` then also refuses ``|D| < 2**-1022``, so ``3t <= 3u
    |D|`` and ``k`` stays ``<~ 0.11``.  Without that floor a ``V`` of a few least
    subnormals (all three ``|v_i|`` near 1e-162) gave ``k >= 1``, and ``r_i`` with no
    correct digit.  The bound is evaluated in ``Fraction``, with no rounding of its own.
    """
    v = tuple(map(Fraction, cell))
    products = (v[1] * v[2], v[0] * v[2], v[0] * v[1])
    exact_v = sum(products)
    for m in range(3):
        scenario = scenario_outcome(cell, m)[0]
        if scenario not in ("no_equilibrium", "boundary"):
            assert exact_v != 0
            assert scenario is exact_scenario(v[m], products[m] / exact_v)
    try:
        eq = compute_equilibrium(DirectingParams(*cell))
    except NoEquilibriumError:
        return
    assert exact_v != 0
    u, t = UNIT_ROUNDOFF, UNIT_ROUNDOFF * LEAST_NORMAL
    gamma_2 = 2 * u / (1 - 2 * u)
    errors = [min(u * max(abs(product), LEAST_NORMAL), abs(product)) for product in products]
    k = (gamma_2 * sum(map(abs, products)) + (1 + gamma_2) * sum(errors)) / abs(exact_v)
    assert k < 1
    for rho, product, error in zip(eq[:3], products, errors):
        exact_rho = product / exact_v
        bound = (abs(exact_rho) * (u + k) + error * (1 + u) / abs(exact_v)) / (1 - k) + t
        assert abs(Fraction(rho) - exact_rho) <= bound


# --------------------------------------------------------- estimate_limit

def test_estimate_limit_attractive():
    est = estimate_limit(DirectingParams(*ATTRACTIVE), SimplexPoint(0.5, 0.3, 0.2), 0, tol=1e-10)
    assert est.converged
    assert est.value == pytest.approx(1 / 3, abs=1e-8)
    assert est.terminal_delta <= 1e-10


def test_estimate_limit_from_equilibrium_start():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    est = estimate_limit(eq.params, SimplexPoint(*eq.rho), 0, tol=1e-10)
    assert est.converged
    assert est.value == pytest.approx(eq.rho0, abs=1e-12)


def test_estimate_limit_repulsive_absorbs():
    est = estimate_limit(DirectingParams(*REPULSIVE), SimplexPoint(0.5, 0.25, 0.25), 0)
    assert est.converged
    assert est.value == 0.0
    assert est.terminal_delta == 0.0


def test_estimate_limit_reports_non_convergence():
    est = estimate_limit(
        DirectingParams(*ATTRACTIVE), SimplexPoint(0.5, 0.3, 0.2), 0, tol=1e-10, max_steps=5
    )
    assert not est.converged
    assert est.steps_used == 5


def test_estimate_limit_validation():
    params = DirectingParams(*ATTRACTIVE)
    init = SimplexPoint(0.5, 0.3, 0.2)
    with pytest.raises(InvalidInputError, match="tol must be positive, got 0.0"):
        estimate_limit(params, init, 0, tol=0.0)
    with pytest.raises(InvalidInputError, match="max_steps must be >= 1, got 0"):
        estimate_limit(params, init, 0, max_steps=0)
    with pytest.raises(InvalidInputError, match="window must be >= 1, got 0"):
        estimate_limit(params, init, 0, window=0)


# ------------------------------------------------- agreement of sweep rows

def test_agreement_attractive():
    row, = sweep([ATTRACTIVE], 0, SimplexPoint(0.5, 0.3, 0.2), simulate=True)
    assert row.agreement == "agree"
    assert row.predicted_limit == pytest.approx(1 / 3, abs=1e-12)


def test_agreement_unresolved_at_exact_threshold():
    report = classify(DirectingParams(*REPULSIVE), 0)
    half = (1.0 - report.rho_m) / 2.0
    init = SimplexPoint(report.rho_m, half, half)
    with pytest.raises(UnresolvedPredictionError):
        report.resolve_limit(init[0])
    row, = sweep([REPULSIVE], 0, init, simulate=True)
    assert row.agreement is None and "unresolved_prediction" in row.flags


def test_agreement_disagree_carries_both_values():
    row, = sweep([(-0.45, -0.9, 0.45)], 0, SimplexPoint(0.5, 0.3, 0.2), simulate=True)
    assert (row.scenario, row.predicted_limit, row.simulated_limit, row.agreement) == (
        "dominant", 1.0, 0.0, "disagree")


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_agreement_rejects_nonpositive_tol(tol):
    with pytest.raises(InvalidInputError, match="agreement_tol must be positive"):
        sweep((), 0, SimplexPoint(0.5, 0.3, 0.2), agreement_tol=tol)


def test_agreement_curated_families_match_predictions():
    # worked parameter sets plus 20 nearby triples each, simulated from the interior
    rng = np.random.default_rng(7)
    init = SimplexPoint(0.5, 0.25, 0.25)
    for base in (REPULSIVE, DOMINANT, DEGENERATE):
        want = classify(DirectingParams(*base), 0).scenario
        cells = [np.asarray(base)]
        while len(cells) < 21:
            v = np.asarray(base) + rng.uniform(-0.02, 0.02, size=3)
            try:
                report = classify(DirectingParams(*v), 0)
            except (NoEquilibriumError, BoundaryCaseError):
                continue
            if report.scenario is want:
                cells.append(v)
        rows = sweep(cells, 0, init, simulate=True)
        assert [row.agreement for row in rows] == ["agree"] * len(cells)


def test_agreement_attractive_random_family():
    # small positive parameters give an interior equilibrium reached from anywhere
    rng = np.random.default_rng(8)
    excluded = 0
    for _ in range(200):
        params = DirectingParams(*rng.uniform(1e-3, 0.3, size=3))
        if contraction_factor(params) >= 1.0:
            excluded += 1
            continue
        eq = compute_equilibrium(params)
        assert all(0.0 < r < 1.0 for r in eq.rho)
        m = int(rng.integers(0, 3))
        for _ in range(10):
            q = rng.uniform(0.05, 1.0, size=3)
            q = q / q.sum()
            row, = sweep([params], m, SimplexPoint(*q), simulate=True, max_steps=20000)
            assert (row.predicted_limit, row.agreement, row.flags) == (eq.rho[m], "agree", ())
    assert excluded == 0


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(cell=cube_cells, init=interior_starts)
@example(cell=(-0.9, 0.09, 0.09), init=SimplexPoint(0.5, 0.3, 0.2))  # predicts (1, .526, .526)
@example(cell=(0.1, -1.0, -1.0), init=SimplexPoint(1 / 3, 1 / 3, 1 / 3))  # ends at (0, .5, .5)
@example(cell=(-1e-05, 0.26144390386838917, 1e-06),  # not converged in 10,000 steps
         init=SimplexPoint(0.5970299505343377, 0.40297004792433727, 1.5413250871865515e-09))
@example(cell=(-2.665518189104184e-118,) * 3,  # no step moves the start
         init=SimplexPoint(0.059735703619015576, 0.5427271591465959, 0.39753713723438844))
def test_an_inconsistent_vector_prediction_ends_at_a_vertex(cell, init):
    """PAPER.md analyses a ternary experiment as one three-dimensional vector.

    The three one-coordinate predictions of a cell need not form a probability
    vector.  Where they do not sum to 1 (within 1e-9), the clamped limit is a
    vertex: each coordinate's estimated limit is 0 or 1, and exactly one is 1.
    This held on every such cell of 40,000 uniform cube cells.  Two kinds of
    cell are counterexamples, recorded under ROADMAP item 12, and no other:

    * a symmetric one, ``v_i = v_j`` with ``p_i = p_j`` at the start (within
      an ulp of 1): the exact map keeps ``p_i = p_j``, so no vertex of ``i`` or
      ``j`` is reached; it ends at the midpoint of their edge, for one;
    * one that ``estimate_limit`` does not follow to its limit: it does not
      converge in ``max_steps``, or every step of its first ``window`` moves
      by at most ``tol`` (with ``|v|`` near 1e-118 no step moves the start).
    """
    params = DirectingParams(*cell)
    try:
        predicted = [classify(params, m).resolve_limit(init[m]) for m in range(3)]
    except (NoEquilibriumError, BoundaryCaseError, UnresolvedPredictionError):
        return
    if abs(sum(predicted) - 1.0) <= 1e-9:
        return
    estimates = [estimate_limit(params, init, m) for m in range(3)]
    if sorted(e.value for e in estimates) == [0.0, 0.0, 1.0]:
        return
    symmetric = any(cell[i] == cell[j] and abs(init[i] - init[j]) <= 2.0 ** -52
                    for i, j in itertools.combinations(range(3), 2))
    unsettled = not estimates[0].converged or estimates[0].steps_used <= DEFAULT_WINDOW
    assert symmetric or unsettled


# ------------------------------------------------------------------ sweep

def test_sweep_demo_grid_has_four_distinct_scenarios():
    rows = sweep(DEMO_CELLS, 0, SimplexPoint(0.5, 0.3, 0.2))
    assert [r.scenario for r in rows] == ["attractive", "repulsive", "dominant", "degenerate"]


def test_sweep_simulate_adds_limits_and_agreement():
    rows = sweep(DEMO_CELLS, 0, SimplexPoint(0.5, 0.3, 0.2), simulate=True)
    assert [r.agreement for r in rows] == ["agree"] * 4
    assert rows[0].simulated_limit == pytest.approx(1 / 3, abs=1e-6)
    assert rows[1].simulated_limit == 0.0
    assert rows[2].simulated_limit == 1.0
    assert rows[3].simulated_limit == 0.0


def test_sweep_records_cell_errors_as_markers():
    cells = [(-0.1, 0.2, 0.2), (0.1, 0.0, 0.1), (2.0, 1.0, 1.0), ATTRACTIVE]
    rows = sweep(cells, 0, SimplexPoint(0.5, 0.3, 0.2))
    assert rows[0].scenario == "no_equilibrium"
    assert rows[0].rho_m is None
    assert rows[1].scenario == "boundary"
    assert rows[1].flags == ("rho_boundary",)
    assert rows[1].rho_m == 0.0
    assert rows[2].scenario == "invalid_params"
    assert rows[3].scenario == "attractive"


@pytest.mark.parametrize("simulate", [False, True])
@pytest.mark.parametrize("cells", [[(2.0, 2.0, 2.0), (0.0, 0.1, 0.1)], []],
                         ids=["unsimulated", "empty"])
@pytest.mark.parametrize("settings, message", [
    ({"tol": -1.0}, "tol must be positive, got -1.0"),
    ({"tol": math.nan}, "tol must be positive, got nan"),
    ({"max_steps": 0}, "max_steps must be >= 1, got 0"),
    ({"max_steps": 1.5}, "max_steps must be an integer, got 1.5"),
], ids=["tol-1", "tol-nan", "max_steps-0", "max_steps-1.5"])
def test_sweep_checks_limit_settings_before_the_first_cell(cells, simulate, settings, message):
    # no cell here reaches estimate_limit: out of range, boundary, or no cell at all
    with pytest.raises(InvalidInputError, match=message):
        sweep(cells, 0, SimplexPoint(0.5, 0.3, 0.2), simulate=simulate, **settings)


def test_sweep_nan_denominator_cell_is_a_marker_row():
    cells = [(1e200, 1e200, -1e200), (0.1, 0.2, 0.3)]
    rows = sweep(cells, 0, SimplexPoint(0.5, 0.3, 0.2), bound_check=False)
    assert rows[0].scenario == "no_equilibrium"
    assert math.isnan(rows[0].contraction_factor)
    assert rows[0].flags == ("params_out_of_range",)
    assert rows[1] == sweep(cells[1:], 0, SimplexPoint(0.5, 0.3, 0.2))[0]


def test_sweep_overflowing_no_equilibrium_cell_is_a_marker_row():
    # the trace of the reduced matrix is NaN and its determinant -inf
    cell = (1e308, -1e308, 1.5e308)
    assert math.isnan(contraction_factor(DirectingParams(*cell, bound_check=False)))
    rows = sweep([ATTRACTIVE, cell], 0, SimplexPoint(0.5, 0.3, 0.2), bound_check=False)
    assert rows[1].scenario == "no_equilibrium"
    assert math.isnan(rows[1].contraction_factor)
    assert rows[1].flags == ("params_out_of_range",)
    assert rows[0] == sweep([ATTRACTIVE], 0, SimplexPoint(0.5, 0.3, 0.2))[0]


def test_sweep_infinite_denominator_cell_is_a_marker_row():
    # finite pairwise products whose sum overflows to V = inf
    cell = (1e154, 1e154, 1e154)
    params = DirectingParams(*cell, bound_check=False)
    rows = sweep([cell, ATTRACTIVE], 0, SimplexPoint(0.5, 0.3, 0.2), bound_check=False)
    assert rows[0].scenario == "no_equilibrium"
    assert rows[0].contraction_factor == contraction_factor(params)
    assert rows[0].flags == ("params_out_of_range",)
    assert rows[1] == sweep([ATTRACTIVE], 0, SimplexPoint(0.5, 0.3, 0.2))[0]


@pytest.mark.parametrize("cell", [("a", "b", "c"), (0.1, 0.2, None), 0.1, (10**400, 0.1, 0.1)],
                         ids=["strings", "none", "scalar", "int-overflow"])
def test_sweep_rejects_a_cell_that_is_not_numeric(cell):
    with pytest.raises(InvalidInputError, match="grid cells must be triples of numbers, got"):
        sweep([ATTRACTIVE, cell], 0, SimplexPoint(0.5, 0.3, 0.2))


@pytest.mark.parametrize("cells", [[(0.1, 0.2)], [ATTRACTIVE, (0.1, 0.2)]],
                         ids=["first", "second"])
def test_sweep_rejects_a_cell_that_is_not_a_triple(cells):
    with pytest.raises(InvalidInputError, match="grid cells must be triples"):
        sweep(cells, 0, SimplexPoint(0.5, 0.3, 0.2))


def test_sweep_degenerate_clamp_row_keeps_the_classification(monkeypatch):
    def boom(rows, p):
        raise DegenerateClampError("all mass clipped")

    init = SimplexPoint(0.5, 0.3, 0.2)
    classified = sweep(DEMO_CELLS, 0, init)
    monkeypatch.setattr(CLASSIFY, "_clamped_step", boom)
    rows = sweep(DEMO_CELLS, 0, init, simulate=True)
    assert len(rows) == len(DEMO_CELLS)
    for row, plain in zip(rows, classified):
        assert row._replace(flags=()) == plain._replace(flags=())
        assert (row.simulated_limit, row.agreement) == (None, None)
        assert row.flags == ("degenerate_clamp",)


@pytest.mark.parametrize("cell", [(1e308, 0.5, 0.3), (-1e308, 0.5, 0.3)])
def test_sweep_matrix_overflow_row_keeps_the_classification(cell):
    # 2*v_m overflows in the regression matrix; classify still works
    cells = [ATTRACTIVE, cell, REPULSIVE]
    init = SimplexPoint(0.5, 0.3, 0.2)
    classified = sweep(cells, 1, init, bound_check=False)
    rows = sweep(cells, 1, init, simulate=True, bound_check=False)
    assert rows[1]._replace(flags=()) == classified[1]._replace(flags=())
    assert (rows[1].simulated_limit, rows[1].agreement) == (None, None)
    assert rows[1].flags == ("matrix_overflow", "params_out_of_range")
    for i in (0, 2):
        assert rows[i] == sweep([cells[i]], 1, init, simulate=True)[0]


def test_sweep_out_of_range_cells_flagged_when_allowed():
    rows = sweep([(2.0, 1.0, 1.0)], 0, SimplexPoint(0.5, 0.3, 0.2), bound_check=False)
    assert rows[0].scenario in {"attractive", "repulsive", "dominant", "degenerate"}
    assert "params_out_of_range" in rows[0].flags


class _Float(float):
    """A float subclass; ``sweep`` reads it as the float it holds."""


_EDGES = (1.0, -1.0, math.nextafter(1.0, math.inf), math.nextafter(-1.0, -math.inf), 0.0, -0.0,
          5e-324, math.nan, math.inf, -math.inf, 1e308)
_TYPED_CELLS = [
    (1, 0, -1), (2, 0, 1), (True, False, True), (np.float64(0.25), np.float64(-1.0), 0.5),
    (np.float64(1.5), 0.1, 0.1), (Fraction(1, 3), Fraction(-1, 2), Fraction(1)),
    (Fraction(3, 2), Fraction(1, 7), 0.2), (_Float(0.5), _Float(-0.75), _Float(1.0)),
    (_Float(math.nan), 0.1, 0.1), (1, Fraction(-1, 3), np.float64(0.2)), (10**400, 0.1, 0.1),
]
_component = st.one_of(
    st.sampled_from(_EDGES), st.floats(-1.5, 1.5), st.floats(), st.integers(-2, 2), st.booleans(),
    st.fractions(-2, 2, max_denominator=1000), st.floats(-1.5, 1.5).map(np.float64),
    st.floats(-1.5, 1.5).map(_Float))


def _sweep_one_cell(cell, force_constructor, **kwargs):
    """``repr`` of a one-cell sweep's rows and of the parameters classified, or the error text.

    With ``force_constructor`` the in-range helper always returns ``None``, so the cell is
    built by the validating ``DirectingParams``.  Otherwise the test checks that the helper
    skips the checks exactly for three floats in [-1, 1].
    """
    in_range = CLASSIFY._params_in_range
    classified = []

    def recording_classify(params, coordinate):
        classified.append(params)
        return classify(params, coordinate)

    def checked_helper(*values):
        params = in_range(*values)
        floats = tuple(map(float, cell))
        assert (params is not None) == all(-1.0 <= v <= 1.0 for v in floats)
        if params is not None:
            assert type(params) is DirectingParams and params == floats
            assert all(type(v) is float for v in params)
        return params

    with pytest.MonkeyPatch.context() as m:
        m.setattr(CLASSIFY, "classify", recording_classify)
        m.setattr(CLASSIFY, "_params_in_range",
                  (lambda *values: None) if force_constructor else checked_helper)
        try:
            rows = sweep([cell], 0, SimplexPoint(0.5, 0.3, 0.2), **kwargs)
        except InvalidInputError as exc:
            return str(exc)
    return repr(rows), repr(classified)


def _assert_fast_path_gives_constructor_rows(cell, **kwargs):
    assert _sweep_one_cell(cell, False, **kwargs) == _sweep_one_cell(cell, True, **kwargs)


_SWEEP_SETTINGS = pytest.mark.parametrize("bound_check, simulate", list(itertools.product(
    [True, False], [False, True])))


@_SWEEP_SETTINGS
def test_sweep_fast_path_rows_equal_the_constructor_rows_on_edge_cells(bound_check, simulate):
    for cell in [*itertools.product(_EDGES, repeat=3), *_TYPED_CELLS]:
        _assert_fast_path_gives_constructor_rows(cell, bound_check=bound_check, simulate=simulate)


@_SWEEP_SETTINGS
@settings(max_examples=300, derandomize=True, deadline=None)
@given(cell=st.tuples(_component, _component, _component))
def test_sweep_fast_path_rows_equal_the_constructor_rows(cell, bound_check, simulate):
    _assert_fast_path_gives_constructor_rows(cell, bound_check=bound_check, simulate=simulate)


def test_sweep_unresolved_prediction_flag():
    report = classify(DirectingParams(*REPULSIVE), 0)
    half = (1.0 - report.rho_m) / 2.0
    rows = sweep([REPULSIVE], 0, SimplexPoint(report.rho_m, half, half))
    assert rows[0].predicted_limit is None
    assert "unresolved_prediction" in rows[0].flags


def test_sweep_empty_grid():
    assert sweep([], 0, SimplexPoint(0.5, 0.3, 0.2)) == []


def test_sweep_deterministic_across_runs_and_sub_grids():
    cells = list(itertools.product(
        [round(-0.3 + 0.1 * i, 12) for i in range(7)], [0.2], [0.3]
    ))
    init = SimplexPoint(0.5, 0.3, 0.2)
    base = sweep(cells, 0, init, simulate=True)
    assert emitted(write_table, "csv", SWEEP_HEADER, base) == emitted(
        write_table, "csv", SWEEP_HEADER, sweep(cells, 0, init, simulate=True))
    # each row depends only on its own cell: any sub-grid gives the matching rows
    for sub in (cells[::2], cells[5:], cells[3:4], cells[::-1]):
        picked = [base[cells.index(cell)] for cell in sub]
        assert (emitted(write_table, "csv", SWEEP_HEADER, sweep(sub, 0, init, simulate=True))
                == emitted(write_table, "csv", SWEEP_HEADER, picked))


def test_sweep_reference_grid_counts_and_output():
    # The 21^3 reference grid of ROADMAP.md; perfbench/roadmap_counts.py runs it through the CLI.
    axis = _axis("-0.9:0.9:0.09")
    rows = sweep(list(itertools.product(axis, axis, axis)), 0, SimplexPoint(0.5, 0.3, 0.2),
                 simulate=True)
    assert len(rows) == 9261
    assert sum(row.agreement is not None for row in rows) == 7537
    assert sum(row.agreement == "disagree" for row in rows) == 2325
    assert sum("not_converged" in row.flags for row in rows) == 470
    text = emitted(write_table, "csv", SWEEP_HEADER, rows)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "20acd7d4201ea16bc8b3d84de406fbae274c8bf35a95d2abfe925d0d0bb2201b"
    )


def test_grid_cells_order(capsys):
    # an axis sweep runs v0 outermost and v2 innermost
    assert cli.main(["sweep", "--v0", "1:2:1", "--v1", "10", "--v2", "100:200:100",
                     "--allow-out-of-range", "--init", "0.5,0.3,0.2"]) == 0
    cells = [tuple(map(float, line.split(",")[:3]))
             for line in capsys.readouterr().out.splitlines()[1:]]
    assert cells == [(1.0, 10.0, 100.0), (1.0, 10.0, 200.0),
                     (2.0, 10.0, 100.0), (2.0, 10.0, 200.0)]
