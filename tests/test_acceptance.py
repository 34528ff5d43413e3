"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import csv
import io
from contextlib import contextmanager

import numpy as np
import pytest

from ternary_dynamics import (
    BoundaryCaseError,
    DirectingParams,
    NoEquilibriumError,
    RawState,
    SampleConfig,
    Scenario,
    SimplexPoint,
    check_agreement,
    classify,
    compute_equilibrium,
    estimate_limit,
    lln_diagnostic,
    reduced_matrix,
    step_raw,
    to_fluctuation,
    trajectory,
)
from ternary_dynamics.cli import main
from ternary_dynamics.serialize import DEVIATION_HEADER, write_table


def emitted(emit, *args, **kwargs):
    """The text ``emit`` writes to a stream, given the rest of its arguments."""
    buf = io.StringIO()
    emit(buf, *args, **kwargs)
    return buf.getvalue()


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def matrix_rows(v0, v1, v2):
    # rebuilt inline from the defining pattern, independent of the library
    return ((2 * v0, -v1, -v2), (-v0, 2 * v1, -v2), (-v0, -v1, 2 * v2))


def random_simplex(rng):
    p = rng.uniform(0.0, 1.0, size=3)
    return p / p.sum()


def test_01_equilibrium_correctness():
    with criterion("equilibrium correctness (1000 random triples)"):
        rng = np.random.default_rng(42)
        accepted = 0
        while accepted < 1000:
            v0, v1, v2 = rng.uniform(-1.0, 1.0, size=3)
            if abs(v1 * v2 + v0 * v2 + v0 * v1) <= 1e-6:
                continue
            accepted += 1
            eq = compute_equilibrium(DirectingParams(v0, v1, v2))
            residual = max(
                abs(r[0] * eq.rho0 + r[1] * eq.rho1 + r[2] * eq.rho2)
                for r in matrix_rows(v0, v1, v2)
            )
            assert residual <= 1e-12
            assert abs(eq.rho0 + eq.rho1 + eq.rho2 - 1.0) <= 1e-12


def test_02_balance_conservation():
    with criterion("balance conservation (1000 raw steps + conversions)"):
        rng = np.random.default_rng(43)
        steps_done = 0
        while steps_done < 1000:
            v = rng.uniform(-1.0, 1.0, size=3)
            state = RawState(*random_simplex(rng))
            out = step_raw(DirectingParams(*v), state)
            assert abs(out.p0 + out.p1 + out.p2 - 1.0) <= 1e-12
            steps_done += 1
        conversions = 0
        while conversions < 1000:
            v = rng.uniform(-1.0, 1.0, size=3)
            if abs(v[1] * v[2] + v[0] * v[2] + v[0] * v[1]) <= 1e-6:
                continue
            eq = compute_equilibrium(DirectingParams(*v))
            f = to_fluctuation(RawState(*random_simplex(rng)), eq)
            assert abs(f.f0 + f.f1 + f.f2) <= 1e-12
            conversions += 1


def test_03_worked_step_oracle():
    with criterion("worked single-step oracle"):
        out = step_raw(DirectingParams(0.1, 0.1, 0.1), RawState(0.5, 0.3, 0.2))
        for got, want in zip(out, (0.45, 0.31, 0.24)):
            assert abs(got - want) <= 1e-15


def test_04_attractive_scenario():
    with criterion("attractive scenario limit"):
        params = DirectingParams(0.1, 0.1, 0.1)
        init = SimplexPoint(0.5, 0.3, 0.2)
        states = trajectory(params, init, 60, mode="raw")
        assert abs(states[60].p0 - 1 / 3) <= 1e-8
        estimate = estimate_limit(params, init, 0, tol=1e-10)
        assert estimate.converged
        report = classify(params, 0)
        assert check_agreement(report, estimate, init, tol=1e-6).agree


def test_05_repulsive_scenario():
    with criterion("repulsive scenario two-sided limits"):
        params = DirectingParams(-0.2, 0.5, -0.4)
        eq = compute_equilibrium(params)
        assert abs(eq.rho0 - 0.909091) <= 1e-6

        below = trajectory(params, SimplexPoint(0.5, 0.25, 0.25), 10**4, mode="clamped")
        assert any(s.p0 <= 1e-6 for s in below)

        above = trajectory(params, SimplexPoint(0.95, 0.025, 0.025), 10**4, mode="clamped")
        assert any(s.p0 >= 1.0 - 1e-6 for s in above)


def test_06_dominant_and_degenerate_scenarios():
    with criterion("dominant and degenerate scenario limits"):
        init = SimplexPoint(0.5, 0.3, 0.2)

        dominant = DirectingParams(-0.1, 0.3, 0.2)
        estimate = estimate_limit(dominant, init, 0, tol=1e-10, max_steps=10**4)
        assert estimate.converged
        assert abs(estimate.value - 1.0) <= 1e-6
        report = classify(dominant, 0)
        assert report.scenario is Scenario.DOMINANT
        assert check_agreement(report, estimate, init, tol=1e-6).agree

        degenerate = DirectingParams(0.3, -0.1, 0.2)
        estimate = estimate_limit(degenerate, init, 0, tol=1e-10, max_steps=10**4)
        assert estimate.converged
        assert abs(estimate.value - 0.0) <= 1e-6
        report = classify(degenerate, 0)
        assert report.scenario is Scenario.DEGENERATE
        assert check_agreement(report, estimate, init, tol=1e-6).agree


def test_07_partition_property():
    with criterion("four-way partition over 10^4 random draws"):
        rng = np.random.default_rng(44)
        accepted = 0
        while accepted < 10**4:
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
            classify(DirectingParams(*v), m)

        # designated boundary outcomes, never a scenario
        with pytest.raises(BoundaryCaseError):
            classify(DirectingParams(0.1, 0.0, 0.1), 1)  # v_m = 0
        with pytest.raises(BoundaryCaseError):
            classify(DirectingParams(0.1, 0.0, 0.1), 0)  # rho_m = 0
        with pytest.raises(BoundaryCaseError):
            classify(DirectingParams(0.0, 0.2, 0.3), 0)  # rho_m = 1
        with pytest.raises(NoEquilibriumError):
            classify(DirectingParams(-0.1, 0.2, 0.2), 0)  # V = 0


def test_08_reduced_system_equivalence():
    with criterion("reduced 2x2 step equals full step (1000 draws)"):
        rng = np.random.default_rng(45)
        checked = 0
        while checked < 1000:
            v = rng.uniform(-1.0, 1.0, size=3)
            if abs(v[1] * v[2] + v[0] * v[2] + v[0] * v[1]) <= 1e-6:
                continue
            checked += 1
            params = DirectingParams(*v)
            eq = compute_equilibrium(params)
            state = RawState(*random_simplex(rng))
            f = to_fluctuation(state, eq)
            (a, b), (c, d) = reduced_matrix(params)
            reduced = (f.f0 + (a * f.f0 + b * f.f1), f.f1 + (c * f.f0 + d * f.f1))
            out = step_raw(params, state)
            assert abs((out.p0 - eq.rho0) - reduced[0]) <= 1e-12
            assert abs((out.p1 - eq.rho1) - reduced[1]) <= 1e-12


def test_09_lln_diagnostic():
    with criterion("law-of-large-numbers deviation shrinks with volume"):
        params = DirectingParams(0.1, 0.1, 0.1)
        init = SimplexPoint(0.5, 0.3, 0.2)
        cfg = SampleConfig(sample_volume=100, replications=30, seed=42, steps=50)
        rows = lln_diagnostic(params, init, [100, 10000], cfg)
        assert rows[1].median_max_deviation < rows[0].median_max_deviation
        rerun = lln_diagnostic(params, init, [100, 10000], cfg)
        assert (emitted(write_table, "csv", DEVIATION_HEADER, rows)
                == emitted(write_table, "csv", DEVIATION_HEADER, rerun))


def test_10_cli_contract(capsys):
    with criterion("CLI sweep labels and exit codes"):
        code = main([
            "sweep",
            "--cells", "0.1,0.1,0.1;-0.2,0.5,-0.4;-0.1,0.3,0.2;0.3,-0.1,0.2",
            "--m", "0",
            "--init", "0.5,0.3,0.2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        table = list(csv.reader(io.StringIO(out)))
        scenarios = sorted(row[6] for row in table[1:])
        assert scenarios == ["attractive", "degenerate", "dominant", "repulsive"]

        assert main(["equilibrium", "--v", "-0.1,0.2,0.2"]) == 3
        assert main(["equilibrium", "--v", "2,1,1"]) == 2
        capsys.readouterr()
