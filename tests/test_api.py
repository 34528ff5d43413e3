"""The package's public names, signatures and record fields.

``PUBLIC`` spells out ``ternary_dynamics.__all__``, so a name leaves or joins
the public API only when this list changes with it.  ``SIGNATURES`` and
``FIELDS`` do the same for the parameters of every public function and the
fields of every public record and value type.
"""

import inspect

import ternary_dynamics

PUBLIC = [
    "BoundaryCaseError",
    "DegenerateClampError",
    "DeviationRow",
    "DirectingParams",
    "EmpiricalTrajectory",
    "Equilibrium",
    "FluctuationVector",
    "InvalidInputError",
    "LimitEstimate",
    "ModelError",
    "NoEquilibriumError",
    "RawState",
    "SampleConfig",
    "Scenario",
    "ScenarioReport",
    "SimplexPoint",
    "SweepRow",
    "UnresolvedPredictionError",
    "build_regression_matrix",
    "classify",
    "compute_equilibrium",
    "contraction_factor",
    "estimate_limit",
    "lln_diagnostic",
    "reduced_matrix",
    "replication_stream",
    "run_replications",
    "step_clamped",
    "step_raw",
    "stochastic_step",
    "sweep",
    "to_fluctuation",
    "trajectory",
]

SIGNATURES = {
    "build_regression_matrix": "(params)",
    "classify": "(params, coordinate=0)",
    "compute_equilibrium": "(params)",
    "contraction_factor": "(params)",
    "estimate_limit": "(params, init, tol=1e-10, max_steps=10000)",
    "lln_diagnostic": "(params, init, volumes, cfg)",
    "reduced_matrix": "(params)",
    "replication_stream": "(seed, replication)",
    "run_replications": "(params, init, n, cfg)",
    "step_clamped": "(params, state)",
    "step_raw": "(params, state)",
    "stochastic_step": "(params, freq, n, rng)",
    "sweep": "(cells, coordinate=0, init=SimplexPoint(p0=0.3333333333333333, "
             "p1=0.3333333333333333, p2=0.3333333333333333), simulate=False, *, "
             "bound_check=True, tol=1e-10, max_steps=10000, agreement_tol=1e-06)",
    "to_fluctuation": "(state, eq)",
    "trajectory": "(params, init, steps, mode='raw')",
}

FIELDS = {
    "DeviationRow": ("sample_volume", "median_max_deviation", "replications"),
    "DirectingParams": ("v0", "v1", "v2"),
    "EmpiricalTrajectory": ("replication", "seed", "sample_volume", "init", "counts"),
    "Equilibrium": ("rho0", "rho1", "rho2", "v_denominator", "params"),
    "FluctuationVector": ("f0", "f1", "f2"),
    "LimitEstimate": ("state", "converged", "steps_used", "terminal_delta"),
    "RawState": ("p0", "p1", "p2"),
    "SampleConfig": ("replications", "seed", "steps"),
    "ScenarioReport": ("coordinate", "scenario", "rho_m", "v_m", "predicted_limit",
                       "contraction_factor"),
    "SimplexPoint": ("p0", "p1", "p2"),
    "SweepRow": ("v0", "v1", "v2", "coordinate", "rho_m", "v_m", "scenario", "predicted_limit",
                 "contraction_factor", "simulated_limit", "agreement", "flags"),
}


def test_all_is_the_public_list():
    assert PUBLIC == sorted(PUBLIC)
    assert ternary_dynamics.__all__ == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from ternary_dynamics import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(ternary_dynamics, name)


def test_public_signatures_and_fields_are_pinned():
    public = {name: getattr(ternary_dynamics, name) for name in PUBLIC}
    assert {name: str(inspect.signature(f))
            for name, f in public.items() if inspect.isfunction(f)} == SIGNATURES
    assert {name: t._fields for name, t in public.items() if hasattr(t, "_fields")} == FIELDS
