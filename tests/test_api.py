"""The package's public names.

``PUBLIC`` spells out ``ternary_dynamics.__all__``, so a name leaves or joins
the public API only when this list changes with it.
"""

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


def test_all_is_the_public_list():
    assert PUBLIC == sorted(PUBLIC)
    assert ternary_dynamics.__all__ == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from ternary_dynamics import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(ternary_dynamics, name)
