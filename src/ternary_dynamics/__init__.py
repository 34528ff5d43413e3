"""Dynamics, classification and stochastic sampling of ternary statistical experiments.

A ternary statistical experiment tracks three alternative frequencies that
sum to one across discrete stages; increments follow a persistent linear
regression driven by three directing action parameters.  This package
provides the exact and simplex-clamped steppers, the closed-form
equilibrium, the four-way limit-scenario classifier with empirical
validation, a finite-sample multinomial layer with a law-of-large-numbers
diagnostic, and CSV/JSON serialization used by the ``ternary-dynamics``
command-line tool.
"""

from .classify import (
    BoundaryCaseError,
    LimitEstimate,
    Scenario,
    ScenarioReport,
    SweepRow,
    UnresolvedPredictionError,
    classify,
    estimate_limit,
    sweep,
)
from .core import (
    DegenerateClampError,
    DirectingParams,
    Equilibrium,
    FluctuationVector,
    InvalidInputError,
    ModelError,
    NoEquilibriumError,
    RawState,
    SimplexPoint,
    build_regression_matrix,
    compute_equilibrium,
    contraction_factor,
    reduced_matrix,
    step_clamped,
    step_raw,
    to_fluctuation,
    trajectory,
)
from .sampling import (
    DeviationRow,
    EmpiricalTrajectory,
    SampleConfig,
    lln_diagnostic,
    replication_stream,
    run_replications,
    stochastic_step,
)

__version__ = "0.1.0"

__all__ = [
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
