"""The result and config records are named tuples.

``ScenarioReport``, ``LimitEstimate``, ``EmpiricalTrajectory`` and
``DeviationRow`` are plain ``NamedTuple``s; ``SampleConfig`` validates on
every path that builds an instance.  ``reference_error`` restates its checks
with the exact messages: each field is coerced with ``operator.index``, then
the volume, replication count, step count and seed are range-checked.
"""

import copy
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternary_dynamics import (
    DeviationRow,
    DirectingParams,
    EmpiricalTrajectory,
    InvalidInputError,
    LimitEstimate,
    SampleConfig,
    classify,
)
from ternary_dynamics.serialize import DEVIATION_HEADER

FIELDS = ("sample_volume", "replications", "seed", "steps")
BASE = SampleConfig(3, 2, 1, 2)
CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def reference_error(args):
    """Message of the ``InvalidInputError`` that ``SampleConfig(*args)`` must raise, or None."""
    values = []
    for name, value in zip(FIELDS, args):
        try:
            values.append(operator.index(value))
        except TypeError:
            return f"{name} must be an integer, got {value!r}"
    n, reps, seed, steps = values
    if n < 1:
        return f"sample_volume must be >= 1, got {n}"
    if n >= 2**63:
        return f"sample_volume must be < 2**63, got {n}"
    if reps < 1:
        return f"replications must be >= 1, got {reps}"
    if steps < 0:
        return f"steps must be >= 0, got {steps}"
    if not 0 <= seed < 2**64:
        return f"seed must be a 64-bit unsigned integer, got {seed}"
    return None


def expected(args):
    message = reference_error(args)
    if message is not None:
        return "InvalidInputError", message
    fields = ", ".join(f"{name}={operator.index(v)!r}" for name, v in zip(FIELDS, args))
    return SampleConfig, f"SampleConfig({fields})"


def outcome(build, *args, **kwargs):
    try:
        value = build(*args, **kwargs)
    except InvalidInputError as exc:
        return "InvalidInputError", str(exc)
    return type(value), repr(value)


field = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([2**63, 2**64 - 1, 2**64, -(2**64)]),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["3", None, 2.0]),
)
config_args = st.tuples(field, field, field, field)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(args=config_args)
def test_sample_config_validates_on_every_path(args):
    want = expected(args)
    assert outcome(SampleConfig, *args) == want
    assert outcome(SampleConfig._make, args) == want
    assert outcome(BASE._replace, **dict(zip(FIELDS, args))) == want
    # tuple.__new__ skips the checks; every rebuild must run them
    forged = tuple.__new__(SampleConfig, args)
    for clone in CLONES.values():
        assert outcome(clone, forged) == want


def test_sample_config_copies_equal_the_original():
    for clone in CLONES.values():
        twin = clone(BASE)
        assert type(twin) is SampleConfig
        assert twin == BASE == (3, 2, 1, 2)
        assert hash(twin) == hash((3, 2, 1, 2))


@pytest.mark.parametrize("value, text", [
    (classify(DirectingParams(0.5, 1, 1), 0),
     "ScenarioReport(coordinate=0, scenario=<Scenario.ATTRACTIVE: 'attractive'>, rho_m=0.5, "
     "v_m=0.5, predicted_limit=0.5, contraction_factor=2.0)"),
    (classify(DirectingParams(-0.5, -0.5, -0.5), 0),
     "ScenarioReport(coordinate=0, scenario=<Scenario.REPULSIVE: 'repulsive'>, "
     "rho_m=0.3333333333333333, v_m=-0.5, predicted_limit=None, contraction_factor=2.5)"),
    (LimitEstimate(0.25, False, 10000, 0.5),
     "LimitEstimate(value=0.25, converged=False, steps_used=10000, terminal_delta=0.5)"),
    (SampleConfig(True, 2, 1, 2),
     "SampleConfig(sample_volume=1, replications=2, seed=1, steps=2)"),
    (EmpiricalTrajectory(0, 1, 3, (0.5, 0.3, 0.2), ((2, 0, 1), (3, 0, 0))),
     "EmpiricalTrajectory(replication=0, seed=1, sample_volume=3, init=(0.5, 0.3, 0.2), "
     "counts=((2, 0, 1), (3, 0, 0)))"),
    (DeviationRow(2, 0.6415, 2),
     "DeviationRow(sample_volume=2, median_max_deviation=0.6415, replications=2)"),
], ids=["ScenarioReport-attractive", "ScenarioReport-repulsive", "LimitEstimate", "SampleConfig",
        "EmpiricalTrajectory", "DeviationRow"])
def test_repr(value, text):
    assert repr(value) == text


def test_deviation_row_is_its_table_row():
    # sample_volume is the table's column "n"
    assert DeviationRow._fields == ("sample_volume", *DEVIATION_HEADER[1:])
    row = DeviationRow(sample_volume=2, median_max_deviation=0.6415, replications=3)
    assert dict(zip(DEVIATION_HEADER, row)) == {
        "n": 2, "median_max_deviation": 0.6415, "replications": 3,
    }
