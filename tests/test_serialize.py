import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternary_dynamics import (
    DirectingParams,
    SampleConfig,
    SimplexPoint,
    SweepRow,
    classify,
    compute_equilibrium,
    lln_diagnostic,
    run_replications,
    sweep,
    trajectory,
)
from ternary_dynamics import serialize


def emitted(emit, *args, **kwargs):
    """The text ``emit`` writes to a stream, given the rest of its arguments."""
    buf = io.StringIO()
    emit(buf, *args, **kwargs)
    return buf.getvalue()


# write_table's chunk sizes to check a table at: one row, two, and the default
CHUNK_SIZES = [1, 2, serialize._CHUNK_ROWS]


def reparse_identical(text):
    rows = list(csv.reader(io.StringIO(text)))
    for size in CHUNK_SIZES:
        with mock.patch.object(serialize, "_CHUNK_ROWS", size):
            if emitted(serialize.write_table, "csv", rows[0], rows[1:]) != text:
                return False
    return True


class OddFloat(float):
    """A float subclass with its own text and equality: written as the float it holds."""

    def __repr__(self):
        return "odd"

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0  # the hash of 0.0


def test_format_float_round_trips():
    # a float cell is the repr of its float value, which parses back to that value
    values = (0.45, 1 / 3, 0.1 + 0.2, 1e-9, -2.0000000000000013, 1.0, 0.0, OddFloat(0.5),
              Fraction(1, 3))
    texts = [repr(float(x)) for x in values]
    assert serialize.csv_body([values]) == ",".join(texts) + "\n"
    assert [float(text) for text in texts] == [float(x) for x in values]
    # JSON takes no Fraction; the subclass's equality is never asked, so 0.0 keeps its text
    rows = [(x,) for x in values[:-1] + (OddFloat(0.25), 0.0)]
    assert serialize.json_body(["x"], rows) == ",\n  ".join(
        '{\n    "x": %r\n  }' % float(x) for (x,) in rows)


def test_trajectory_csv_round_trip_and_values():
    states = trajectory(DirectingParams(0.1, 0.1, 0.1), SimplexPoint(0.5, 0.3, 0.2), 3)
    text = emitted(serialize.write_table, "csv", serialize.TRAJECTORY_HEADER,
                   serialize.trajectory_rows(states))
    lines = text.splitlines()
    assert lines[0] == "k,p0,p1,p2"
    assert lines[1] == "0,0.5,0.3,0.2"
    assert lines[2] == "1,0.45,0.31,0.24"
    assert reparse_identical(text)
    payload = json.loads(emitted(serialize.write_table, "json", serialize.TRAJECTORY_HEADER,
                                 serialize.trajectory_rows(states)))
    assert payload[1] == {"k": 1, "p0": 0.45, "p1": 0.31, "p2": 0.24}


def test_equilibrium_serialization():
    eq = compute_equilibrium(DirectingParams(0.5, 1.0, 1.0))
    text = emitted(serialize.write_table, "csv", serialize.EQUILIBRIUM_HEADER,
                   serialize.equilibrium_rows(eq))
    assert text.splitlines()[0] == "rho0,rho1,rho2,v,v_bar,flags"
    assert text.splitlines()[1] == "0.5,0.25,0.25,2.0,4.0,"
    assert reparse_identical(text)
    payload = json.loads(emitted(serialize.write_table, "json", serialize.EQUILIBRIUM_HEADER,
                                 serialize.equilibrium_rows(eq, ("params_out_of_range",)),
                                 single=True))
    assert payload["v_bar"] == 4.0
    assert payload["flags"] == ["params_out_of_range"]

    undefined = compute_equilibrium(DirectingParams(0.1, 0.0, 0.1))
    assert json.loads(emitted(serialize.write_table, "json", serialize.EQUILIBRIUM_HEADER,
                              serialize.equilibrium_rows(undefined), single=True))["v_bar"] is None


def test_classification_serialization():
    report = classify(DirectingParams(-0.2, 0.5, -0.4), 0)
    text = emitted(serialize.write_table, "csv", serialize.CLASSIFICATION_HEADER,
                   serialize.classification_rows(report, "conditional"))
    header, row = text.splitlines()
    assert header == "coordinate,scenario,rho_m,v_m,predicted_limit,contraction_factor,flags"
    assert row.split(",")[1] == "repulsive"
    assert row.split(",")[4] == "conditional"
    assert reparse_identical(text)
    payload = json.loads(emitted(serialize.write_table, "json", serialize.CLASSIFICATION_HEADER,
                                 serialize.classification_rows(report, 0.0), single=True))
    assert payload["predicted_limit"] == 0.0


def test_sweep_serialization_round_trip():
    rows = sweep(
        [(0.1, 0.1, 0.1), (-0.1, 0.2, 0.2), (0.1, 0.0, 0.1)],
        0,
        SimplexPoint(0.5, 0.3, 0.2),
        simulate=True,
    )
    text = emitted(serialize.write_table, "csv", serialize.SWEEP_HEADER, rows)
    lines = text.splitlines()
    assert lines[0] == (
        "v0,v1,v2,coordinate,rho_m,v_m,scenario,predicted_limit,"
        "contraction_factor,simulated_limit,agreement,flags"
    )
    assert len(lines) == 4
    assert reparse_identical(text)
    payload = json.loads(emitted(serialize.write_table, "json", serialize.SWEEP_HEADER, rows))
    assert payload[1]["scenario"] == "no_equilibrium"
    assert payload[1]["rho_m"] is None
    assert payload[2]["flags"] == ["rho_boundary"]


def test_replications_and_deviation_serialization():
    params = DirectingParams(0.1, 0.1, 0.1)
    init = SimplexPoint(0.5, 0.3, 0.2)
    cfg = SampleConfig(replications=2, seed=42, steps=4)
    trajs = run_replications(params, init, 100, cfg)
    text = emitted(serialize.write_table, "csv", serialize.REPLICATION_HEADER,
                   serialize.replication_rows(trajs))
    lines = text.splitlines()
    assert lines[0] == "replication,k,p0,p1,p2"
    assert len(lines) == 1 + 2 * 5
    assert reparse_identical(text)

    table = lln_diagnostic(params, init, [10, 100], cfg)
    dev_text = emitted(serialize.write_table, "csv", serialize.DEVIATION_HEADER, table)
    assert reparse_identical(dev_text)
    payload = json.loads(emitted(serialize.write_table, "json", serialize.DEVIATION_HEADER, table))
    assert [row["n"] for row in payload] == [10, 100]


# The stdlib encoder write_table's JSON must match byte for byte.
REFERENCE = json.JSONEncoder(indent=2)


def reference_json_text(header, rows, single=False):
    objects = [dict(zip(header, row)) for row in rows]
    if single:
        (objects,) = objects
    return REFERENCE.encode(objects) + "\n"


def test_write_table_json_matches_json_dumps_byte_for_byte():
    header = ["k", "x", "flags"]
    for n in (0, 1, 2500):
        rows = [(k, k / 7, ("a", "b") if k % 2 else ()) for k in range(n)]
        expected = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
        assert emitted(serialize.write_table, "json", header, iter(rows)) == expected
    assert emitted(serialize.write_table, "json", header, [(1, 0.5, ())], single=True) == (
        json.dumps({"k": 1, "x": 0.5, "flags": []}, indent=2) + "\n"
    )


# Every kind of value a table cell holds; st.floats() draws NaN, +-inf and -0.0.
cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.text(),
    st.lists(st.text(), max_size=3).map(tuple),
)


@st.composite
def tables(draw):
    header = draw(st.lists(st.text(), unique=True, max_size=6))
    rows = draw(st.lists(st.tuples(*[cells] * len(header)), max_size=4))
    return header, rows


@settings(max_examples=500, derandomize=True, deadline=None)
@given(table=tables(), size=st.sampled_from(CHUNK_SIZES))
def test_write_table_json_matches_stdlib_encoder_on_any_table(table, size):
    header, rows = table
    with mock.patch.object(serialize, "_CHUNK_ROWS", size):
        assert (emitted(serialize.write_table, "json", header, rows)
                == reference_json_text(header, rows))
    for row in rows:
        assert (emitted(serialize.write_table, "json", header, [row], single=True)
                == reference_json_text(header, [row], single=True))


class TaggedFloat(float):
    """A float subclass: written as the float it holds."""


# Values every column of a long table repeats: equal zeros of either sign,
# NaNs and infinities must each keep their own text however often they repeat.
REPEATED = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, -2.5,
            np.float64(0.0), np.float64(-0.0), np.float64(0.1),
            TaggedFloat(0.0), TaggedFloat(-0.0), TaggedFloat(0.1), TaggedFloat("nan")]
more_values = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats().map(TaggedFloat),
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(["", "a", "x,y"]),
    st.sampled_from([(), ("a",), ("a", "b")]),
)


@st.composite
def long_tables(draw):
    """Columns of values drawn from small pools, and one of fresh floats, so that a table
    of thousands of rows repeats each pooled value and holds more distinct floats than
    serialize keeps texts for; and a row to cut the table at."""
    pools = [REPEATED + draw(st.lists(more_values, max_size=3))
             for _ in range(draw(st.integers(1, 4)))]
    count = draw(st.one_of(st.integers(0, 40), st.integers(4000, 5000)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    header = [f"c{i}" for i in range(len(pools))] + ["fresh"]
    rows = [(*(rng.choice(pool) for pool in pools), rng.uniform(-1.0, 1.0))
            for _ in range(count)]
    return header, rows, draw(st.integers(0, count))


def reference_csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ";".join(value)
    return str(value) if isinstance(value, int) else repr(float(value))


def reference_csv_body(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(map(reference_csv_cell, row) for row in rows)
    return buf.getvalue()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(table=long_tables())
def test_writers_give_every_repeat_of_a_value_its_own_text_in_long_tables(table):
    header, rows, cut = table
    expected = reference_json_text(header, rows)
    assert emitted(serialize.write_table, "json", header, rows) == expected
    parts = [serialize.json_body(header, part) for part in (rows[:cut], rows[cut:]) if part]
    assert emitted(serialize.sweep_to_json, header, parts) == expected
    expected = reference_csv_body(rows)
    assert serialize.csv_body(rows) == expected
    assert (emitted(serialize.write_table, "csv", header, rows)
            == ",".join(header) + "\n" + expected)
    parts = [serialize.csv_body(rows[:cut]), serialize.csv_body(rows[cut:])]
    assert emitted(serialize.sweep_to_csv, header, parts) == (
        ",".join(header) + "\n" + expected)


def test_the_float_text_map_stays_bounded():
    # the map keeps the first _FLOAT_TEXTS_MAX distinct floats, then stops storing
    texts = {}
    values = [k + 0.5 for k in range(3 * serialize._FLOAT_TEXTS_MAX)]
    for x in values:
        assert serialize._float_text(texts, x) == repr(x)
        assert len(texts) <= serialize._FLOAT_TEXTS_MAX
    assert texts == {x: repr(x) for x in values[:serialize._FLOAT_TEXTS_MAX]}


@pytest.mark.parametrize("value", [np.int64(3), {1}, object()])
def test_write_table_rejects_values_outside_a_table(value):
    with pytest.raises(TypeError):
        emitted(serialize.write_table, "json", ["x"], [(value,)])


def test_write_table_rejects_repeated_column_names():
    with pytest.raises(ValueError, match="distinct"):
        emitted(serialize.write_table, "json", ["x", "x"], [(1, 2)])


class RecordingStream:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def write_table_json(out, header, rows):
    serialize.write_table(out, "json", header, rows)


def test_write_table_raises_on_a_value_outside_a_table_before_writing_its_chunk(monkeypatch):
    monkeypatch.setattr(serialize, "_CHUNK_ROWS", 2)
    stream = RecordingStream()
    with pytest.raises(TypeError):
        write_table_json(stream, ["x"], [(1,), (2,), (3,), (object(),)])
    assert "".join(stream.writes) == reference_json_text(["x"], [(1,), (2,)])[:-len("\n]\n")]


@pytest.mark.parametrize("emit, texts", [
    (write_table_json, [(1, 2)]),
    (lambda out, header, rows: serialize.write_table(out, "json", header, rows, single=True),
     [(1, 2)]),
    (serialize.sweep_to_json, [serialize.json_body(["x", "y"], [(1, 2)])]),
], ids=["write_table", "write_table-single", "sweep_to_json"])
def test_json_writers_reject_repeated_column_names_before_writing(emit, texts):
    stream = RecordingStream()
    with pytest.raises(ValueError, match="distinct"):
        emit(stream, ["x", "x"], texts)
    assert stream.writes == []


def sweep_table():
    axis = [round(-0.9 + 0.18 * i, 12) for i in range(11)]
    rows = sweep(list(itertools.product(axis, axis, axis)), 0, SimplexPoint(0.5, 0.3, 0.2))
    assert len(rows) == 1331
    return rows


def replication_table():
    cfg = SampleConfig(replications=3, seed=7, steps=200)
    rows = list(serialize.replication_rows(
        run_replications(DirectingParams(-0.2, 0.5, -0.4), SimplexPoint(0.5, 0.3, 0.2), 100,
                         cfg)))
    assert len(rows) == 603
    return rows


def sweep_csv(out, rows):
    serialize.write_table(out, "csv", serialize.SWEEP_HEADER, rows)


def sweep_json(out, rows):
    serialize.write_table(out, "json", serialize.SWEEP_HEADER, rows)


def replications_csv(out, rows):
    serialize.write_table(out, "csv", serialize.REPLICATION_HEADER, rows)


def replications_json(out, rows):
    serialize.write_table(out, "json", serialize.REPLICATION_HEADER, rows)


def rows_in(text):
    """The rows a write of a CSV or JSON table holds: its lines, or its objects' closing braces."""
    return text.count("\n  }") if text.startswith(("[", ",")) else text.count("\n")


@pytest.mark.parametrize("size", [1, 500, serialize._CHUNK_ROWS])
@pytest.mark.parametrize("emit, table", [
    (sweep_csv, sweep_table),
    (sweep_json, sweep_table),
    (replications_csv, replication_table),
    (replications_json, replication_table),
], ids=["csv", "json", "write_table-csv", "write_table-json"])
def test_sweep_emitters_write_each_row_as_it_is_formatted(emit, table, size, monkeypatch):
    rows = table()
    monkeypatch.setattr(serialize, "_CHUNK_ROWS", size)
    stream = RecordingStream()
    emit(stream, rows)
    if size == 1:
        assert len(stream.writes) >= len(rows)
        # a one-row table is one row's text plus the header or the list framing
        assert max(map(len, stream.writes)) <= max(len(emitted(emit, [row])) for row in rows)
    else:
        # the header or the list's end, and one write per chunk of rows
        assert len(stream.writes) == 1 + math.ceil(len(rows) / size)
        assert max(map(rows_in, stream.writes)) <= size
    assert "".join(stream.writes) == emitted(emit, rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_sweep_pair_writes_the_bytes_of_write_table(fmt):
    init = SimplexPoint(0.5, 0.3, 0.2)
    axis = [-1.5, -0.9, -0.3, 0.0, 0.3, 0.9, 1.5]
    # rows in and out of range, of each scenario, with flags and simulated limits
    rows = [*sweep_table(),
            *sweep(itertools.product(axis, axis, axis), 1, init, simulate=True, bound_check=False)]
    emit = serialize.sweep_to_json if fmt == "json" else serialize.sweep_to_csv
    header = serialize.SWEEP_HEADER

    def body(chunk):
        return serialize.json_body(header, chunk) if fmt == "json" else serialize.csv_body(chunk)

    # the pair takes the text of each chunk of rows, as a sweep's chunks give it; write_table
    # frames through the same pair, so the bytes are the stdlib's
    for part in ([], rows[:1], rows):
        expected = (reference_json_text(header, part) if fmt == "json"
                    else ",".join(header) + "\n" + reference_csv_body(part))
        for size in (1, 500, 2000):
            texts = [body(part[i:i + size]) for i in range(0, len(part), size)]
            assert emitted(emit, header, texts) == expected


@pytest.mark.parametrize("rows", [[], [(1,), (2,)]], ids=["no-row", "two-rows"])
def test_write_table_single_checks_the_row_count_before_writing(rows):
    stream = RecordingStream()
    with pytest.raises(ValueError):
        serialize.write_table(stream, "json", ["x"], rows, single=True)
    assert stream.writes == []


def test_sweep_row_fields_are_the_sweep_header():
    assert SweepRow._fields == tuple(serialize.SWEEP_HEADER)
