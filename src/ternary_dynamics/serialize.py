"""CSV and JSON emission for trajectories, reports, sweep tables and diagnostics.

Floats are written as the shortest decimal that parses back to the exact
same double, so emitted files round-trip losslessly and identical runs
produce byte-identical output.  CSV uses comma separators, ``\\n`` line
endings and minimal quoting; JSON mirrors each table as a list of objects
keyed by the column names.  Every table is a header plus rows (the records
themselves, or those of the row builder beside its header), and every one
takes one path to an open text stream: :func:`csv_body` or
:func:`json_body` formats a chunk of rows as one string, and the chunk
writer :func:`sweep_to_csv` or :func:`sweep_to_json` frames the chunks in
order under the header (:func:`table_format` picks the pair).
:func:`write_table` cuts its rows into chunks; a ``sweep`` formats its own,
in other processes too.  No writer builds or returns the document.  A
tuple cell (the ``flags`` column) is ``;``-joined in CSV and a list in
JSON.  Within one chunk, a repeated float is formatted once, from a
bounded map.
"""

import csv
import functools
import io
import itertools
import math
from json.encoder import encode_basestring_ascii as _json_str

from .classify import SweepRow

_float_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Entries a chunk's float-text map holds before it starts over.  A 2,000-row chunk
# of the 41^3 grid has at most 2,921 distinct nonzero finite floats, so a pooled chunk
# never starts over; at ~100 bytes an entry the map stays near 0.4 MB, where 16,384
# entries (~1.7 MB) would exceed 5% of a 22 MiB run.  1,024 to 16,384 timed alike.
_FLOAT_TEXTS_MAX = 4096
_CHUNK_ROWS = 2000  # rows write_table formats as one string, as a classify-only sweep does


def format_float(value):
    return repr(float(value))


def _float_text(texts, value, nonfinite=None):
    """The text of ``value``, kept in one chunk's map ``texts`` when nonzero and finite.

    ``texts`` is emptied at ``_FLOAT_TEXTS_MAX`` entries.  Zeros are not
    kept, so ``0.0`` and ``-0.0`` (equal keys) never share a text; a NaN or
    an infinity reads ``nonfinite[repr]`` when that exists.  Look up exact
    floats only: a subclass may redefine equality.
    """
    text = _float_repr(value)
    if not math.isfinite(value):
        return nonfinite.get(text, text) if nonfinite else text
    if value:
        if len(texts) >= _FLOAT_TEXTS_MAX:
            texts.clear()
        texts[value] = text
    return text


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, tuple):
        return ";".join(value)
    return format_float(value)


def _csv_rows(rows):
    """The cells of each row as CSV writes them, as a list of strings."""
    floats = {}
    for row in rows:
        yield [(floats.get(v) or _float_text(floats, v)) if type(v) is float else _cell(v)
               for v in row]


def csv_body(rows):
    """The lines of ``rows`` in a CSV table, after its header, as one string."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_csv_rows(rows))
    return buf.getvalue()


def _json_objects(header, rows, pad):
    """The JSON object of each row, keyed by ``header``, one string each, indented by ``pad``."""
    fields = ",".join(f"\n{pad}  " + _json_str(key).replace("%", "%%") + ": %s" for key in header)
    template = "{" + fields + (f"\n{pad}}}" if header else "}")
    open_list = f"[\n{pad}    "
    next_item = f",\n{pad}    "
    close_list = f"\n{pad}  ]"
    floats = {}
    for row in rows:
        texts = []
        for value in row:
            if type(value) is float:
                text = floats.get(value) or _float_text(floats, value, _NONFINITE)
            elif isinstance(value, float):
                text = _float_repr(value)
                if text in _NONFINITE:
                    text = _NONFINITE[text]
            elif value is None:
                text = "null"
            elif isinstance(value, str):
                text = _json_str(value)
            elif isinstance(value, int):
                text = ("true" if value is True else "false" if value is False
                        else int.__repr__(value))
            elif isinstance(value, tuple):
                text = (open_list + next_item.join(map(_json_str, value)) + close_list
                        if value else "[]")
            else:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            texts.append(text)
        yield template % tuple(texts)


def json_body(header, rows):
    """The objects of ``rows`` in a JSON list, with their separators, as one string."""
    return ",\n  ".join(_json_objects(header, rows, "  "))


def sweep_to_csv(out, header, texts):
    """Write ``header`` as CSV, then each of ``texts``, the :func:`csv_body` of a run of rows.

    Every CSV table is framed here, by ``out.write`` alone; the name is a
    sweep's because the traced benchmark times these writes by it.
    """
    csv.writer(out, lineterminator="\n").writerow(header)
    for text in texts:
        out.write(text)


def sweep_to_json(out, header, texts):
    """Write ``texts``, objects keyed by ``header``, as one JSON list: ``[]`` when there is none.

    Each of ``texts`` is the :func:`json_body` of a nonempty run of rows.
    Column names must be distinct, checked before anything is written.
    Every JSON list is framed here; the name is a sweep's, as for
    :func:`sweep_to_csv`.
    """
    if len(set(header)) != len(header):
        raise ValueError(f"column names must be distinct, got {header!r}")
    separator = "[\n  "
    for text in texts:
        out.write(separator + text)
        separator = ",\n  "
    # separator is still the opening bracket when the list has no item
    out.write("[]\n" if separator == "[\n  " else "\n]\n")


def table_format(fmt, header):
    """``(body, frame)`` for a table of ``header``: JSON when ``fmt`` is ``"json"``, else CSV.

    ``body(rows)`` formats a run of rows as one string; ``frame(out, header,
    texts)`` writes such strings as one table.  Both are looked up when this
    is called, so a wrapper put in their place (the benchmark's) is used.
    """
    if fmt == "json":
        return functools.partial(json_body, header), sweep_to_json
    return csv_body, sweep_to_csv


def write_table(out, fmt, header, rows, single=False):
    """Write ``header`` and ``rows`` as JSON when ``fmt`` is ``"json"``, else as CSV.

    The JSON is byte-identical to ``json.JSONEncoder(indent=2).encode`` of
    ``[dict(zip(header, row)) for row in rows]`` plus a newline, for the
    values a table holds: ``None``, ``bool``, ``int``, ``float``
    (``NaN``/``Infinity``/``-Infinity`` as :mod:`json` writes them), ``str``
    and a tuple of ``str``.  Any other value raises :class:`TypeError`
    before the chunk that holds it is written.  Column names must be
    distinct, checked before anything is written; each row has one value
    per column.  A ``single`` JSON table is its one object and has exactly
    one row, checked before anything is written; its CSV is the header and
    the row.  Rows are formatted in runs of ``_CHUNK_ROWS``, each one string
    to the frame of :func:`table_format`: the writer holds at most one
    chunk's text (:mod:`json` with ``indent`` set joins one piece per token).
    """
    if fmt == "json" and single:
        if len(set(header)) != len(header):
            raise ValueError(f"column names must be distinct, got {header!r}")
        (row,) = rows
        (text,) = _json_objects(header, [row], "")
        out.write(text + "\n")
        return
    body, frame = table_format(fmt, header)
    rows = iter(rows)
    chunks = iter(lambda: list(itertools.islice(rows, _CHUNK_ROWS)), [])
    frame(out, header, map(body, chunks))


TRAJECTORY_HEADER = ["k", "p0", "p1", "p2"]


def trajectory_rows(states):
    for k, s in enumerate(states):
        yield k, *s


EQUILIBRIUM_HEADER = ["rho0", "rho1", "rho2", "v", "v_bar", "flags"]


def equilibrium_rows(eq, flags=()):
    v0, v1, v2 = eq.params
    v_bar = eq.v_bar if v0 != 0.0 and v1 != 0.0 and v2 != 0.0 else None
    yield eq.rho0, eq.rho1, eq.rho2, eq.v_denominator, v_bar, tuple(flags)


CLASSIFICATION_HEADER = [
    "coordinate", "scenario", "rho_m", "v_m", "predicted_limit", "contraction_factor", "flags",
]


def classification_rows(report, predicted, flags=()):
    yield (report.coordinate, report.scenario.value, report.rho_m, report.v_m, predicted,
           report.contraction_factor, tuple(flags))


# A ``SweepRow`` is its own row, so its fields are the header.
SWEEP_HEADER = list(SweepRow._fields)


REPLICATION_HEADER = ["replication", "k", "p0", "p1", "p2"]


def replication_rows(trajectories):
    for traj in trajectories:
        for k, point in enumerate(traj.points):
            yield traj.replication, k, point[0], point[1], point[2]


# A ``sampling.DeviationRow`` is already the row: its fields are this header, in order
# (``sample_volume`` is ``n``).
DEVIATION_HEADER = ["n", "median_max_deviation", "replications"]
