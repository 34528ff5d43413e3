"""CSV and JSON emission for trajectories, reports, sweep tables and diagnostics.

Floats are written as the shortest decimal that parses back to the exact
same double, so emitted files round-trip losslessly and identical runs
produce byte-identical output.  CSV uses comma separators, ``\\n`` line
endings and minimal quoting; JSON mirrors each table as a list of objects
keyed by the column names.  Every table is a header plus rows (the records
themselves, or those of a private row builder), written by :func:`csv_text`
or :func:`json_text` to an open text stream, one row at a time as it is
formatted; no emitter builds or returns the document.  :func:`csv_body`
and :func:`json_body` format a run of rows without the header or the
list's brackets, and a ``formatted`` writer frames such runs, so a table
formatted in parts, in other processes too, has the bytes of one pass.  A
tuple cell (the ``flags`` column) is ``;``-joined in CSV and a list in JSON.
Within one call, a repeated float (a sweep's axis values) is formatted
once, from a bounded map.
"""

import csv
import io
import math
from json.encoder import encode_basestring_ascii as _json_str

from .classify import SweepRow

_float_repr = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Entries a writer call's float-text map holds before it starts over.  A 2,000-row chunk
# of the 41^3 grid has at most 2,921 distinct nonzero finite floats, so a pooled chunk
# never starts over; at ~100 bytes an entry the map stays near 0.4 MB, where 16,384
# entries (~1.7 MB) would exceed 5% of a 22 MiB run.  1,024 to 16,384 timed alike.
_FLOAT_TEXTS_MAX = 4096


def format_float(value):
    return repr(float(value))


def _float_text(texts, value, nonfinite=None):
    """The text of ``value``, kept in one writer call's map ``texts`` when nonzero and finite.

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
    """The cells :func:`csv_text` writes for each row, as a list of strings."""
    floats = {}
    for row in rows:
        yield [(floats.get(v) or _float_text(floats, v)) if type(v) is float else _cell(v)
               for v in row]


def csv_text(out, header, rows, formatted=False):
    """Write ``header`` and ``rows`` as CSV.

    With ``formatted``, each item of ``rows`` is instead the :func:`csv_body`
    of a run of rows, written as it is.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    if formatted:
        for text in rows:
            out.write(text)
    else:
        writer.writerows(_csv_rows(rows))


def csv_body(rows):
    """The lines :func:`csv_text` writes for ``rows`` after the header, as one string."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_csv_rows(rows))
    return buf.getvalue()


def _json_objects(header, rows, pad):
    """The object :func:`json_text` writes for each row, one string each, indented by ``pad``."""
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


def json_text(out, header, rows, single=False, formatted=False):
    """Write a list of objects keyed by ``header``, or the one object when ``single``.

    The text is byte-identical to ``json.JSONEncoder(indent=2).encode`` of
    ``[dict(zip(header, row)) for row in rows]`` (or of the one object) plus
    a newline, for the values a table holds: ``None``, ``bool``, ``int``,
    ``float`` (``NaN``/``Infinity``/``-Infinity`` as :mod:`json` writes
    them), ``str`` and a tuple of ``str``.  Any other value raises
    :class:`TypeError`.  Column names must be distinct and a ``single``
    table has exactly one row, both checked before anything is written;
    each row has one value per column.  With ``formatted``, each item of
    ``rows`` is instead the :func:`json_body` of a nonempty run of rows.

    Each object is formatted as one string and written with its separator.
    With ``indent`` set, :mod:`json` skips its C encoder and joins one chunk
    per token, millions of them for a large sweep.  A float that repeats
    within the call is formatted once (:func:`_float_text`).
    """
    if len(set(header)) != len(header):
        raise ValueError(f"column names must be distinct, got {header!r}")
    if single:
        (row,) = rows
        (text,) = _json_objects(header, [row], "")
        out.write(text + "\n")
        return
    separator = "[\n  "
    for text in rows if formatted else _json_objects(header, rows, "  "):
        out.write(separator + text)
        separator = ",\n  "
    # separator is still the opening bracket when the list has no row
    out.write("[]\n" if separator == "[\n  " else "\n]\n")


def json_body(header, rows):
    """The objects :func:`json_text` writes for ``rows``, with their separators, as one string."""
    return ",\n  ".join(_json_objects(header, rows, "  "))


TRAJECTORY_HEADER = ["k", "p0", "p1", "p2"]


def _trajectory_rows(states):
    for k, s in enumerate(states):
        yield k, *s


def trajectory_to_csv(out, states):
    csv_text(out, TRAJECTORY_HEADER, _trajectory_rows(states))


def trajectory_to_json(out, states):
    json_text(out, TRAJECTORY_HEADER, _trajectory_rows(states))


EQUILIBRIUM_HEADER = ["rho0", "rho1", "rho2", "v", "v_bar", "flags"]


def _equilibrium_rows(eq, flags):
    v0, v1, v2 = eq.params
    v_bar = eq.v_bar if v0 != 0.0 and v1 != 0.0 and v2 != 0.0 else None
    yield eq.rho0, eq.rho1, eq.rho2, eq.v_denominator, v_bar, tuple(flags)


def equilibrium_to_csv(out, eq, flags=()):
    csv_text(out, EQUILIBRIUM_HEADER, _equilibrium_rows(eq, flags))


def equilibrium_to_json(out, eq, flags=()):
    json_text(out, EQUILIBRIUM_HEADER, _equilibrium_rows(eq, flags), single=True)


CLASSIFICATION_HEADER = [
    "coordinate", "scenario", "rho_m", "v_m", "predicted_limit", "contraction_factor", "flags",
]


def _classification_rows(report, predicted, flags):
    yield (report.coordinate, report.scenario.value, report.rho_m, report.v_m, predicted,
           report.contraction_factor, tuple(flags))


def classification_to_csv(out, report, predicted, flags=()):
    csv_text(out, CLASSIFICATION_HEADER, _classification_rows(report, predicted, flags))


def classification_to_json(out, report, predicted, flags=()):
    json_text(out, CLASSIFICATION_HEADER, _classification_rows(report, predicted, flags),
              single=True)


# A ``SweepRow`` is its own row, so its fields are the header.
SWEEP_HEADER = list(SweepRow._fields)


def sweep_to_csv(out, rows, formatted=False):
    csv_text(out, SWEEP_HEADER, rows, formatted=formatted)


def sweep_to_json(out, rows, formatted=False):
    json_text(out, SWEEP_HEADER, rows, formatted=formatted)


REPLICATION_HEADER = ["replication", "k", "p0", "p1", "p2"]


def _replication_rows(trajectories):
    for traj in trajectories:
        for k, point in enumerate(traj.points):
            yield traj.replication, k, point[0], point[1], point[2]


def replications_to_csv(out, trajectories):
    csv_text(out, REPLICATION_HEADER, _replication_rows(trajectories))


def replications_to_json(out, trajectories):
    json_text(out, REPLICATION_HEADER, _replication_rows(trajectories))


DEVIATION_HEADER = ["n", "median_max_deviation", "replications"]


# A ``sampling.DeviationRow`` is already the row: its fields are this header, in order
# (``sample_volume`` is ``n``).
def deviation_table_to_csv(out, rows):
    csv_text(out, DEVIATION_HEADER, rows)


def deviation_table_to_json(out, rows):
    json_text(out, DEVIATION_HEADER, rows)
