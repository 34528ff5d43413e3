"""Command-line front end.

Subcommands: ``equilibrium``, ``simulate``, ``classify``, ``sweep``,
``stochastic``.  Data goes to stdout (or ``--output PATH``, written
atomically via a temp file) in CSV or JSON; diagnostics go to stderr so
pipelines stay clean.  Each command checks all of its input, then returns
a one-argument writer, so a run with bad input writes no data.  Every
command but ``sweep`` also computes all of its rows first and passes its
header and rows to ``serialize.write_table``.  A ``sweep`` checks its
settings with ``sweep`` on no cells; each chunk of cells then becomes
``body(sweep(chunk, ...))``, here or in forked workers, and the ``frame``
that ``serialize.table_format`` pairs with ``body`` writes the chunks in
order under the header ``_cmd_sweep`` picks.  ``serialize`` alone decides the format.
Exit codes: 0 success, 1 a worker process died, 2 invalid input,
3 no equilibrium, 4 degenerate clamp, 5 boundary classification.

A ``--config FILE`` of ``key=value`` lines (keys are the long flag names
without the leading dashes) supplies defaults for any flag of the chosen
subcommand; flags given on the command line win on conflict.
"""

import argparse
import itertools
import math
import os
import stat
import sys
import tempfile

from . import _pool, serialize
from .classify import (
    BoundaryCaseError,
    UnresolvedPredictionError,
    classify,
    sweep,
)
from .core import (
    DegenerateClampError,
    DirectingParams,
    InvalidInputError,
    NoEquilibriumError,
    SimplexPoint,
    _range_flags,
    compute_equilibrium,
    trajectory,
)
from .sampling import SampleConfig, lln_diagnostic, run_replications

EXIT_OK = 0
EXIT_WORKER_LOST = 1
EXIT_INVALID_INPUT = 2
EXIT_NO_EQUILIBRIUM = 3
EXIT_DEGENERATE_CLAMP = 4
EXIT_BOUNDARY = 5

MAX_GRID_CELLS = 1_000_000

_BOOLEAN_KEYS = {"simulate", "allow-out-of-range"}


def _triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three numbers, got {text!r}") from None


def _volumes(text):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _decimal(x):
    """``(n, d)`` with ``n / 10**d`` equal to the shortest repr of the finite float ``x``."""
    digits, _, exponent = repr(x).partition("e")
    whole, _, fraction = digits.partition(".")
    return int(whole + fraction), len(fraction) - int(exponent or 0)


def _axis(text):
    """Axis values for a sweep: a single number or an inclusive start:stop:step range."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NUMBER or START:STOP:STEP, got {text!r}"
        ) from None
    if step == 0.0 or math.isinf(step):
        raise argparse.ArgumentTypeError("range step must be nonzero and finite")
    span = (stop - start) / step
    if span < 0.0:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty: step points away from stop")
    # count > MAX_GRID_CELLS, tested on the float span so that an infinite
    # or huge span is refused before the exact count below.
    if not math.isfinite(span) or span + 1e-9 >= MAX_GRID_CELLS:
        raise argparse.ArgumentTypeError(f"range {text!r} enumerates too many values")
    # Value i is start + i*step worked out exactly on the decimals that start,
    # stop and step print as, then rounded once to a float: no float error
    # builds up (-0.9 + 10*0.09 is a zero, not -1.1e-16), no decimal is cut
    # (1e-13 steps stay apart) and no value passes stop.  A zero keeps the
    # sign of the float sum start + i*step, as the output has always shown it.
    decimals = [_decimal(x) for x in (start, stop, step)]
    scale = max(0, *(d for _, d in decimals))
    first, last, stride = (n * 10 ** (scale - d) for n, d in decimals)
    unit = 10 ** scale
    values = [(first + i * stride) / unit or math.copysign(0.0, start + i * step)
              for i in range((last - first) // stride + 1)]
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"range {text!r} has values closer than float spacing")
    return values


def _cells(text):
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            cells.append(_triple(chunk))
    return cells


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ternary-dynamics",
        description="Simulate, analyze and classify ternary statistical experiment dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
        sp.add_argument("--output", default="-", metavar="PATH",
                        help="output file; '-' for stdout (default)")
        sp.add_argument("--config", metavar="FILE",
                        help="key=value defaults file; explicit flags win")

    def params_flags(sp):
        sp.add_argument("--v", type=_triple, required=True, metavar="V0,V1,V2",
                        help="directing action parameters")
        sp.add_argument("--allow-out-of-range", action="store_true",
                        help="permit |v_m| > 1 (runs are flagged in the output)")

    sp = sub.add_parser("equilibrium", help="closed-form equilibrium for a parameter triple")
    params_flags(sp)
    common(sp)

    sp = sub.add_parser("simulate", help="iterate the dynamics and emit the trajectory")
    params_flags(sp)
    sp.add_argument("--init", type=_triple, required=True, metavar="P0,P1,P2")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--mode", choices=("raw", "clamped"), default="raw",
                    help="raw keeps the literal linear dynamics; clamped stays on the simplex")
    common(sp)

    sp = sub.add_parser("classify", help="limit scenario of one coordinate")
    params_flags(sp)
    sp.add_argument("--m", type=int, default=0, help="coordinate index (default 0)")
    sp.add_argument("--init", type=_triple, metavar="P0,P1,P2",
                    help="initial point, used to resolve the repulsive prediction")
    sp.add_argument("--p0", type=float,
                    help="initial value of coordinate 0 (shortcut for --init with --m 0)")
    common(sp)

    sp = sub.add_parser("sweep", help="scenario table over a parameter grid")
    sp.add_argument("--cells", type=_cells, metavar="V0,V1,V2;V0,V1,V2;...",
                    help="explicit semicolon-separated list of parameter triples")
    sp.add_argument("--v0", type=_axis, metavar="SPEC", help="axis value or START:STOP:STEP")
    sp.add_argument("--v1", type=_axis, metavar="SPEC")
    sp.add_argument("--v2", type=_axis, metavar="SPEC")
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--init", type=_triple, required=True, metavar="P0,P1,P2")
    sp.add_argument("--simulate", action="store_true",
                    help="also estimate the clamped limit and check agreement")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-steps", type=int, default=10000)
    sp.add_argument("--agreement-tol", type=float, default=1e-6)
    sp.add_argument("--allow-out-of-range", action="store_true")
    common(sp)

    sp = sub.add_parser("stochastic", help="finite-sample replications and deviation table")
    params_flags(sp)
    sp.add_argument("--init", type=_triple, required=True, metavar="P0,P1,P2")
    sp.add_argument("--n", type=_volumes, required=True, metavar="N[,N...]",
                    help="sample volume(s); several values emit the deviation table")
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--steps", type=int, required=True)
    common(sp)

    return parser


def _config_flags(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file {path!r}: {exc}") from exc
    flags = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise InvalidInputError(f"{path}:{lineno}: empty key")
        if key == "config":
            raise InvalidInputError(f"{path}:{lineno}: config cannot be set in a config file")
        if key in _BOOLEAN_KEYS:
            if value.lower() == "true":
                flags.append(f"--{key}")
            elif value.lower() != "false":
                raise InvalidInputError(f"{path}:{lineno}: {key} must be true or false")
        else:
            flags.append(f"--{key}={value}")
    return flags


def _prepare_argv(argv):
    """One pass over argv: take out ``--config FILE`` and join negative values.

    ``--flag -0.2,...`` becomes ``--flag=-0.2,...`` when its text before any
    ``,`` or ``:`` reads as a float (``-inf`` too, but not ``-h`` or ``-``);
    argparse would otherwise read it as an option string.  The config file's
    flags, each a single ``--key=value`` token, go in after the subcommand,
    so flags given on the command line win on conflict.
    """
    out = []
    path = None
    tokens = iter(argv)
    for arg in tokens:
        if arg == "--config":
            path = next(tokens, None)
            if path is None:
                raise InvalidInputError("--config requires a file path")
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
        elif out and out[-1].startswith("--") and "=" not in out[-1] and arg[:1] == "-":
            try:
                float(arg.split(",", 1)[0].split(":", 1)[0])
            except ValueError:  # an option, such as -h
                out.append(arg)
            else:
                out[-1] += "=" + arg
        else:
            out.append(arg)
    if path is None or not out:
        return out
    return out[:1] + _config_flags(path) + out[1:]


def _params_from(args):
    return DirectingParams(*args.v, bound_check=not args.allow_out_of_range)


def _cmd_equilibrium(args):
    params = _params_from(args)
    rows = serialize.equilibrium_rows(compute_equilibrium(params), _range_flags(params))
    return lambda out: serialize.write_table(
        out, args.format, serialize.EQUILIBRIUM_HEADER, rows, single=True)


def _cmd_simulate(args):
    params = _params_from(args)
    states = trajectory(params, args.init, args.steps, mode=args.mode)
    if args.mode == "raw":
        for k, state in enumerate(states):
            if any(p < 0.0 or p > 1.0 for p in state):
                print(
                    f"warning: raw trajectory leaves [0, 1] first at stage {k}; "
                    "components are not probabilities there",
                    file=sys.stderr,
                )
                break
    rows = serialize.trajectory_rows(states)
    return lambda out: serialize.write_table(out, args.format, serialize.TRAJECTORY_HEADER, rows)


def _cmd_classify(args):
    params = _params_from(args)
    init = None if args.init is None else SimplexPoint(*args.init)
    if args.p0 is not None:
        if init is not None:
            raise InvalidInputError("pass --p0 or --init, not both")
        if args.m != 0:
            raise InvalidInputError("--p0 sets coordinate 0; use --init for other coordinates")
        if not 0.0 <= args.p0 <= 1.0:
            raise InvalidInputError(f"--p0 must lie in [0, 1], got {args.p0!r}")
    report = classify(params, args.m)
    initial_value = args.p0 if init is None else init[report.coordinate]
    if report.predicted_limit is None and initial_value is None:
        predicted = "conditional"
    else:
        predicted = report.resolve_limit(initial_value)
    rows = serialize.classification_rows(report, predicted, _range_flags(params))
    return lambda out: serialize.write_table(
        out, args.format, serialize.CLASSIFICATION_HEADER, rows, single=True)


# A sweep runs in chunks of cells, each returned as text: in the calling
# process below its threshold; from it on, the calling process formats the
# first chunk and forked workers the rest, one per CPU but no more than the
# chunks after the first (_pool.ordered_map).  On a 2-vCPU
# host (fresh interpreters, alternating pairs of cli.main calls per grid,
# in-process -> pooled medians), classify-only sweeps in 2,000-cell chunks
# lost in the workers at 2,197 cells (JSON 44 -> 54 ms, 0 pairs of 11
# won), broke even at 2,744 (3-6 of 11 won), and won from 3,000 (JSON
# 66 -> 60 ms, 9 won; CSV 66 -> 59 ms, 10 won) through 3,375, 4,096,
# 5,832 and 6,859 (9-11 of 11 won at each).  A --simulate cell costs more
# and varies more: a period-2 cell can run ~4,000 steps, and such cells
# sit together in the grid, so chunks of 100 cells spread them over the
# workers (50, 67 and 150 did no better on the 11^3 grid).  Those sweeps
# lost at 343 cells (21 -> 36 ms, 0 of 11 won), broke even from 729 to
# 1,089 (4-9 of 11-15 won; 38 -> 42 ms, 5 of 15, at 1,089), and won at
# 1,210 (76 -> 60 ms, 12 of 15) and 1,331 (107 -> 89 ms, 9 of 11).
_SWEEP_POOL_MIN_CELLS = 3_000
_SWEEP_CHUNK_CELLS = 2_000
_SIMULATE_POOL_MIN_CELLS = 1_200
_SIMULATE_CHUNK_CELLS = 100


def _cmd_sweep(args):
    axes = (args.v0, args.v1, args.v2)
    if args.cells is not None and any(a is not None for a in axes):
        raise InvalidInputError("pass either --cells or the --v0/--v1/--v2 axes, not both")
    if args.cells is not None:
        cells, count = iter(args.cells), len(args.cells)
    else:
        if any(a is None for a in axes):
            raise InvalidInputError("axis sweep needs all of --v0, --v1 and --v2")
        count = len(axes[0]) * len(axes[1]) * len(axes[2])
        if count > MAX_GRID_CELLS:
            raise InvalidInputError("grid is too large")
        cells = itertools.product(*axes)
    settings = dict(coordinate=args.m, init=SimplexPoint(*args.init), simulate=args.simulate,
                    bound_check=not args.allow_out_of_range, tol=args.tol,
                    max_steps=args.max_steps, agreement_tol=args.agreement_tol)
    sweep((), **settings)  # checks every setting, so a pooled sweep fails before its first byte
    header = serialize.SWEEP_HEADER
    body, frame = serialize.table_format(args.format, header)
    if args.simulate:
        size, min_cells = _SIMULATE_CHUNK_CELLS, _SIMULATE_POOL_MIN_CELLS
    else:
        size, min_cells = _SWEEP_CHUNK_CELLS, _SWEEP_POOL_MIN_CELLS
    workers = _pool.workers_for(count, min_cells)
    chunks = iter(lambda: list(itertools.islice(cells, size)), [])

    def write(out):
        # the workers get this closure with the fork, so each task is just a chunk's cells;
        # it looks sweep up at each call
        with _pool.ordered_map(lambda chunk: body(sweep(chunk, **settings)), chunks,
                               workers) as texts:
            frame(out, header, texts)

    return write


def _cmd_stochastic(args):
    params = _params_from(args)
    cfg = SampleConfig(
        sample_volume=args.n[0], replications=args.reps, seed=args.seed, steps=args.steps
    )
    if len(args.n) == 1:
        header = serialize.REPLICATION_HEADER
        rows = serialize.replication_rows(run_replications(params, args.init, cfg))
    else:
        header = serialize.DEVIATION_HEADER
        rows = lln_diagnostic(params, args.init, args.n, cfg)
    return lambda out: serialize.write_table(out, args.format, header, rows)


_COMMANDS = {
    "equilibrium": _cmd_equilibrium,
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "stochastic": _cmd_stochastic,
}


def _write_file(emit, path):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".ternary-dynamics-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
        # mkstemp creates the file 0600; give it the mode open(path, "w") would:
        # an existing file keeps its mode, a new one gets 0666 minus the umask.
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp_path, mode)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _fail(exc, code):
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _prepare_argv(argv)
    except InvalidInputError as exc:
        return _fail(exc, EXIT_INVALID_INPUT)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_INPUT if exc.code is None else int(exc.code)
    if args.config is not None:
        # _prepare_argv took out --config in full, so argparse matched an abbreviation
        return _fail("--config must be spelled in full, not abbreviated", EXIT_INVALID_INPUT)
    try:
        emit = _COMMANDS[args.command](args)
        # a sweep computes its rows while it writes them, so its errors can arise here
        if args.output in (None, "-"):
            emit(sys.stdout)
            return EXIT_OK
        try:
            _write_file(emit, args.output)
        except OSError as exc:
            return _fail(f"cannot write output {args.output!r}: {exc.strerror or exc}",
                         EXIT_INVALID_INPUT)
    except NoEquilibriumError as exc:
        return _fail(exc, EXIT_NO_EQUILIBRIUM)
    except DegenerateClampError as exc:
        return _fail(exc, EXIT_DEGENERATE_CLAMP)
    except (BoundaryCaseError, UnresolvedPredictionError) as exc:
        return _fail(exc, EXIT_BOUNDARY)
    except ValueError as exc:  # InvalidInputError included
        return _fail(exc, EXIT_INVALID_INPUT)
    except _pool.WorkerLostError as exc:
        return _fail(exc, EXIT_WORKER_LOST)
    return EXIT_OK


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``); keep the flush at exit from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
