"""Byte-for-byte CLI outputs pinned in ``tests/golden/``.

Each case runs ``main(argv + ["--format", fmt])`` in process and compares
what it writes, to stdout and to an ``--output`` file, with
``tests/golden/<name>.<fmt>``; one case also runs as a child process so the
real stdout stream is checked.  The cycle cases cover
period-4 orbits (``0.18,0.9,0.54`` and ``0.9,0.36,0.54``, locked in after
~35 steps) and slow period-2 orbits (``0.72,0.72,0.9`` and
``0.9,0.72,0.72``, locked in after ~2,900 steps) at several ``--max-steps``
of each parity, including 51, 2865 and 2945, where ``estimate_limit``
first sees a cell's cycle on the last step (CSV only for these).

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ternary_dynamics.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
INIT = ["--init", "0.5,0.3,0.2"]
CYCLE_CELLS = ["--cells", "0.18,0.9,0.54;0.9,0.36,0.54;0.72,0.72,0.9;0.9,0.72,0.72"]
GRID_5 = "-0.9:0.9:0.45"
# Rows no grid case has: an overflowing (Infinity) and a NaN contraction
# factor, Infinity/NaN parameters (invalid_params), no_equilibrium, a simulated
# params_out_of_range cell and a boundary cell with two flags.
NONFINITE_CELLS = ("1e200,1e200,1e200;1e200,-1e200,3;inf,0.1,0.1;nan,0.1,0.1;"
                   "2,-0.3,0.7;0,0.5,0.5")

CASES = {
    "equilibrium": ["equilibrium", "--v", "0.5,1,1"],
    "equilibrium_out_of_range": ["equilibrium", "--v", "2,-0.3,0.7", "--allow-out-of-range"],
    "simulate_raw": ["simulate", "--v", "0.1,0.1,0.1", *INIT, "--steps", "60", "--mode", "raw"],
    "simulate_clamped": ["simulate", "--v", "0.72,0.72,0.9", *INIT, "--steps", "40",
                         "--mode", "clamped"],
    "classify_attractive": ["classify", "--v", "0.1,0.1,0.1", "--m", "0"],
    "classify_repulsive_p0": ["classify", "--v", "-0.2,0.5,-0.4", "--m", "0", "--p0", "0.5"],
    "classify_repulsive_conditional": ["classify", "--v", "-0.2,0.5,-0.4", "--m", "0"],
    "sweep_classify_grid": ["sweep", "--v0", "-0.9:0.9:0.3", "--v1", "-0.9:0.9:0.3",
                            "--v2", "0.2", "--m", "1", *INIT],
    "sweep_simulate_grid": ["sweep", "--v0", GRID_5, "--v1", GRID_5, "--v2", GRID_5,
                            "--m", "0", *INIT, "--simulate"],
    "sweep_cycles": ["sweep", *CYCLE_CELLS, "--m", "0", *INIT, "--simulate"],
    "sweep_cycles_m2": ["sweep", *CYCLE_CELLS, "--m", "2", *INIT, "--simulate"],
    "sweep_nonfinite": ["sweep", "--cells", NONFINITE_CELLS, *INIT, "--allow-out-of-range",
                        "--simulate"],
    "stochastic_replications": ["stochastic", "--v", "0.1,0.1,0.1", *INIT, "--n", "1000",
                                "--reps", "2", "--seed", "42", "--steps", "10"],
    "stochastic_lln": ["stochastic", "--v", "0.1,0.1,0.1", *INIT, "--n", "10,100,1000",
                       "--reps", "20", "--seed", "42", "--steps", "30"],
}
FORMATS = ("csv", "json")
GOLDEN = [(name, fmt) for name in CASES for fmt in FORMATS]

# Both parities of --max-steps, at and after the steps where the period-4
# cycles (51) and the slow period-2 cycles (2865, 2945) are first seen, and
# before and after those; CSV only, the JSON emitter is covered above.
for _steps in (51, 52, 2865, 2866, 2901, 2945, 2946, 4097, 4098, 6001, 6002, 6003):
    CASES[f"sweep_cycles_max{_steps}"] = [
        "sweep", *CYCLE_CELLS, "--m", "0", *INIT, "--simulate", "--max-steps", str(_steps)
    ]
    GOLDEN.append((f"sweep_cycles_max{_steps}", "csv"))


def _stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, f"exit code {code} for {argv}"
    return buffer.getvalue().encode("utf-8")


def _golden_path(name, fmt):
    return GOLDEN_DIR / f"{name}.{fmt}"


# Each case goes to stdout and to an --output file; the stdout ids stay "<name>-<fmt>".
DESTINATIONS = [pytest.param(name, fmt, to_file, id=f"{name}-{fmt}" + ("-file" if to_file else ""))
                for name, fmt in GOLDEN for to_file in (False, True)]


@pytest.mark.parametrize("name, fmt, to_file", DESTINATIONS)
def test_cli_stdout_matches_golden(name, fmt, to_file, tmp_path):
    expected = _golden_path(name, fmt).read_bytes()
    argv = [*CASES[name], "--format", fmt]
    if not to_file:
        assert _stdout(argv) == expected
        return
    path = tmp_path / "file"
    assert _stdout([*argv, "--output", str(path)]) == b""
    assert path.read_bytes() == expected


def test_cli_process_stdout_matches_golden():
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [*CASES["sweep_cycles_max6001"], "--format", "csv"]
    proc = subprocess.run(
        [sys.executable, "-m", "ternary_dynamics", *argv],
        capture_output=True, env=env, check=True,
    )
    assert proc.stdout == _golden_path("sweep_cycles_max6001", "csv").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, case_fmt in GOLDEN:
        _golden_path(case, case_fmt).write_bytes(_stdout([*CASES[case], "--format", case_fmt]))
