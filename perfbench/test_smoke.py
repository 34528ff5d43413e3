"""Smoke test of the benchmark itself, on shrunken workloads.

Run with ``python3 -m pytest perfbench/test_smoke.py``.  It checks that every
metric named in BENCHMARK.json is reported with its unit, that outputs pass
their checks, and that the benchmark refuses to run without the package
source.  It is not part of the package's test suite.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "sweep_simulate": {"start": -0.9, "stop": 0.9, "step": 0.45},
    "sweep_classify": {"start": -0.9, "stop": 0.9, "step": 0.3},
    "stochastic_lln": {"v": (0.1, 0.1, 0.1), "volumes": (10, 100, 1000, 10000),
                       "reps": 20, "steps": 20},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    for name, size in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, size)
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)
    monkeypatch.setattr(run, "IMPORTTIME_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def test_config_names_the_workloads():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.NAMES)
    assert CONFIG["command"] == ["python3", "perfbench/run.py"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in CONFIG["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_appears_with_its_unit(capsys, name, trace):
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_same_seed_gives_the_same_exact_counts(capsys):
    found = []
    for _ in range(2):
        run.main(["--workload", "sweep_simulate", "--seed", "5", "--trace", "1"])
        metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
        found.append([metrics[k]["value"] for k in (
            "classify.estimate_limit.steps", "serialize.output_bytes")])
    assert found[0] == found[1]


def test_refuses_to_run_without_package_source(tmp_path):
    skip = shutil.ignore_patterns("_out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
