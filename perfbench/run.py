"""Benchmark of the ternary-dynamics CLI workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (see ``workloads.py``): ``sweep_simulate``, ``sweep_classify``,
``stochastic_lln``.  The load is a closed loop of one client: one fresh
interpreter at a time runs one CLI call, with no threads (BLAS pools pinned
to one thread, ``TERNARY_DYNAMICS_MAX_WORKERS`` removed so the serial path is
measured).

``--trace 0`` warms the bytecode cache with one import, then alternates an
import-only interpreter, which also times the fixed ``child.reference()``
computation, with a workload interpreter for about ``--seconds`` and at
least ``MIN_SAMPLES`` workload calls.  It reports medians: ``wall_vs_ref``
(the ``cli.main`` call over the mean reference time just before and just
after it), ``setup_s`` (import of ``ternary_dynamics.cli``), ``peak_rss_mb``
(per child, from ``os.wait4``) and ``success_rate`` (1 - failed/attempted).

``--trace 1`` runs the workload once untraced and once under the span tracer
(``tracing.py``), and reports the per-layer metrics, module self times and
the tracing overhead (traced minus untraced ``wall_s``).

Every output is checked (``check.py``), and every repeat with the same seed
must be byte-identical to the first.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
samples, exact counts and machine description go to
``perfbench/_out/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

MIN_SAMPLES = 3
IMPORTTIME_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.01

PER_LAYER_UNITS = {
    "import.numpy_ms": "ms",
    "import.ternary_dynamics_ms": "ms",
    "core.trajectory.clamped_ns_per_step": "ns",
    "classify.estimate_limit.calls": "count",
    "classify.estimate_limit.steps": "count",
    "classify.estimate_limit.ns_per_step": "ns",
    "classify.estimate_limit.p50_us": "us",
    "classify.estimate_limit.p99_ms": "ms",
    "classify.estimate_limit.useful_step_ratio": "ratio",
    "classify.sweep.self_s": "s",
    "classify.classify.us_per_cell": "us",
    "sampling.run_replications.us_per_stage": "us",
    "sampling.replication_stream.us": "us",
    "sampling.stochastic_step.us": "us",
    "sampling.lln_diagnostic.self_s": "s",
    "serialize.sweep_to_json.rows_per_s": "1/s",
    "serialize.sweep_to_csv.rows_per_s": "1/s",
    "serialize.output_bytes": "bytes",
    "cli.self_s": "s",
    "core.self_s": "s",
    "classify.self_s": "s",
    "sampling.self_s": "s",
    "serialize.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "sweep.rows_agree": "count",
    "sweep.rows_disagree": "count",
    "sweep.rows_not_converged": "count",
}

CHILD_ENV_DROP = ("TERNARY_DYNAMICS_MAX_WORKERS", "PYTHONDONTWRITEBYTECODE")
CHILD_ENV_SET = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
    env.update(CHILD_ENV_SET)
    return env


def spawn(argv, log_path, timeout=CHILD_TIMEOUT_S):
    """Run ``argv`` to completion; return (exit code or None on timeout, rusage).

    ``os.wait4`` gives this child's own rusage.  A spawned child's
    ``ru_maxrss`` can never read below the parent's resident peak, so the
    parent keeps large outputs out of its own memory (see ``check.py``).
    """
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, log_fd, 1),
            (os.POSIX_SPAWN_DUP2, log_fd, 2),
        ])
    finally:
        os.close(log_fd)
    deadline = time.monotonic() + timeout
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return os.waitstatus_to_exitcode(status), usage
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                _, _, usage = os.wait4(pid, 0)
                return None, usage
            time.sleep(POLL_S)
    except BaseException:
        try:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        raise


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Bench:
    """One benchmark run of one workload: scratch files, operation counts, samples."""

    def __init__(self, spec, tmp):
        self.spec = spec
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference_digest = None
        self.counts = {}
        self.output_bytes = None
        self._seq = 0

    def scratch_path(self, stem):
        self._seq += 1
        return self.tmp / f"{self._seq:04d}-{stem}"

    def child(self, mode, job):
        """Run child.py in a fresh interpreter.

        Returns (result dict or None, rusage, log path, exit code).
        """
        job_path = self.scratch_path(f"{mode}.job.json")
        job = dict(job, result=str(self.scratch_path(f"{mode}.result.json")))
        job_path.write_text(json.dumps(job), encoding="utf-8")
        log = self.scratch_path(f"{mode}.log")
        argv = [sys.executable, str(HERE / "child.py"), mode, str(SRC), str(job_path)]
        code, usage = spawn(argv, log)
        result = None
        if code == 0:
            result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
            module = Path(result["module_file"]).resolve()
            if SRC.resolve() not in module.parents:
                raise SystemExit(f"ternary_dynamics was imported from {module}, not from {SRC}")
        return result, usage, log, code

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check_output(self, spec, path):
        """Check one output file: byte-identical to the first, fully checked the first time."""
        if not path.is_file():
            self.fail(f"{spec['name']}: no output file written")
            return False
        found = digest(path)
        if spec["name"] != self.spec["name"]:
            return self._check_file(spec, path)
        if self.reference_digest is None:
            ok = self._check_file(spec, path)
            self.reference_digest = found
            self.output_bytes = path.stat().st_size
            return ok
        if found != self.reference_digest:
            self.fail(f"{spec['name']}: output differs from the first run with the same seed")
            return False
        return True

    def _check_file(self, spec, path):
        spec_path = self.scratch_path("spec.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path = self.scratch_path("check.json")
        code, _ = spawn([sys.executable, str(HERE / "check.py"), str(spec_path), str(path),
                         str(result_path)], self.scratch_path("check.log"))
        if code != 0:
            self.fail(f"{spec['name']}: output checker exited with {code}")
            return False
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if spec["name"] == self.spec["name"]:
            self.counts = result["counts"]
        if not result["ok"]:
            self.fail(f"{spec['name']}: {result['error_count']} check failures, first: "
                      f"{result['errors'][:3]}")
        return result["ok"]

    def import_sample(self):
        result, _, log, code = self.child("import", {})
        if result is None:
            raise SystemExit(f"importing ternary_dynamics.cli failed (exit {code}); see {log}")
        return result

    def run_sample(self):
        """One untraced CLI call; return (wall_s, setup_s, peak RSS in KiB) or None on failure."""
        out = self.scratch_path(f"{self.spec['name']}.out")
        self.attempted += 1
        argv = self.spec["argv"] + ["--output", str(out)]
        result, usage, log, code = self.child("run", {"argv": argv})
        try:
            if result is None or result["rc"] != 0:
                rc = code if result is None else result["rc"]
                self.fail(f"{self.spec['name']}: exit {rc}; see {log}")
                return None
            if not self.check_output(self.spec, out):
                return None
            return result["wall_s"], result["setup_s"], usage.ru_maxrss
        finally:
            if out.exists():
                out.unlink()


def measure(bench, seconds):
    """Untraced run: end-to-end metrics.

    The host's speed drifts by up to 1.8x over minutes (other tenants), so
    the call time is reported as ``wall_vs_ref``: each call divided by the
    mean time of the fixed ``child.reference()`` computation in the
    import-only interpreters just before and just after it, which bracket
    the call's own stretch of host load.  Raw seconds are kept in the
    report.  A new call starts only while more than half a call's expected
    time is left, so a run lasts about ``seconds`` plus set-up, not plus a
    whole call.
    """
    spec = bench.spec
    first = bench.import_sample()  # warm-up: writes bytecode caches, pages in shared libraries
    gauge = bench.import_sample()
    setups, walls, rss, refs = [gauge["setup_s"]], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        now = time.perf_counter()
        pair_s = (now - start) / bench.attempted if bench.attempted else 0.0
        if bench.attempted >= MIN_SAMPLES and now + pair_s / 2 > deadline:
            break
        sample = bench.run_sample()
        before, gauge = gauge, bench.import_sample()
        setups.append(gauge["setup_s"])
        if sample is not None:
            walls.append(sample[0])
            setups.append(sample[1])
            rss.append(sample[2])
            refs.append((before["ref_s"] + gauge["ref_s"]) / 2)
    if not walls:
        raise SystemExit(f"{spec['name']}: no successful sample: {bench.errors[:3]}")
    metrics = {
        "wall_vs_ref": (statistics.median(w / r for w, r in zip(walls, refs)), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MiB"),
        "success_rate": (1.0 - bench.failed / bench.attempted, "ratio"),
    }
    samples = {"wall_s": walls, "ref_s": refs, "setup_s": setups, "peak_rss_kib": rss,
               "wall_s_median": statistics.median(walls),
               "work_per_s_median": statistics.median(spec["work"] / w for w in walls)}
    return metrics, samples, first


def import_times(bench):
    """Median numpy and package import cost from ``-X importtime`` in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ternary_dynamics.cli"
    numpy_ms, package_ms = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        log = bench.scratch_path("importtime.log")
        status, _ = spawn([sys.executable, "-X", "importtime", "-c", code], log)
        if status != 0:
            raise SystemExit(f"-X importtime run failed (exit {status}); see {log}")
        numpy_us = package_us = 0
        for line in log.read_text(encoding="utf-8").splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            name = name.strip()
            if name == "numpy" and not numpy_us:
                numpy_us = int(cumulative)
            if depth == 0 and name.split(".")[0] == "ternary_dynamics":
                package_us += int(cumulative)
        numpy_ms.append(numpy_us / 1e3)
        package_ms.append((package_us - numpy_us) / 1e3)
    return statistics.median(numpy_ms), statistics.median(package_ms)


def trace(bench, seed):
    """Traced run: per-layer metrics, module self times and tracing overhead."""
    spec = bench.spec
    machine_extra = bench.import_sample()
    untraced = bench.run_sample()
    specs = [spec] + [workloads.build(n, seed) for n in workloads.NAMES if n != spec["name"]]
    outputs = {s["name"]: str(bench.scratch_path(f"traced-{s['name']}.out")) for s in specs}
    OUT.mkdir(exist_ok=True)
    job = {"workload": spec["name"], "seed": seed, "specs": specs, "outputs": outputs,
           "spans_path": str(OUT / f"spans-{spec['name']}.csv.gz")}
    bench.attempted += len(specs)
    result, _, log, code = bench.child("trace", job)
    if result is None:
        raise SystemExit(f"traced run failed (exit {code}); see {log}")
    for s in specs:
        if result["rc"][s["name"]] != 0:
            bench.fail(f"{s['name']} (traced): exit {result['rc'][s['name']]}")
        else:
            bench.check_output(s, Path(outputs[s["name"]]))
    if untraced is None:
        raise SystemExit(f"{spec['name']}: untraced sample failed: {bench.errors[:3]}")
    numpy_ms, package_ms = import_times(bench)
    metrics = dict(result["metrics"])
    metrics["import.numpy_ms"] = numpy_ms
    metrics["import.ternary_dynamics_ms"] = package_ms
    metrics["trace.overhead_s"] = result["traced_wall_s"][spec["name"]] - untraced[0]
    metrics["serialize.output_bytes"] = bench.output_bytes
    metrics["sweep.rows_agree"] = bench.counts.get("agreement.agree", 0)
    metrics["sweep.rows_disagree"] = bench.counts.get("agreement.disagree", 0)
    metrics["sweep.rows_not_converged"] = bench.counts.get("flag.not_converged", 0)
    samples = {"untraced_wall_s": untraced[0], "traced_wall_s": result["traced_wall_s"],
               "span_ranges": result["ranges"], "spans_path": job["spans_path"]}
    return metrics, samples, machine_extra


def machine(extra):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": extra["numpy_version"],
        "ternary_dynamics": extra["package_version"],
        "platform": platform.platform(),
    }


def run_workload(name, seed, seconds, traced):
    """Measure one workload; return (report dict, metrics {name: {value, unit}})."""
    spec = workloads.build(name, seed)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        bench = Bench(spec, tmp)
        if traced:
            raw, samples, extra = trace(bench, seed)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in raw.items()}
        else:
            raw, samples, extra = measure(bench, seconds)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "argv": spec["argv"], "work": spec["work"], "work_unit": spec["work_unit"],
        "machine": machine(extra), "attempted": bench.attempted, "failed": bench.failed,
        "errors": bench.errors, "counts": bench.counts, "output_bytes": bench.output_bytes,
        "samples": samples, "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report, metrics


def summary_line(report):
    parts = [f"{k}={v['value']:.6g} {v['unit']}".rstrip() for k, v in report["metrics"].items()]
    samples = report["samples"]
    if "wall_s_median" in samples:
        parts.append(f"raw wall_s={samples['wall_s_median']:.6g} s, "
                     f"work_per_s={samples['work_per_s_median']:.6g} {report['work_unit']}/s")
    return f"{report['workload']} seed={report['seed']}: " + ", ".join(parts)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "ternary_dynamics" / "cli.py").is_file():
        print(f"error: package source not found at {SRC / 'ternary_dynamics'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    reports, metrics = [], {}
    for name in names:
        report, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
        reports.append(report)
        if len(names) == 1:
            metrics = found
        else:
            metrics.update({f"{name}.{k}": v for k, v in found.items()})
    print("machine: " + json.dumps(reports[0]["machine"], sort_keys=True))
    for report in reports:
        print("counts: " + json.dumps({"workload": report["workload"], **report["counts"],
                                       "output_bytes": report["output_bytes"]}))
        for error in report["errors"]:
            print(f"error: {report['workload']}: {error}", file=sys.stderr)
        print(summary_line(report))
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
