"""Traced run: spans around the package's public functions, taken from outside it.

Every public function defined in ``cli``, ``core``, ``classify``,
``sampling`` and ``serialize`` is replaced, in every module namespace that
binds it, by a wrapper that records a span (name, start, end, parent).
Spans stay in memory in flat arrays and are written out once at the end.
The package itself is not modified; ``_parallel`` is left untraced.
Private helpers are not wrapped, so their time counts toward the public
function that calls them (the clamped kernel ``core._clamped_step`` shows up
as self time of ``classify.estimate_limit`` and ``sampling.run_replications``).

One traced run executes all three workloads through ``cli.main`` so that
every per-layer metric is measured on the workload it belongs to, whatever
workload the run is for; module self times and the span count describe the
run's own workload.
"""

import functools
import gzip
import importlib
import inspect
import statistics
import time
from array import array

MODULES = ("cli", "core", "classify", "sampling", "serialize")

TRAJECTORY_STEPS = 30_000
TRAJECTORY_REPEATS = 3
STOCHASTIC_STEP_CALLS = 2_000
STOCHASTIC_STEP_VOLUME = 1_000
CONTRACTING_V = (0.1, 0.1, 0.1)


class Tracer:
    """Flat span store; span ``i`` has a name, a parent index (-1 for a root), start and end."""

    def __init__(self):
        self.labels = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.results = {}
        self._stack = [-1]

    def __len__(self):
        return len(self.start)

    def wrap(self, label, fn, probe=None):
        label_id = len(self.labels)
        self.labels.append(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, results, clock = self._stack, self.results, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(label_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                results[idx] = probe(out)
            return out

        return traced

    def install(self, probes):
        """Wrap each public function of the traced modules wherever it is bound."""
        mods = {short: importlib.import_module(f"ternary_dynamics.{short}") for short in MODULES}
        namespaces = [importlib.import_module("ternary_dynamics"), *mods.values()]
        for short, mod in mods.items():
            public = [
                (attr, fn) for attr, fn in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
            ]
            for attr, fn in public:
                label = f"{short}.{attr}"
                wrapped = self.wrap(label, fn, probes.get(label))
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is fn]:
                        setattr(ns, key, wrapped)
        return mods

    def spans(self, lo, hi, label):
        """Indices of spans named ``label`` in ``[lo, hi)``."""
        if label not in self.labels:
            return []
        label_id = self.labels.index(label)
        return [i for i in range(lo, hi) if self.name[i] == label_id]

    def duration(self, i):
        return self.end[i] - self.start[i]

    def total_ns(self, lo, hi, label):
        return sum(self.duration(i) for i in self.spans(lo, hi, label))

    def child_ns(self):
        covered = [0] * len(self)
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.duration(i)
        return covered

    def self_ns(self, i, covered):
        return self.duration(i) - covered[i]

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self)):
                label = self.labels[self.name[i]]
                fh.write(f"{i},{self.parent[i]},{label},{self.start[i]},{self.end[i]}\n")


def _estimate_summary(estimate):
    return (estimate.steps_used, estimate.converged)


def run(cli, job):
    """Execute the traced job inside the child; return metrics and per-workload exit codes."""
    tracer = Tracer()
    mods = tracer.install({"classify.estimate_limit": _estimate_summary})
    ranges = {}
    rcs = {}
    walls = {}
    for spec in job["specs"]:
        lo = len(tracer)
        rcs[spec["name"]] = cli.main(spec["argv"] + ["--output", job["outputs"][spec["name"]]])
        ranges[spec["name"]] = (lo, len(tracer))
        walls[spec["name"]] = tracer.duration(lo) / 1e9
    lo = len(tracer)
    probe_metrics = _probes(mods, job["specs"][0]["init"], job["seed"])
    ranges["probes"] = (lo, len(tracer))

    specs = {spec["name"]: spec for spec in job["specs"]}
    covered = tracer.child_ns()
    metrics = dict(probe_metrics)
    for name, layer_metrics in (("sweep_simulate", _sweep_simulate_metrics),
                                ("sweep_classify", _sweep_classify_metrics),
                                ("stochastic_lln", _stochastic_metrics)):
        metrics.update(layer_metrics(tracer, ranges[name], specs[name], covered))

    own = job["workload"]
    lo, hi = ranges[own]
    module_self = {short: 0 for short in MODULES}
    for i in range(lo, hi):
        module_self[tracer.labels[tracer.name[i]].split(".", 1)[0]] += tracer.self_ns(i, covered)
    for short in MODULES:
        metrics[f"{short}.self_s"] = module_self[short] / 1e9
    metrics["trace.spans"] = hi - lo

    tracer.write(job["spans_path"])
    return {"metrics": metrics, "rc": rcs, "traced_wall_s": walls,
            "ranges": {k: list(v) for k, v in ranges.items()}}


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _sweep_simulate_metrics(tracer, rng, spec, covered):
    lo, hi = rng
    calls = tracer.spans(lo, hi, "classify.estimate_limit")
    durs = [tracer.duration(i) for i in calls]
    steps = [tracer.results[i][0] for i in calls]
    useful = sum(s for i, s in zip(calls, steps) if tracer.results[i][1])
    total_steps = sum(steps)
    sweep_ns = tracer.total_ns(lo, hi, "classify.sweep")
    csv_ns = tracer.total_ns(lo, hi, "serialize.sweep_to_csv")
    return {
        "classify.estimate_limit.calls": len(calls),
        "classify.estimate_limit.steps": total_steps,
        "classify.estimate_limit.ns_per_step": sum(durs) / max(1, total_steps),
        "classify.estimate_limit.p50_us": statistics.median(durs) / 1e3,
        "classify.estimate_limit.p99_ms": _percentile(durs, 0.99) / 1e6,
        "classify.estimate_limit.useful_step_ratio": useful / max(1, total_steps),
        "classify.sweep.self_s": (sweep_ns - sum(durs)) / 1e9,
        "serialize.sweep_to_csv.rows_per_s": spec["work"] / (csv_ns / 1e9),
    }


def _sweep_classify_metrics(tracer, rng, spec, covered):
    lo, hi = rng
    calls = tracer.spans(lo, hi, "classify.classify")
    json_ns = tracer.total_ns(lo, hi, "serialize.sweep_to_json")
    return {
        "classify.classify.us_per_cell": sum(tracer.duration(i) for i in calls) / len(calls) / 1e3,
        "serialize.sweep_to_json.rows_per_s": spec["work"] / (json_ns / 1e9),
    }


def _stochastic_metrics(tracer, rng, spec, covered):
    lo, hi = rng
    streams = tracer.spans(lo, hi, "sampling.replication_stream")
    lln = tracer.spans(lo, hi, "sampling.lln_diagnostic")
    return {
        "sampling.run_replications.us_per_stage":
            tracer.total_ns(lo, hi, "sampling.run_replications") / spec["work"] / 1e3,
        "sampling.replication_stream.us":
            sum(tracer.duration(i) for i in streams) / len(streams) / 1e3,
        "sampling.lln_diagnostic.self_s": sum(tracer.self_ns(i, covered) for i in lln) / 1e9,
    }


def _probes(mods, init, seed):
    """Layer probes that no workload calls directly from the CLI."""
    core, sampling = mods["core"], mods["sampling"]
    params = core.DirectingParams(*CONTRACTING_V)
    start = core.SimplexPoint(*init)
    per_step = []
    for _ in range(TRAJECTORY_REPEATS):
        t0 = time.perf_counter_ns()
        core.trajectory(params, start, TRAJECTORY_STEPS, mode="clamped")
        per_step.append((time.perf_counter_ns() - t0) / TRAJECTORY_STEPS)
    rng = sampling.replication_stream(seed % 2**64, 0)
    freq = start
    t0 = time.perf_counter_ns()
    for _ in range(STOCHASTIC_STEP_CALLS):
        freq = sampling.stochastic_step(params, freq, STOCHASTIC_STEP_VOLUME, rng)
    step_ns = (time.perf_counter_ns() - t0) / STOCHASTIC_STEP_CALLS
    return {
        "core.trajectory.clamped_ns_per_step": statistics.median(per_step),
        "sampling.stochastic_step.us": step_ns / 1e3,
    }
