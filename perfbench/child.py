"""One measured sample in a fresh interpreter.

Usage: ``python3 child.py MODE SRC_DIR JOB_JSON``.  The import of
``ternary_dynamics.cli`` is timed before anything else is imported, so
``setup_s`` is what a user's process pays for it.  MODE is ``import``
(setup, then the fixed ``reference()`` computation timed as ``ref_s``),
``run`` (``cli.main(argv)`` timed as ``wall_s``) or ``trace`` (all workloads
under the span tracer).  The result is written as JSON to
the job's ``result`` path.
"""

import sys
import time

REF_STEPS = 160_000


def reference(steps=REF_STEPS):
    """Fixed work that no change to the package can alter: the host's speed gauge.

    It mixes what the workloads spend their time on, scalar float tuples
    stepped through a clamped linear map and small numpy multinomial draws
    from a Philox stream.  It runs in the import-only interpreter, so it
    adds nothing to the measured call's time, imports or peak RSS.
    """
    import numpy as np

    rows = ((0.2, -0.1, -0.1), (-0.1, 0.2, -0.1), (-0.1, -0.1, 0.2))
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    p = (0.5, 0.3, 0.2)
    drawn = 0
    for k in range(steps):
        q = tuple(x - (r[0] * p[0] + r[1] * p[1] + r[2] * p[2]) for x, r in zip(p, rows))
        q = tuple(min(1.0, max(0.0, x)) for x in q)
        total = q[0] + q[1] + q[2]
        p = (q[0] / total, q[1] / total, q[2] / total)
        if k % 4 == 0:
            drawn += int(rng.multinomial(1000, p)[0])
    return drawn


def main():
    mode, src, job_path = sys.argv[1:4]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ternary_dynamics.cli as cli
    setup_s = time.perf_counter() - t0

    import json

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"setup_s": setup_s, "module_file": cli.__file__}
    if mode == "import":
        numpy = sys.modules.get("numpy")
        if numpy is None:
            import numpy
        result["numpy_version"] = numpy.__version__
        result["package_version"] = sys.modules["ternary_dynamics"].__version__
        t1 = time.perf_counter()
        reference()
        result["ref_s"] = time.perf_counter() - t1
    elif mode == "run":
        t1 = time.perf_counter()
        result["rc"] = cli.main(job["argv"])
        result["wall_s"] = time.perf_counter() - t1
    elif mode == "trace":
        import tracing

        result.update(tracing.run(cli, job))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
