"""Output checks for the benchmark workloads, written independently of the package.

Run as ``python3 check.py SPEC_JSON OUTPUT_PATH RESULT_PATH``: it reads one
CLI output file, checks it against the workload spec and writes
``{"ok": bool, "errors": [...], "counts": {...}}`` to RESULT_PATH.  It runs
in its own process so that parsing a large output never raises the
benchmark parent's resident set, which every child it spawns inherits as a
floor on its reported peak RSS.

Sweep rows are checked against a closed-form reference (V, rho and the
four-row scenario table) and, on a seed-chosen sample of converged cells,
against a scalar clamped iteration written here.  Where the reference sits
within a rounding band of a case boundary, either answer is accepted.
"""

import csv
import json
import random
import sys

SCENARIOS = ("attractive", "repulsive", "dominant", "degenerate")
ROW_MARKERS = ("boundary", "no_equilibrium", "invalid_params")
FLAGS = ("not_converged", "degenerate_clamp", "unresolved_prediction", "v_zero",
         "rho_boundary", "params_out_of_range")
AMBIGUOUS_REL = 1e-9
GRID_TOL = 1e-9
RHO_REL_TOL = 1e-9
REFERENCE_SAMPLE = 40
MAX_ERRORS = 20


def _num(text):
    return None if text == "" else float(text)


def read_sweep(path, fmt):
    """Rows as dicts with floats/None, flags as a tuple of strings."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            rows = json.load(fh)
            for row in rows:
                row["flags"] = tuple(row["flags"])
            return rows
        rows = []
        for rec in csv.DictReader(fh):
            row = {key: _num(rec[key]) for key in (
                "v0", "v1", "v2", "rho_m", "v_m", "predicted_limit", "contraction_factor",
                "simulated_limit")}
            row["coordinate"] = int(rec["coordinate"])
            row["scenario"] = rec["scenario"]
            row["agreement"] = rec["agreement"] or None
            row["flags"] = tuple(f for f in rec["flags"].split(";") if f)
            rows.append(row)
        return rows


def expected_cell(v, m, init_m):
    """Acceptable scenarios, reference rho_m and predicted limit per scenario."""
    v0, v1, v2 = v
    products = (v1 * v2, v0 * v2, v0 * v1)
    denom = products[0] + products[1] + products[2]
    scale = max(abs(p) for p in products)
    if denom == 0.0:
        return {"no_equilibrium"}, None, {}
    rho = products[m] / denom
    v_m = v[m]
    if v_m == 0.0:
        return {"boundary"}, rho, {}
    if 0.0 < rho < 1.0:
        scenario = "attractive" if v_m > 0.0 else "repulsive"
    else:
        scenario = "dominant" if v_m < 0.0 else "degenerate"
    accepted = {scenario}
    if abs(denom) <= AMBIGUOUS_REL * scale:
        accepted.add("no_equilibrium")
    if min(abs(rho), abs(rho - 1.0)) <= AMBIGUOUS_REL:
        accepted.update({"boundary", "attractive", "repulsive", "dominant", "degenerate"})
    predicted = {
        "attractive": rho,
        "repulsive": 1.0 if init_m > rho else 0.0,
        "dominant": 1.0,
        "degenerate": 0.0,
    }
    return accepted, rho, predicted


def reference_limit(v, init, m, tol=1e-10, window=10, max_steps=10000, absorb=1e-9):
    """Scalar clamped iteration: p - M p with (M p)_k = 3 v_k p_k - sum_n v_n p_n.

    Returns the coordinate's terminal value and whether the stop rule fired
    (``window`` steps within ``tol``, or an exact fixed point) before ``max_steps``.
    """
    p = list(init)
    quiet = 0
    for _ in range(max_steps):
        s = v[0] * p[0] + v[1] * p[1] + v[2] * p[2]
        q = [min(1.0, max(0.0, p[k] - (3.0 * v[k] * p[k] - s))) for k in range(3)]
        total = q[0] + q[1] + q[2]
        q = [x / total for x in q]
        for k in range(3):
            if q[k] >= 1.0 - absorb:
                q = [1.0 if n == k else 0.0 for n in range(3)]
                break
        delta = max(abs(q[k] - p[k]) for k in range(3))
        p = q
        if delta == 0.0:
            return p[m], True
        quiet = quiet + 1 if delta <= tol else 0
        if quiet >= window:
            return p[m], True
    return p[m], False


def sweep_counts(rows):
    counts = {"rows": len(rows)}
    for name in SCENARIOS + ROW_MARKERS:
        counts[f"scenario.{name}"] = 0
    for name in ("agree", "disagree", "none"):
        counts[f"agreement.{name}"] = 0
    for name in FLAGS:
        counts[f"flag.{name}"] = 0
    for row in rows:
        key = f"scenario.{row['scenario']}"
        counts[key] = counts.get(key, 0) + 1
        counts[f"agreement.{row['agreement'] or 'none'}"] += 1
        for flag in row["flags"]:
            counts[f"flag.{flag}"] = counts.get(f"flag.{flag}", 0) + 1
    return counts


def check_sweep(spec, rows, errors):
    start, stop, step = spec["axis"]
    n = int(round((stop - start) / step)) + 1
    axis = [start + i * step for i in range(n)]
    m = spec["m"]
    init = spec["init"]
    tol = spec["agreement_tol"]
    if len(rows) != n ** 3:
        errors.append(f"expected {n ** 3} rows, got {len(rows)}")
        return
    candidates = []
    for idx, row in enumerate(rows):
        cell = (axis[idx // (n * n)], axis[(idx // n) % n], axis[idx % n])
        got = (row["v0"], row["v1"], row["v2"])
        if any(abs(a - b) > GRID_TOL for a, b in zip(got, cell)) or row["coordinate"] != m:
            errors.append(f"row {idx}: cell {got}, coordinate {row['coordinate']}: "
                          "out of grid order")
            continue
        accepted, rho, predicted = expected_cell(got, m, init[m])
        scenario = row["scenario"]
        if scenario not in accepted:
            errors.append(f"row {idx} {got}: scenario {scenario!r}, "
                          f"expected one of {sorted(accepted)}")
            continue
        simulated = row["simulated_limit"]
        if scenario in SCENARIOS:
            if abs(row["rho_m"] - rho) > RHO_REL_TOL * max(1.0, abs(rho)):
                errors.append(f"row {idx} {got}: rho_m {row['rho_m']!r}, reference {rho!r}")
            if row["predicted_limit"] is not None and scenario in predicted:
                want = predicted[scenario]
                if abs(row["predicted_limit"] - want) > RHO_REL_TOL * max(1.0, abs(want)):
                    errors.append(f"row {idx} {got}: predicted {row['predicted_limit']!r}, "
                                  f"reference {want!r}")
        if not spec["simulate"]:
            if simulated is not None or row["agreement"] is not None:
                errors.append(f"row {idx}: simulated columns set without --simulate")
            continue
        if simulated is not None and not 0.0 <= simulated <= 1.0:
            errors.append(f"row {idx} {got}: simulated limit {simulated!r} outside [0, 1]")
        if simulated is not None and row["predicted_limit"] is not None:
            want = "agree" if abs(simulated - row["predicted_limit"]) <= tol else "disagree"
            if row["agreement"] != want:
                errors.append(f"row {idx} {got}: agreement {row['agreement']!r}, "
                              f"expected {want!r}")
        elif row["agreement"] is not None:
            errors.append(f"row {idx} {got}: agreement {row['agreement']!r} without both limits")
        if simulated is not None:
            candidates.append((idx, got, simulated, "not_converged" not in row["flags"]))
    # Sampled from every simulated cell, so a kernel change that stops cells
    # from converging cannot hide behind the not_converged flag.
    count = min(REFERENCE_SAMPLE, len(candidates))
    sample = random.Random(spec["seed"]).sample(candidates, count)
    for idx, cell, simulated, converged in sample:
        ref, ref_converged = reference_limit(cell, init, m)
        if abs(ref - simulated) > tol or converged != ref_converged:
            errors.append(f"row {idx} {cell}: simulated {simulated!r} (converged {converged}), "
                          f"scalar reference {ref!r} (converged {ref_converged})")


def check_stochastic(spec, path, errors):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    counts = {"rows": len(rows)}
    if [int(r["n"]) for r in rows] != spec["volumes"]:
        errors.append(f"sample volumes {[r['n'] for r in rows]}, expected {spec['volumes']}")
        return counts
    if any(int(r["replications"]) != spec["reps"] for r in rows):
        errors.append(f"replications column is not {spec['reps']} on every row")
    medians = [float(r["median_max_deviation"]) for r in rows]
    if any(b >= a for a, b in zip(medians, medians[1:])):
        errors.append(f"median deviation does not strictly decrease in n: {medians}")
    for row, med in zip(rows, medians):
        counts[f"median_max_deviation.n{row['n']}"] = med
    return counts


def check_output(spec, path):
    errors = []
    if spec["kind"] == "sweep":
        rows = read_sweep(path, spec["format"])
        check_sweep(spec, rows, errors)
        counts = sweep_counts(rows)
    else:
        counts = check_stochastic(spec, path, errors)
    return {"ok": not errors, "errors": errors[:MAX_ERRORS], "error_count": len(errors),
            "counts": counts}


def main(argv):
    spec_path, output_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = check_output(spec, output_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result = {"ok": False, "errors": [f"unreadable output: {exc!r}"], "error_count": 1,
                  "counts": {}}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
