"""Compare two perfbench results, or alternate two checkouts.

    python -m perfbench compare A.json B.json
    python -m perfbench compare --pairs N --a DIR_A --b DIR_B \\
        [--workload NAME] [--seed N]

One row per workload x end-to-end metric: both values, the ratio *with
its base* (B over A), the bound, and a verdict:

* ``ok``         — B is no worse than A by more than the bound;
* ``worse``      — it is (non-zero exit);
* ``unresolved`` — B reads worse, but a side's own window spread is
  wider than the bound and the two sides' quartile ranges overlap, so
  the difference cannot be told from noise.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

from perfbench import OUT
from perfbench.spec import Registry
from perfbench.timing import quartiles

#: Bounds that are absolute differences, not shares of the base.
ABSOLUTE_BOUNDS = {"failed_share": 0.0, "fidelity_err": 0.01}


def load_workloads(path):
    """``{workload: result}`` from a full-pass or single-run file."""
    with open(path) as fh:
        data = json.load(fh)
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def metric_value(result, name):
    if name in result["end_to_end"]:
        return result["end_to_end"][name]
    return result["outcomes"][name]


def samples_of(result, name):
    """The per-window samples behind a metric, where it has any."""
    if name == "wall_us_per_op":
        return result["wall_us_per_op_windows"]
    return [metric_value(result, name)]


def verdict(name, better, bound, a_samples, b_samples):
    """``(status, ratio)`` of B against base A for one metric."""
    a = statistics.median(a_samples)
    b = statistics.median(b_samples)
    ratio = b / a if a else float("inf") if b else 1.0
    sign = 1.0 if better == "lower" else -1.0
    if name in ABSOLUTE_BOUNDS:
        worse = sign * (b - a) > ABSOLUTE_BOUNDS[name]
    else:
        worse = sign * (b - a) > bound * abs(a)
    if not worse:
        return "ok", ratio
    a_q1, _, a_q3 = quartiles(a_samples)
    b_q1, _, b_q3 = quartiles(b_samples)
    wide = max((a_q3 - a_q1) / a if a else 0.0,
               (b_q3 - b_q1) / b if b else 0.0) > bound
    overlap = a_q1 <= b_q3 and b_q1 <= a_q3
    return ("unresolved" if wide and overlap else "worse"), ratio


def compare_files(path_a, path_b, out=sys.stdout):
    registry = Registry()
    side_a = load_workloads(path_a)
    side_b = load_workloads(path_b)
    out.write("%-22s %-16s %14s %14s %18s %7s  %s\n"
              % ("workload", "metric", "A", "B", "B/A (base A)",
                 "bound", "verdict"))
    status = 0
    for workload in registry.workloads:
        if workload not in side_a or workload not in side_b:
            continue
        for name in registry.report_rows(workload):
            bound = registry.bound(name)
            state, ratio = verdict(
                name, registry.better(name), bound,
                samples_of(side_a[workload], name),
                samples_of(side_b[workload], name))
            a = metric_value(side_a[workload], name)
            b = metric_value(side_b[workload], name)
            shown = ("+%g abs" % ABSOLUTE_BOUNDS[name]
                     if name in ABSOLUTE_BOUNDS else "%.0f%%"
                     % (100.0 * bound))
            out.write("%-22s %-16s %14.6f %14.6f %18s %7s  %s%s\n"
                      % (workload, name, a, b,
                         "%.4f of %.6g" % (ratio, a), shown, state,
                         "  =" if a == b else ""))
            if state == "worse":
                status = 1
    return status


def median_and_quartiles(values):
    q1, median, q3 = quartiles(values)
    return "%.6g [%.6g..%.6g]" % (median, q1, q3)


def run_workload(checkout, workload, seed, seconds, trace=False,
                 echo=False):
    """One ``run.py`` of ``checkout``'s own perfbench; its full result.

    ``echo`` passes the human-readable report through (the JSON line
    stays in the result file).
    """
    os.makedirs(OUT, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="run-", suffix=".json", dir=OUT)
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--out", path], cwd=checkout, stdout=subprocess.PIPE)
        if echo:
            print("\n".join(proc.stdout.decode().splitlines()[:-1]))
        if proc.returncode != 0:
            raise SystemExit("workload %s exited %d in %s"
                             % (workload, proc.returncode, checkout))
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def compare_pairs(pairs, dir_a, dir_b, workloads, seed, out=sys.stdout):
    """Alternate the two checkouts; medians and quartiles per side."""
    registry = Registry()
    seconds = registry.run_seconds
    status = 0
    for workload in workloads:
        values = {"A": {}, "B": {}}
        for pair in range(pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                result = run_workload(dir_a if side == "A" else dir_b,
                                      workload, seed, seconds)
                for name in registry.report_rows(workload):
                    values[side].setdefault(name, []).append(
                        metric_value(result, name))
        out.write("%s: %d pairs, seed %d, alternating which side runs "
                  "first\n" % (workload, pairs, seed))
        for name in registry.report_rows(workload):
            a, b = values["A"][name], values["B"][name]
            wins = sum(1 for x, y in zip(a, b)
                       if (y < x) == (registry.better(name) == "lower")
                       and x != y)
            state, ratio = verdict(name, registry.better(name),
                                   registry.bound(name), a, b)
            out.write("  %-16s A %s  B %s  B/A %.4f (base A)  B wins "
                      "%d/%d  %s\n"
                      % (name, median_and_quartiles(a),
                         median_and_quartiles(b), ratio, wins, pairs,
                         state))
            if state == "worse":
                status = 1
    return status
