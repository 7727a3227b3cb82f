"""Run one workload in this (fresh) interpreter and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Everything above it is the
human-readable report: knobs, windows, quartiles, checks.
"""

import time

_STARTED = time.perf_counter()

import argparse                                             # noqa: E402
import json                                                 # noqa: E402
import math                                                 # noqa: E402
import os                                                   # noqa: E402
import platform                                             # noqa: E402
import resource                                             # noqa: E402
import shutil                                               # noqa: E402
import statistics                                           # noqa: E402
import subprocess                                           # noqa: E402
import sys                                                  # noqa: E402
import tempfile                                             # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Fewest untraced windows a run takes, however short ``--seconds`` is.
MIN_WINDOWS = 3
#: Fresh-interpreter import probes per run (their median is reported).
IMPORT_PROBES = 5
#: The simulated-latency percentiles reported.
FRACTIONS = {"sim_p50_us": 0.50, "sim_p99_us": 0.99, "sim_p999_us": 0.999}
#: Every end-to-end metric, in BENCHMARK.json order (sim_p999_us is an
#: outcome row, see spec.OUTCOMES).
END_TO_END = ("setup_s", "wall_us_per_op", "peak_rss_mb", "sim_ns_per_op",
              "sim_p50_us", "sim_p99_us")


def parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of timed windows "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result as JSON here")
    return parser.parse_args(argv)


def import_probe(statement, env):
    """Median wall of ``python -c statement`` in a fresh interpreter."""
    walls = []
    for _ in range(IMPORT_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", statement], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls), walls


def run_windows(workload, seconds, trace):
    """Drive set-up and windows; ``(untraced, traced, setups, logs)``.

    Untraced runs take windows until ``seconds`` of them are measured
    (at least ``MIN_WINDOWS``).  A traced run alternates untraced and
    traced windows, two of each, so the tracing overhead is a ratio of
    neighbours.
    """
    from perfbench.spans import SpanLog
    untraced, traced, setups, logs = [], [], [], []
    state = None
    measured = 0.0
    while True:
        if workload.FRESH or state is None:
            started = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - started)
        if trace and len(untraced) > len(traced):
            logs.append(SpanLog())
            traced.append(workload.window(state, logs[-1]))
        else:
            untraced.append(workload.window(state, None))
            measured += untraced[-1].wall_s
        if trace:
            if len(traced) >= 2:
                break
        elif len(untraced) >= MIN_WINDOWS and measured >= seconds:
            break
    return untraced, traced, setups, logs, state


def us_per_op(windows):
    return [w.wall_s * 1e6 / w.ops for w in windows]


def main(argv=None):
    args = parse(argv)
    from perfbench import OUT, require_repo
    require_repo()
    for name in ("REPRO_FASTPATH", "REPRO_OBS"):
        os.environ.pop(name, None)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp):
    from perfbench import ROOT, SRC
    from perfbench.spec import OUTCOMES, Registry
    from perfbench.timing import percentile, quartiles
    registry = Registry()
    if args.workload not in registry.workloads:
        sys.stderr.write("unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(registry.workloads)))
        return 2
    seconds = registry.run_seconds if args.seconds is None \
        else args.seconds

    from perfbench import workloads as wl_module
    from perfbench.workloads import device_counts
    imported_s = time.perf_counter() - _STARTED
    workload = wl_module.WORKLOADS[args.workload](args.seed, tmp)
    probe_env = dict(os.environ,
                     PYTHONPATH=os.pathsep.join((SRC, ROOT)))
    probe_statement = getattr(workload, "IMPORT_PROBE",
                              "import perfbench.workloads")
    import_s, import_walls = import_probe(probe_statement, probe_env)

    print("perfbench %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, seconds, args.trace))
    print("why: %s" % registry.workloads[args.workload])
    print("knobs: %s" % workload.describe())
    print("host: python %s, nproc %s, jobs 1, gc quiesced per window; "
          "wall numbers are this sandbox's, simulated numbers the "
          "model's" % (platform.python_version(), os.cpu_count()))

    untraced, traced, setups, logs, state = run_windows(
        workload, seconds, args.trace)
    checks = workload.finish(state)
    every = untraced + traced
    first = untraced[0]

    # -- failures ------------------------------------------------------
    attempted = sum(w.ops for w in every) + checks.attempted
    failed = sum(w.failed for w in every) + checks.failed
    known = sum(w.known for w in every) + checks.known
    refused = sum(w.refused for w in every)
    if workload.FRESH:
        # Fresh machines, same inputs: every window — traced or not —
        # must reproduce window 0's simulated results bit for bit.
        drifted = sum(1 for w in every
                      if w.fingerprint != first.fingerprint)
        if drifted:
            print("DETERMINISM: %d of %d windows differ from window 0"
                  % (drifted, len(every)))
        failed += drifted
    # Like every simulated number, from window 0 (plus the final
    # checks), so it does not move with how many windows fitted.
    failed_share = (first.failed + first.known + first.refused
                    + checks.failed + checks.known) \
        / (first.ops + checks.attempted)

    # -- end-to-end ----------------------------------------------------
    walls = us_per_op(untraced)
    setup_window = statistics.median(setups)
    children = args.workload == "cli-cold"
    rss_kib = resource.getrusage(
        resource.RUSAGE_CHILDREN if children
        else resource.RUSAGE_SELF).ru_maxrss
    samples = first.hist.total()
    end_to_end = {
        "setup_s": import_s + setup_window,
        "wall_us_per_op": statistics.median(walls),
        "peak_rss_mb": rss_kib / 1024.0,
        "sim_ns_per_op": first.sim_ns / first.sim_ops,
    }
    outcomes = dict.fromkeys(OUTCOMES, 0.0)
    outcomes.update(checks.outcomes)
    outcomes["failed_share"] = failed_share
    for name, frac in FRACTIONS.items():
        table = end_to_end if name in END_TO_END else outcomes
        table[name] = percentile(first.hist, frac) / 1e3
    user_bytes = first.user_write_bytes
    if user_bytes:
        outcomes["write_amp"] = \
            first.raw.get("media_write_bytes", 0) / user_bytes
    counts = device_counts(first.raw, first.ops)
    counts.update(first.counts)
    counts.update(checks.counts)

    q1, _, q3 = quartiles(walls)
    print("windows: %d untraced%s, each %d ops, wall %.2f..%.2f s"
          % (len(untraced),
             " + %d traced" % len(traced) if traced else "",
             first.ops, min(w.wall_s for w in untraced),
             max(w.wall_s for w in untraced)))
    for name in sorted(first.parts):
        print("  part %-14s median %.3f s" % (name, statistics.median(
            w.parts[name] for w in untraced)))
    print("set-up: import %.3f s (median of %d fresh interpreters, "
          "%s; this process took %.3f s) + per-window %.3f s (median "
          "of %d)" % (import_s, len(import_walls),
                      " ".join("%.3f" % w for w in import_walls),
                      imported_s, setup_window, len(setups)))
    print("end-to-end:")
    for name, value in end_to_end.items():
        extra = ""
        if name == "wall_us_per_op":
            extra = "  [q1 %.4f q3 %.4f, %d windows]" % (q1, q3,
                                                         len(walls))
        elif name in FRACTIONS:
            extra = "  [%d samples, %d beyond]" % (
                samples, samples - math.ceil(samples * FRACTIONS[name]))
        print("  %-16s %14.6f %s%s" % (name, value, registry.unit(name),
                                       extra))
    for name in registry.report_rows(args.workload)[len(end_to_end):]:
        extra = ""
        if name in FRACTIONS:
            extra = "  [%d samples, %d beyond]" % (
                samples, samples - math.ceil(samples * FRACTIONS[name]))
        print("  %-16s %14.6f %s%s" % (name, outcomes[name],
                                       registry.unit(name), extra))
    for note in checks.notes:
        print(note)
    print("failures over %d windows + checks: attempted %d, failed %d, "
          "known-deviation %d, refused under injected faults %d; "
          "failed_share %.6f (window 0 + checks)"
          % (len(every), attempted, failed, known, refused,
             failed_share))
    if known:
        print("  known deviations are measured and listed above, "
              "counted in failed_share, and kept out of `failed` "
              "(the contract wants workloads on which nothing fails)")

    # -- per-layer -----------------------------------------------------
    per_layer = None
    if args.trace:
        per_layer = trace_report(args, workload, untraced, traced, logs,
                                 counts, outcomes, tmp)

    declared = registry.per_layer if args.trace else registry.end_to_end
    emitted = per_layer if args.trace else end_to_end
    if set(emitted) != set(declared):
        sys.stderr.write(
            "metric set differs from BENCHMARK.json: missing %s, "
            "undeclared %s\n" % (sorted(set(declared) - set(emitted)),
                                 sorted(set(emitted) - set(declared))))
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": emitted[name],
                           "unit": declared[name]["unit"]}
                    for name in declared},
    }
    if args.out:
        full = dict(
            result, workload=args.workload, seed=args.seed,
            seconds=seconds, trace=args.trace, known_failed=known,
            refused=refused, windows=len(untraced),
            wall_us_per_op_windows=walls, setups_s=setups,
            import_walls_s=import_walls, outcomes=outcomes,
            counts=counts, end_to_end=end_to_end,
            python=platform.python_version(), nproc=os.cpu_count())
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


def trace_report(args, workload, untraced, traced, logs, counts,
                 outcomes, tmp):
    """Span table, trace file and the per-layer metric set."""
    from perfbench import OUT, layers
    from perfbench.spans import (
        format_table, root_total, self_time_rows, write_chrome_trace,
    )
    spans = logs[0].spans
    path = os.path.join(OUT, "trace-%s.json" % args.workload)
    write_chrome_trace(spans, path)
    total = root_total(spans)
    rows = self_time_rows(spans)
    print("traced window 0: %d spans -> %s" % (len(spans), path))
    print(format_table(rows, total))
    ratio = statistics.median(us_per_op(traced)) \
        / statistics.median(us_per_op(untraced))
    print("trace.overhead_ratio %.4f (traced %.4f / untraced %.4f "
          "us/op, alternating windows)"
          % (ratio, statistics.median(us_per_op(traced)),
             statistics.median(us_per_op(untraced))))
    per_layer = layers.measure_all(workload, untraced[0], tmp)
    loop_self = sum(row[3] for row in rows
                    if row[0].startswith("loadloop."))
    if loop_self:
        # The serve loop's root self time still holds the generators;
        # price them at their isolation cost to leave the loop itself.
        puts = sum(row[1] for row in rows if row[0].endswith(".put"))
        replay = (traced[0].ops * per_layer[
            "generators.next_requests.wall_ns_per_req"]
            + puts * per_layer["generators.make_value.wall_ns"])
        print("  loadloop root self %.3f ms = generator replay %.3f ms "
              "(isolation estimate: %d requests, %d values) + loop "
              "%.3f ms" % (loop_self / 1e6, replay / 1e6, traced[0].ops,
                           puts, (loop_self - replay) / 1e6))
    per_layer.update(counts)
    per_layer.update(outcomes)
    per_layer["trace.overhead_ratio"] = ratio
    print("per-layer:")
    for name in sorted(per_layer):
        print("  %-44s %16.6f" % (name, per_layer[name]))
    return per_layer


if __name__ == "__main__":
    sys.exit(main())
