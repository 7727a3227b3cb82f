"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                — the experiment registry (figure, title, bench)
* ``run fig10 [...]``     — run experiments and print their raw results
* ``trace bandwidth|figN``— run one experiment with tracing on; write a
  Chrome ``trace_event`` JSON (chrome://tracing / Perfetto) and
  optionally a flat metrics CSV
* ``sweep [--quick] ...`` — the systematic sweep through the harness
  (``--trace-dir`` records a per-point trace artifact)
* ``cache stats|clear``   — inspect or empty the result cache
* ``compare a b``         — diff two run manifests for metric drift
* ``faults run [...]``    — chaos matrix: crash x tear x poison sweep
  (``--trace-dir`` records fault instants per case)
* ``serve ycsb-a lsm``    — YCSB-style serving study of one substrate:
  closed-loop throughput, the open-loop latency-vs-load curve, and a
  binary search for the max offered load meeting a p99 SLO
  (``--pmcheck`` rides the persistency-order checker along)
* ``pmcheck ycsb-a lsm``  — persistency-order check: run the traffic
  with the durability checker installed and report missing, misordered
  or redundant flushes with call-site attribution
* ``report serve.json.manifest.json`` — render the always-on
  observability artifacts of a serve or chaos run: latency/SLO-burn
  tables per substrate, latency-vs-load curves, chaos timelines
  (``--json`` for the canonical JSON, ``--html`` for a self-contained
  single-file page)
* ``calibrate``           — the headline paper-vs-measured numbers
* ``guidelines``          — print the four best practices
* ``audit --access N ...``— audit an access pattern against them
"""

import argparse
import sys

from repro.core.experiments import REGISTRY, all_experiments, get
from repro.core.guidelines import (
    AccessPlan, Violation, audit_access_pattern,
)
from repro.lattester.report import table


def cmd_list(_args):
    rows = [[e.figure, "§" + e.section, e.title, e.bench]
            for e in all_experiments()]
    print(table(["figure", "section", "title", "benchmark"], rows,
                title="Reproduced experiments"))
    return 0


def cmd_run(args):
    unknown = [f for f in args.figures if f not in REGISTRY]
    if unknown:
        print("unknown figure%s: %s" % ("s" if len(unknown) > 1 else "",
                                        ", ".join(unknown)),
              file=sys.stderr)
        print("valid figures: %s"
              % ", ".join(e.figure for e in all_experiments()),
              file=sys.stderr)
        return 2
    for figure in args.figures:
        exp = get(figure)
        print("== %s — %s (workload: %s)" % (exp.figure, exp.title,
                                             exp.workload))
        result = exp.run()
        _pretty(result)
    return 0


def cmd_trace(args):
    from repro.telemetry import (
        recording, write_chrome_trace, write_metrics_csv,
    )

    if args.target == "bandwidth":
        from repro._units import KIB
        from repro.lattester.bandwidth import measure_bandwidth

        def runner():
            return measure_bandwidth(
                kind=args.kind, op=args.op, threads=args.threads,
                access=args.access, pattern=args.pattern,
                per_thread=args.per_thread * KIB)
    elif args.target in REGISTRY:
        runner = get(args.target).run
    else:
        print("unknown trace target %r" % args.target, file=sys.stderr)
        print("valid targets: bandwidth, %s"
              % ", ".join(e.figure for e in all_experiments()),
              file=sys.stderr)
        return 2
    with recording(capacity=args.buffer,
                   counter_interval_ns=args.counter_interval) as tracer:
        result = runner()
        tracer.sample_now()
    write_chrome_trace(tracer, args.out)
    counts = tracer.category_counts()
    print("traced %s: %d events -> %s%s"
          % (args.target, len(tracer), args.out,
             " (%d dropped: raise --buffer)" % tracer.dropped
             if tracer.dropped else ""))
    print("  " + "  ".join("%s=%d" % (cat, counts[cat])
                           for cat in sorted(counts)))
    if args.metrics:
        write_metrics_csv(tracer, args.metrics)
        print("counter timeline -> %s" % args.metrics)
    _pretty(result)
    return 0


def cmd_sweep(args):
    import time

    from repro._units import KIB
    from repro.harness import ResultCache, run_sweep
    from repro.lattester.sweep import FULL_GRID, QUICK_GRID, write_csv

    grid = QUICK_GRID if args.quick else FULL_GRID
    total = 1
    for values in grid.values():
        total *= len(values)
    started = time.time()
    done = [0]

    def progress(outcome):
        done[0] += 1
        if done[0] % 50 == 0 or done[0] == total:
            rate = done[0] / max(time.time() - started, 1e-9)
            print("  %5d/%d  (%.1f points/s)" % (done[0], total, rate))

    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    run = run_sweep(grid, per_thread=48 * KIB, jobs=args.jobs,
                    cache=cache, progress=progress, name="sweep",
                    trace_dir=args.trace_dir)
    write_csv(run.records, args.out)
    manifest_path = args.manifest or args.out + ".manifest.json"
    run.manifest.save(manifest_path)
    stats = run.manifest.cache_stats or {}
    print("wrote %d records to %s (+ %s); cache %d/%d hits"
          % (len(run.records), args.out, manifest_path,
             stats.get("hits", 0),
             stats.get("hits", 0) + stats.get("misses", 0)))
    if run.failures:
        print("ERROR: %d point(s) failed" % len(run.failures),
              file=sys.stderr)
        return 1
    return 0


def cmd_cache(args):
    from repro.harness import ResultCache

    cache = ResultCache(root=args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print("removed %d cached artifact(s) from %s"
              % (removed, cache.root))
        return 0
    stats = cache.stats()
    print("cache root: %s" % stats["root"])
    print("artifacts:  %d (%.1f KiB)"
          % (stats["artifacts"], stats["total_bytes"] / 1024.0))
    for experiment in sorted(stats["by_experiment"]):
        print("  %-28s %d" % (experiment,
                              stats["by_experiment"][experiment]))
    return 0


def cmd_compare(args):
    import json

    from repro.harness import RunManifest, compare_manifests

    try:
        a = RunManifest.load(args.a)
        b = RunManifest.load(args.b)
    except (OSError, json.JSONDecodeError) as exc:
        print("cannot read manifest: %s" % exc, file=sys.stderr)
        return 2
    # Fold each point's obs blob down to p50/p95/p99 so the diff gains
    # latency-distribution drift lines without raw bucket noise.
    from repro.obs import attach_obs_metrics
    attach_obs_metrics(a, args.a)
    attach_obs_metrics(b, args.b)
    comparison = compare_manifests(a, b, tolerance=args.tolerance)
    print("comparing %s (%s) vs %s (%s), tolerance %.1f%%"
          % (args.a, a.version, args.b, b.version,
             100.0 * args.tolerance))
    print(comparison.summary())
    return 0 if comparison.clean else 1


def cmd_faults(args):
    import time

    from repro.faults.chaos import run_chaos

    started = time.time()
    done = [0]

    def progress(_outcome):
        done[0] += 1
        if done[0] % 25 == 0:
            rate = done[0] / max(time.time() - started, 1e-9)
            print("  %5d cases  (%.1f cases/s)" % (done[0], rate))

    run = run_chaos(quick=args.quick, seed=args.seed, jobs=args.jobs,
                    naive=args.naive, progress=progress,
                    trace_dir=args.trace_dir)
    run.manifest.save(args.out)
    records = run.records
    crashed = sum(1 for rec in records if rec["crashed"])
    torn = sum(rec["torn_chunks"] for rec in records)
    lossy = sum(1 for rec in records
                if rec["report"] and rec["report"]["lost"])
    print("%d cases: %d crashed, %d torn chunks, %d with data loss "
          "reported; manifest -> %s"
          % (len(run.outcomes), crashed, torn, lossy, args.out))
    status = 0
    if run.failures:
        print("ERROR: %d case(s) failed to execute" % len(run.failures),
              file=sys.stderr)
        for point in run.failures[:10]:
            print("  %(params)s: %(error)s" % point, file=sys.stderr)
        status = 1
    if run.violations:
        print("%d invariant violation(s):%s"
              % (len(run.violations),
                 " (expected: --naive disables CRCs)"
                 if args.naive else ""),
              file=sys.stderr)
        for v in run.violations[:20]:
            cell = v["cell"]
            print("  [%s crash=%s tear=%s poison=%s] %s"
                  % (cell["workload"], cell["crash_at"], cell["tear"],
                     cell["poison_site"], v["violation"]), file=sys.stderr)
        status = 1
    return status


def _pretty(result, indent="  "):
    if isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, (dict, list)):
                print("%s%s:" % (indent, key))
                _pretty(value, indent + "  ")
            else:
                print("%s%s: %s" % (indent, key, value))
    elif isinstance(result, list):
        for item in result:
            print("%s%s" % (indent, item))
    else:
        print("%s%s" % (indent, result))


def cmd_calibrate(_args):
    from scripts import calibrate  # pragma: no cover - path dependent
    calibrate.main([])
    return 0


def _calibrate_inline():
    """Fallback when scripts/ is not importable (installed package)."""
    from repro.lattester.latency import read_latency, write_latency
    rows = [
        ["DRAM read seq", read_latency("dram", "seq").mean_ns, 81],
        ["DRAM read rand", read_latency("dram", "rand").mean_ns, 101],
        ["Optane read seq", read_latency("optane", "seq").mean_ns, 169],
        ["Optane read rand", read_latency("optane", "rand").mean_ns, 305],
        ["store+clwb+fence (Optane)",
         write_latency("optane", "clwb").mean_ns, 62],
        ["ntstore+fence (Optane)",
         write_latency("optane", "ntstore").mean_ns, 90],
    ]
    print(table(["experiment", "measured ns", "paper ns"], rows,
                title="Calibration (Figure 2)"))


def cmd_guidelines(_args):
    print("Best practices for 3D XPoint DIMMs (Section 5):")
    for num, name in sorted(Violation.GUIDELINE_NAMES.items()):
        print("  %d. %s" % (num, name.capitalize()))
    return 0


def cmd_audit(args):
    plan = AccessPlan(
        access_bytes=args.access,
        pattern=args.pattern,
        is_write=not args.read,
        threads=args.threads,
        dimms=args.dimms,
        remote=args.remote,
        mixed_read_write=args.mixed,
        working_set_bytes=args.working_set,
        flushes_promptly=not args.no_flush,
    )
    violations = audit_access_pattern(plan)
    if not violations:
        print("no guideline violations — ship it")
        return 0
    for v in violations:
        print(" ", v)
    return 1


def _save_report(report, manifest, out):
    """Write a JSON report, then its manifest beside it with the obs
    blobs moved out into content-addressed artifacts."""
    import json

    from repro.obs import externalize_obs

    with open(out, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    manifest_path = out + ".manifest.json"
    externalize_obs(manifest, manifest_path)
    manifest.save(manifest_path)


def _pmcheck_line(violation):
    from repro.pmcheck import format_violation
    return format_violation(violation, cell=violation.get("cell"))


def _print_violations(heading, violations, fmt, clean):
    """One violation block; returns the exit status it implies."""
    if not violations:
        print(clean)
        return 0
    print("\n%s (%d):" % (heading, len(violations)))
    for v in violations:
        print(fmt(v))
    return 1


def _cmd_matrix(args, run_fn, title, cell_line, blocks, **options):
    """The body of the matrix verbs (``pmcheck``, ``serve --chaos``).

    ``cell_line(record)`` renders one cell; ``blocks`` lists, per kind
    of finding, its heading, how one violation prints and the
    all-clear line.
    """
    from repro.harness import ResultCache

    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    try:
        run = run_fn(
            workload=None if args.workload == "all" else args.workload,
            substrate=None if args.substrate == "all" else args.substrate,
            quick=args.quick, seed=args.seed, naive=args.naive,
            jobs=args.jobs, cache=cache, trace_dir=args.trace_dir,
            **options)
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2

    records = run.records
    # The report keeps its pre-obs byte layout: obs blobs live in the
    # manifest's content-addressed artifacts, not in the report cells.
    cells = [{k: v for k, v in rec.items() if k != "obs"}
             for rec in records]
    _save_report(dict(run.findings, cells=cells), run.manifest, args.out)
    print("%s%s%s: %d cells, seed %d"
          % (title, " (quick)" if args.quick else "",
             " [NAIVE: protections off]" if args.naive else "",
             len(run.manifest.points), args.seed))
    for rec in records:
        print("  " + cell_line(rec))
    print("report -> %s (+ %s.manifest.json)" % (args.out, args.out))
    if run.failures:
        for point in run.failures:
            print("CELL FAILED: %(params)s: %(error)s" % point,
                  file=sys.stderr)
        return 1
    status = 0
    for kind, heading, fmt, clean in blocks:
        status |= _print_violations(heading, run.findings[kind], fmt,
                                    clean)
    return status


def _chaos_cell_line(rec):
    faults = rec["faults"]
    return ("%-7s %-8s %-10s %-6s ok=%-4d crashes=%d torn=%-3d "
            "retries=%-2d violations=%d"
            % (rec["workload"], rec["substrate"], rec["scenario"],
               rec["mode"], rec["results"].get("ok", 0),
               faults["crashes"], faults["torn_chunks"],
               rec["degrade"]["retries"], len(rec["violations"])))


def _durability_line(violation):
    from repro.chaos_serve import format_violation
    cell = violation["cell"]
    return "[%s/%s/%s/%s]\n%s" % (cell["workload"], cell["substrate"],
                                  cell["scenario"], cell["mode"],
                                  format_violation(violation))


def _cmd_serve_chaos(args):
    """The ``serve --chaos`` path: the fault matrix plus the oracle."""
    from repro.chaos_serve import run_chaos_serve

    blocks = [("violations", "DURABILITY VIOLATIONS", _durability_line,
               "no durability violations: every acknowledged write "
               "survived or was reported lost")]
    if args.pmcheck:
        blocks.append(("pmcheck_violations", "PERSISTENCY-ORDER VIOLATIONS",
                       _pmcheck_line,
                       "pmcheck: every cell's persist ordering is clean"))
    return _cmd_matrix(args, run_chaos_serve, "chaos serving",
                       _chaos_cell_line, blocks, pmcheck=args.pmcheck)


def cmd_serve(args):
    from repro.harness import ResultCache
    from repro.workloads import SUBSTRATES, WORKLOADS
    from repro.workloads.saturation import serve

    if args.chaos:
        return _cmd_serve_chaos(args)
    if args.naive:
        print("--naive only applies to --chaos runs", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("unknown workload: %s" % args.workload, file=sys.stderr)
        print("valid workloads: %s" % ", ".join(sorted(WORKLOADS)),
              file=sys.stderr)
        return 2
    if args.substrate not in SUBSTRATES:
        print("unknown substrate: %s" % args.substrate, file=sys.stderr)
        print("valid substrates: %s" % ", ".join(sorted(SUBSTRATES)),
              file=sys.stderr)
        return 2
    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    report, manifest = serve(
        args.workload, args.substrate, quick=args.quick,
        slo_p99_us=args.slo_p99_us, seed=args.seed, jobs=args.jobs,
        cache=cache, trace_dir=args.trace_dir, pmcheck=args.pmcheck)
    _save_report(report, manifest, args.out)

    sat = report["saturation"]
    closed = report["closed"]
    print("serving %s on %s%s: %d ops over %d records"
          % (args.workload, args.substrate,
             " (quick)" if args.quick else "",
             report["shape"]["ops"], report["shape"]["records"]))
    print("closed loop: %.1f kops/s, p99 %.2f us (%d clients)"
          % (closed["achieved_kops"], closed["latency_us"]["p99"],
             closed["clients"]))
    print("latency vs load (offered kops/s -> p99 us):")
    for point in report["curve"]:
        print("  %10.1f -> %10.2f" % (point["offered_kops"],
                                      point["p99_us"]))
    slo_note = "" if sat["slo_explicit"] else " (default: 10x closed p99)"
    print("SLO p99 <= %.2f us%s: " % (sat["slo_p99_us"], slo_note),
          end="")
    if not sat["slo_met"]:
        print("NOT met at any probed rate")
    elif not sat["saturated"]:
        print("met at every probed rate (max %.1f kops/s offered)"
              % sat["max_kops"])
    else:
        print("max offered %.1f kops/s (%.0f%% of closed-loop)"
              % (sat["max_kops"],
                 100.0 * sat["max_kops"] / max(sat["closed_kops"],
                                               1e-9)))
    print("report -> %s (+ %s.manifest.json)" % (args.out, args.out))
    if args.pmcheck:
        return _print_violations(
            "PERSISTENCY-ORDER VIOLATIONS",
            report.get("pmcheck", {}).get("violations"), _pmcheck_line,
            "pmcheck: persist ordering clean across every point")
    return 0


def _pmcheck_cell_line(rec):
    summary = rec["pmcheck"]
    kinds = summary.get("kinds", {})
    return ("%-7s %-8s ops=%-5d %s"
            % (rec["workload"], rec["substrate"], rec["served"]["ops"],
               "clean" if not summary["total"] else
               "%d violation(s): %s"
               % (summary["total"],
                  ", ".join("%s x%d" % (k, kinds[k])
                            for k in sorted(kinds)))))


def cmd_pmcheck(args):
    """The ``pmcheck`` verb: the checker matrix over YCSB traffic."""
    from repro.pmcheck import run_pmcheck

    return _cmd_matrix(
        args, run_pmcheck, "persistency-order check", _pmcheck_cell_line,
        [("violations", "PERSISTENCY-ORDER VIOLATIONS", _pmcheck_line,
          "every store was flushed, fenced and acknowledged in order")])


def cmd_report(args):
    """The ``report`` verb: render a run's obs artifacts."""
    import glob
    import json
    import os

    from repro.harness import RunManifest
    from repro.obs import (
        ObsReportError, build_report, merged_histograms, render_html,
        render_tables, report_json,
    )

    if os.path.isdir(args.target):
        if args.json or args.html:
            print("--json/--html need a single manifest, not a "
                  "directory", file=sys.stderr)
            return 2
        paths = sorted(glob.glob(os.path.join(args.target,
                                              "*.manifest.json")))
        if not paths:
            print("no *.manifest.json under %s" % args.target,
                  file=sys.stderr)
            return 2
    else:
        paths = [args.target]
    status = 0
    for path in paths:
        try:
            manifest = RunManifest.load(path)
        except (OSError, json.JSONDecodeError) as exc:
            print("cannot read manifest: %s" % exc, file=sys.stderr)
            return 2
        base_dir = os.path.dirname(os.path.abspath(path))
        try:
            report = build_report(manifest, base_dir=base_dir)
        except ObsReportError as exc:
            print("%s: %s" % (path, exc), file=sys.stderr)
            status = 1
            continue
        if len(paths) > 1:
            print("== %s" % path)
        print(render_tables(report))
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(report_json(report))
            print("report JSON -> %s" % args.json)
        if args.html:
            hists = merged_histograms(manifest, base_dir=base_dir)
            with open(args.html, "w") as fh:
                fh.write(render_html(report, merged_hists=hists))
            print("HTML report -> %s" % args.html)
    return status


#: Every CLI verb, in help order (unknown-verb errors print this).
COMMANDS = (
    "list", "run", "trace", "sweep", "serve", "pmcheck", "report",
    "cache", "compare", "faults", "calibrate", "guidelines",
    "audit",
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors follow the ``run`` convention.

    Unknown verbs and unknown arguments alike exit 2 and print the
    full verb list to stderr, instead of argparse's bare usage line —
    so every bad invocation tells the user what the CLI *does* accept.
    Subparsers inherit this class automatically.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        print("valid commands: %s" % ", ".join(COMMANDS),
              file=sys.stderr)
        raise SystemExit(2)


def _add_run_flags(parser, out, what, unit="point", seed=None,
                   cache=True, quick="small shapes for smoke runs"):
    """The flags every harness-backed verb shares.

    ``out``/``what`` give the default output path and what it holds,
    ``unit`` names one harness point, ``seed`` (when the verb has one)
    what it seeds; ``cache=False`` for verbs that never cache.
    """
    parser.add_argument("--quick", action="store_true", help=quick)
    if seed is not None:
        parser.add_argument("--seed", type=int, default=0,
                            help="%s seed (default: 0)" % seed)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: one per CPU)")
    parser.add_argument("--out", default=out,
                        help="%s path (default: %s)" % (what, out))
    if cache:
        parser.add_argument("--no-cache", action="store_true",
                            help="recompute every %s" % unit)
        parser.add_argument("--cache-dir", default=None,
                            help="cache root (default: .repro-cache)")
    parser.add_argument("--trace-dir", default=None,
                        help="write a Chrome trace per freshly computed "
                             "%s into this directory" % unit)


def build_parser():
    parser = _Parser(
        prog="python -m repro",
        description="FAST'20 scalable-persistent-memory reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproduced experiments")
    run = sub.add_parser("run", help="run experiments by figure id")
    run.add_argument("figures", nargs="+", metavar="figN")
    trace = sub.add_parser(
        "trace", help="run one experiment with tracing on")
    trace.add_argument("target",
                       help="'bandwidth' or a registry figure id")
    trace.add_argument("--kind", default="optane",
                       help="namespace kind for bandwidth "
                            "(default: optane)")
    trace.add_argument("--op", default="ntstore",
                       choices=("read", "ntstore", "clwb", "store"),
                       help="bandwidth operation (default: ntstore)")
    trace.add_argument("--threads", type=int, default=4)
    trace.add_argument("--access", type=int, default=256,
                       help="access size in bytes (default: 256)")
    trace.add_argument("--pattern", choices=("seq", "rand"),
                       default="seq")
    trace.add_argument("--per-thread", type=int, default=64,
                       help="KiB issued per thread (default: 64)")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace output path")
    trace.add_argument("--metrics", default=None,
                       help="also write the counter timeline CSV here")
    trace.add_argument("--buffer", type=int, default=1 << 16,
                       help="ring-buffer capacity in events "
                            "(default: 65536)")
    trace.add_argument("--counter-interval", type=float, default=5000.0,
                       help="counter-sample interval in virtual ns "
                            "(default: 5000)")
    sweep = sub.add_parser(
        "sweep", help="systematic sweep through the harness")
    _add_run_flags(sweep, "sweep.csv", "output CSV",
                   quick="small grid for smoke runs")
    sweep.add_argument("--manifest", default=None,
                       help="manifest path (default: <out>.manifest.json)")
    serve = sub.add_parser(
        "serve", help="YCSB-style serving study of one substrate")
    serve.add_argument("workload",
                       help="traffic mix (ycsb-a..f, pointer-chase, "
                            "log-append)")
    serve.add_argument("substrate",
                       help="service under test (lsm, pmemkv, nova, "
                            "pmdk)")
    serve.add_argument("--chaos", action="store_true",
                       help="chaos serving: inject faults mid-serve, "
                            "recover, and audit durable "
                            "linearizability (pass 'all' as workload/"
                            "substrate to widen the matrix)")
    serve.add_argument("--naive", action="store_true",
                       help="with --chaos: disable the degradation "
                            "layer and crash-consistency hardening "
                            "(the matrix should catch violations)")
    serve.add_argument("--pmcheck", action="store_true",
                       help="ride the persistency-order checker along "
                            "and fail on any flush/fence misordering")
    serve.add_argument("--slo-p99-us", type=float, default=None,
                       help="p99 SLO in microseconds (default: 10x "
                            "the closed-loop p99)")
    _add_run_flags(serve, "serve.json", "report", seed="traffic")
    pmcheck = sub.add_parser(
        "pmcheck", help="check persistency ordering under traffic")
    pmcheck.add_argument("workload", nargs="?", default="all",
                         help="traffic mix (ycsb-a..f) or 'all' "
                              "(default: all)")
    pmcheck.add_argument("substrate", nargs="?", default="all",
                         help="service under test (lsm, pmemkv, nova, "
                              "pmdk) or 'all' (default: all)")
    pmcheck.add_argument("--naive", action="store_true",
                         help="drop the ordering protections (the "
                              "checker should catch every class)")
    _add_run_flags(pmcheck, "pmcheck.json", "report", unit="cell",
                   seed="traffic")
    report = sub.add_parser(
        "report", help="render a run's observability artifacts")
    report.add_argument("target",
                        help="a run manifest (*.manifest.json) or a "
                             "directory of them")
    report.add_argument("--json", default=None, metavar="PATH",
                        help="also write the canonical report JSON "
                             "here (byte-identical across job counts)")
    report.add_argument("--html", default=None, metavar="PATH",
                        help="also write a self-contained single-file "
                             "HTML report here")
    cache = sub.add_parser("cache", help="result-cache maintenance")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache-dir", default=None,
                       help="cache root (default: .repro-cache)")
    compare = sub.add_parser(
        "compare", help="diff two run manifests for metric drift")
    compare.add_argument("a", help="baseline manifest (JSON)")
    compare.add_argument("b", help="candidate manifest (JSON)")
    compare.add_argument("--tolerance", type=float, default=0.05,
                         help="max relative drift per metric "
                              "(default: 0.05)")
    faults = sub.add_parser(
        "faults", help="fault-injection chaos matrix")
    faults.add_argument("action", choices=("run",))
    faults.add_argument("--naive", action="store_true",
                        help="replay WALs without CRCs (expected to "
                             "surface violations)")
    _add_run_flags(faults, "faults.manifest.json", "manifest", unit="case",
                   seed="fault-injector", cache=False,
                   quick="sampled matrix for smoke runs")
    sub.add_parser("calibrate", help="paper-vs-measured headline numbers")
    sub.add_parser("guidelines", help="print the four best practices")
    audit = sub.add_parser("audit", help="audit an access pattern")
    audit.add_argument("--access", type=int, default=64,
                       help="access size in bytes")
    audit.add_argument("--pattern", choices=("seq", "rand"),
                       default="rand")
    audit.add_argument("--read", action="store_true",
                       help="reads instead of writes")
    audit.add_argument("--threads", type=int, default=1)
    audit.add_argument("--dimms", type=int, default=6)
    audit.add_argument("--remote", action="store_true")
    audit.add_argument("--mixed", action="store_true",
                       help="mixed read/write traffic")
    audit.add_argument("--working-set", type=int, default=0)
    audit.add_argument("--no-flush", action="store_true",
                       help="stores are not promptly flushed")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # _Parser.error and --help raise instead of exiting so that
        # programmatic callers (tests, scripts) get a return code.
        return exc.code
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "trace": cmd_trace,
        "sweep": cmd_sweep,
        "serve": cmd_serve,
        "pmcheck": cmd_pmcheck,
        "report": cmd_report,
        "cache": cmd_cache,
        "compare": cmd_compare,
        "faults": cmd_faults,
        "guidelines": cmd_guidelines,
        "audit": cmd_audit,
    }
    if args.command == "calibrate":
        try:
            return cmd_calibrate(args)
        except ImportError:
            _calibrate_inline()
            return 0
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
