"""Command-line interface: ``python -m repro <command>``.

:func:`build_parser` is the one verb table: each verb's subparser
carries its handler, and ``python -m repro --help`` lists the verbs
with what each does.
"""

import argparse
import sys

from repro.core.experiments import REGISTRY, all_experiments, get
from repro.core.guidelines import (
    AccessPlan, Violation, audit_access_pattern,
)
from repro.lattester.report import outline, table


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
        _pretty(exp.run())
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


def _progress(every, unit, total=None):
    """A harness progress callback: a rate line every ``every``
    outcomes (and at ``total``, when the run's size is known)."""
    import time

    started = time.time()
    done = 0

    def progress(_outcome):
        nonlocal done
        done += 1
        if done % every == 0 or done == total:
            count = ("%5d/%d" % (done, total) if total
                     else "%5d %s" % (done, unit))
            print("  %s  (%.1f %s/s)"
                  % (count, done / max(time.time() - started, 1e-9), unit))

    return progress


def cmd_sweep(args):
    from math import prod

    from repro._units import KIB
    from repro.harness import ResultCache, run_sweep
    from repro.lattester.sweep import FULL_GRID, QUICK_GRID, write_csv

    grid = QUICK_GRID if args.quick else FULL_GRID
    total = prod(len(values) for values in grid.values())
    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    run = run_sweep(grid, per_thread=48 * KIB, jobs=args.jobs,
                    cache=cache, progress=_progress(50, "points", total),
                    name="sweep", trace_dir=args.trace_dir)
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
    from repro.harness import RunManifest, compare_manifests

    try:
        a = RunManifest.load(args.a)
        b = RunManifest.load(args.b)
    except (OSError, ValueError) as exc:
        print("cannot read manifest: %s" % exc, file=sys.stderr)
        return 2
    comparison = compare_manifests(a, b, tolerance=args.tolerance)
    print("comparing %s (%s) vs %s (%s), tolerance %.1f%%"
          % (args.a, a.version, args.b, b.version,
             100.0 * args.tolerance))
    print(comparison.summary())
    return 0 if comparison.clean else 1


def cmd_faults(args):
    from repro.faults.chaos import run_chaos

    run = run_chaos(quick=args.quick, seed=args.seed, jobs=args.jobs,
                    naive=args.naive, progress=_progress(25, "cases"),
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


def _pretty(result):
    """Print a result as the record ``scripts/regenerate_all.py`` writes."""
    from repro.harness.keys import to_jsonable
    for line in outline(to_jsonable(result)):
        print(line)


def cmd_calibrate(_args):
    from repro.lattester.calibrate import main as calibrate
    calibrate()
    return 0


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


def _cmd_serve_chaos(args):
    """The ``serve --chaos`` path: the fault matrix plus the oracle."""
    from repro.chaos_serve import format_violation, run_chaos_serve

    blocks = [("violations", "DURABILITY VIOLATIONS", format_violation,
               "no durability violations: every acknowledged write "
               "survived or was reported lost")]
    if args.pmcheck:
        from repro.pmcheck import format_violation as pmcheck_violation
        blocks.append(("pmcheck_violations", "PERSISTENCY-ORDER VIOLATIONS",
                       pmcheck_violation,
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
        from repro.pmcheck import format_violation
        return _print_violations(
            "PERSISTENCY-ORDER VIOLATIONS",
            report.get("pmcheck", {}).get("violations"), format_violation,
            "pmcheck: persist ordering clean across every point")
    return 0


def _pmcheck_cell_line(rec):
    from repro.pmcheck import format_summary
    return "%-7s %-8s ops=%-5d %s" % (rec["workload"], rec["substrate"],
                                      rec["served"]["ops"],
                                      format_summary(rec["pmcheck"]))


def cmd_pmcheck(args):
    """The ``pmcheck`` verb: the checker matrix over YCSB traffic."""
    from repro.pmcheck import format_violation, run_pmcheck

    return _cmd_matrix(
        args, run_pmcheck, "persistency-order check", _pmcheck_cell_line,
        [("violations", "PERSISTENCY-ORDER VIOLATIONS", format_violation,
          "every store was flushed, fenced and acknowledged in order")])


def cmd_report(args):
    """The ``report`` verb: render a run's obs artifacts.

    A manifest that cannot be read (status 2) or carries an invalid
    obs blob (status 1) is named on stderr and skipped; the rest of a
    directory still renders.
    """
    import glob
    import os

    from repro.harness import RunManifest
    from repro.obs import build_report, render_html, render_tables, report_json

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
        except (OSError, ValueError) as exc:
            print("%s: cannot read manifest: %s" % (path, exc),
                  file=sys.stderr)
            status = 2
            continue
        try:
            report, hists = build_report(
                manifest, base_dir=os.path.dirname(os.path.abspath(path)))
        except (OSError, ValueError) as exc:
            print("%s: %s" % (path, exc), file=sys.stderr)
            status = max(status, 1)
            continue
        if len(paths) > 1:
            print("== %s" % path)
        print(render_tables(report))
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(report_json(report))
            print("report JSON -> %s" % args.json)
        if args.html:
            with open(args.html, "w") as fh:
                fh.write(render_html(report, hists))
            print("HTML report -> %s" % args.html)
    return status


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors follow the ``run`` convention.

    Unknown verbs and unknown arguments alike exit 2 and print the
    full verb list to stderr, instead of argparse's bare usage line —
    so every bad invocation tells the user what the CLI *does* accept.
    Subparsers inherit this class automatically; :func:`build_parser`
    hands each one the root's verb table as ``verbs``.
    """

    #: The root's ``{verb: subparser}`` table, in help order.
    verbs = ()

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        print("valid commands: %s" % ", ".join(self.verbs),
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
    parser.verbs = sub.choices

    def verb(name, handler, help):
        verb_parser = sub.add_parser(name, help=help)
        verb_parser.set_defaults(handler=handler)
        verb_parser.verbs = sub.choices
        return verb_parser

    verb("list", cmd_list, "list reproduced experiments")
    run = verb("run", cmd_run, "run experiments by figure id")
    run.add_argument("figures", nargs="+", metavar="figN")
    trace = verb("trace", cmd_trace, "run one experiment with tracing on")
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
    sweep = verb("sweep", cmd_sweep, "systematic sweep through the harness")
    _add_run_flags(sweep, "sweep.csv", "output CSV",
                   quick="small grid for smoke runs")
    sweep.add_argument("--manifest", default=None,
                       help="manifest path (default: <out>.manifest.json)")
    serve = verb("serve", cmd_serve,
                 "YCSB-style serving study of one substrate")
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
    pmcheck = verb("pmcheck", cmd_pmcheck,
                   "check persistency ordering under traffic")
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
    report = verb("report", cmd_report,
                  "render a run's observability artifacts")
    report.add_argument("target",
                        help="a run manifest (*.manifest.json) or a "
                             "directory of them")
    report.add_argument("--json", default=None, metavar="PATH",
                        help="also write the canonical report JSON "
                             "here (byte-identical across job counts)")
    report.add_argument("--html", default=None, metavar="PATH",
                        help="also write a self-contained single-file "
                             "HTML report here")
    cache = verb("cache", cmd_cache, "result-cache maintenance")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache-dir", default=None,
                       help="cache root (default: .repro-cache)")
    compare = verb("compare", cmd_compare,
                   "diff two run manifests for metric drift")
    compare.add_argument("a", help="baseline manifest (JSON)")
    compare.add_argument("b", help="candidate manifest (JSON)")
    compare.add_argument("--tolerance", type=float, default=0.05,
                         help="max relative drift per metric "
                              "(default: 0.05)")
    faults = verb("faults", cmd_faults, "fault-injection chaos matrix")
    faults.add_argument("action", choices=("run",))
    faults.add_argument("--naive", action="store_true",
                        help="replay WALs without CRCs (expected to "
                             "surface violations)")
    _add_run_flags(faults, "faults.manifest.json", "manifest", unit="case",
                   seed="fault-injector", cache=False,
                   quick="sampled matrix for smoke runs")
    verb("calibrate", cmd_calibrate, "paper-vs-measured headline numbers")
    verb("guidelines", cmd_guidelines, "print the four best practices")
    audit = verb("audit", cmd_audit, "audit an access pattern")
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
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
