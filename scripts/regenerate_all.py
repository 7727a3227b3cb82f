"""Regenerate every reproduced experiment and write a combined report.

Runs each entry of the experiment registry (fig2..fig19) as one harness
point (``repro.core.experiments.run_figure``) through the
content-addressed cache — a second invocation replays every unchanged
figure instead of re-simulating it — and dumps the raw results to
``experiments_raw.txt`` plus a run manifest recording per-figure wall
time and provenance.  For the asserted paper-vs-measured comparisons,
run the benchmark suite instead
(``pytest benchmarks/ --benchmark-only -s``).

Usage: python scripts/regenerate_all.py [out.txt] [figN ...]
           [--quick] [--no-cache] [--manifest M]
"""

import argparse
import sys
import time

from repro.core.experiments import all_experiments, get, run_figure
from repro.harness import ResultCache, run_sweep
from repro.lattester.report import outline

# Figures cheap enough for a smoke pass (--quick): each finishes in a
# few seconds on the simulator.
QUICK_FIGURES = ("fig2", "fig10", "fig13", "fig14")


def build_parser():
    parser = argparse.ArgumentParser(
        description="regenerate registry experiments via the harness")
    parser.add_argument("args", nargs="*", metavar="out.txt|figN",
                        help="output path and/or figure ids")
    parser.add_argument("--quick", action="store_true",
                        help="only the fast figures (%s)"
                        % ", ".join(QUICK_FIGURES))
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every figure, ignore the cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root (default: .repro-cache)")
    parser.add_argument("--manifest", default=None,
                        help="manifest path (default: <out>.manifest.json)")
    return parser


def main(argv):
    args = build_parser().parse_args(argv)
    out = "experiments_raw.txt"
    wanted = []
    for arg in args.args:
        if arg.startswith("fig"):
            wanted.append(arg)
        else:
            out = arg
    if args.quick and not wanted:
        wanted = list(QUICK_FIGURES)
    try:
        experiments = [get(f) for f in wanted] if wanted \
            else all_experiments()
    except KeyError as exc:
        print("error:", exc.args[0])
        return 2

    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    started = time.time()
    done = [0]

    def progress(outcome):
        done[0] += 1
        exp = get(outcome.payload["figure"])
        status = ("%.1f s%s" % (outcome.elapsed_s,
                                " (cached)" if outcome.cached else "")
                  if outcome.ok else "FAILED (%s)" % outcome.error)
        print("[%d/%d] %s — %s ... %s" % (done[0], len(experiments),
                                          exp.figure, exp.title, status))

    run = run_sweep({"figure": [e.figure for e in experiments]},
                    point_fn=run_figure, experiment="experiment", jobs=1,
                    cache=cache, progress=progress, name="regenerate_all")
    with open(out, "w") as fh:
        for exp, outcome in zip(experiments, run.outcomes):
            if not outcome.ok:
                continue
            fh.write("== %s — %s (Section %s)\n"
                     % (exp.figure, exp.title, exp.section))
            fh.write("   workload: %s\n" % exp.workload)
            for line in outline(outcome.value):
                fh.write(line + "\n")
            fh.write("\n")
    manifest_path = args.manifest or out + ".manifest.json"
    run.manifest.save(manifest_path)

    elapsed = time.time() - started
    print("wrote %s and %s in %.1f s (%.2f figures/s, %d cached)"
          % (out, manifest_path, elapsed,
             len(experiments) / max(elapsed, 1e-9),
             len(run.manifest.cached_points)))
    if run.failures:
        print("ERROR: %d figure(s) failed:" % len(run.failures))
        for point in run.failures:
            print("  %s: %s" % (point["params"]["figure"], point["error"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
