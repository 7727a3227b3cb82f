"""``python -m perfbench``: the whole pass, the self-check, ``compare``.

    PYTHONPATH=src python -m perfbench [--seed N] [--workload NAME]
                                       [--trace] [--out FILE]
    PYTHONPATH=src python -m perfbench --selfcheck [--seed N]
    PYTHONPATH=src python -m perfbench compare A.json B.json
    PYTHONPATH=src python -m perfbench compare --pairs N --a DIR --b DIR

Each workload runs in its own fresh interpreter (``perfbench/run.py``),
so set-up time and peak memory are attributable to it.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

from perfbench import HERE, OUT, ROOT
from perfbench.compare import compare_files, compare_pairs, run_workload
from perfbench.spec import Registry

BASELINE = os.path.join(HERE, "baseline.json")
#: Wall-clock metrics: compared within their bound, never bit for bit.
WALL_METRICS = ("setup_s", "wall_us_per_op", "peak_rss_mb")


def commit():
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return proc.stdout.decode().strip() or "unknown"


def run_pass(registry, seed, names, trace=False, quiet=False):
    results = {}
    for name in names:
        result = run_workload(ROOT, name, seed, registry.run_seconds,
                              echo=not quiet)
        if trace:
            traced = run_workload(ROOT, name, seed, registry.run_seconds,
                                  trace=True, echo=not quiet)
            result["per_layer"] = {k: v["value"] for k, v
                                   in traced["metrics"].items()}
        results[name] = result
        if not quiet:
            print()
    return {"seed": seed, "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "workloads": results}


def summary(registry, run):
    lines = ["summary (seed %d, commit %s, python %s, nproc %s)"
             % (run["seed"], run["commit"], run["python"], run["nproc"])]
    for name, result in run["workloads"].items():
        lines.append("%s  [%d windows; attempted %d, failed %d, known "
                     "%d, refused %d]"
                     % (name, result["windows"], result["attempted"],
                        result["failed"], result["known_failed"],
                        result["refused"]))
        for metric in registry.report_rows(name):
            value = result["end_to_end"].get(
                metric, result["outcomes"].get(metric))
            lines.append("  %-16s %16.6f %s"
                         % (metric, value, registry.unit(metric)))
    return "\n".join(lines)


def disagreements(registry, first, second):
    """Why two passes of the same code and seed do not agree."""
    problems = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric in registry.end_to_end:
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            if metric in WALL_METRICS:
                bound = registry.bound(metric)
                if abs(y - x) > bound * x:
                    problems.append(
                        "%s %s: %.6g vs %.6g differ by more than its "
                        "%.0f%% bound" % (name, metric, x, y,
                                          100 * bound))
            elif x != y:
                problems.append("%s %s: simulated %r != %r"
                                % (name, metric, x, y))
        for table in ("outcomes", "counts"):
            for key, x in a[table].items():
                if b[table].get(key) != x:
                    problems.append("%s %s: %r != %r"
                                    % (name, key, x, b[table].get(key)))
        # attempted / known / refused scale with how many windows
        # fitted; failed_share above is their per-window form.
        if a["failed"] != b["failed"]:
            problems.append("%s failed: %r != %r"
                            % (name, a["failed"], b["failed"]))
    return problems


def selfcheck(registry, seed):
    """Two passes must agree; a third seed is recorded beside them."""
    names = list(registry.workloads)
    print("selfcheck: pass 1 of 2, seed %d" % seed)
    first = run_pass(registry, seed, names, quiet=True)
    print(summary(registry, first))
    print("selfcheck: pass 2 of 2, seed %d" % seed)
    second = run_pass(registry, seed, names, quiet=True)
    problems = disagreements(registry, first, second)
    for problem in problems:
        print("DISAGREE " + problem)
    print("selfcheck: held-out seed %d" % (seed + 1))
    held_out = run_pass(registry, seed + 1, names, quiet=True)
    print(summary(registry, held_out))
    if problems:
        print("selfcheck FAILED: %d disagreements" % len(problems))
        return 1
    with open(BASELINE, "w") as fh:
        json.dump({"seed": first, "held_out_seed": held_out}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print("selfcheck ok: simulated metrics and counts bit-identical, "
          "wall metrics within their bounds; wrote %s" % BASELINE)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--trace", action="store_true",
                        help="also make the traced pass (per-layer)")
    parser.add_argument("--out", default=None,
                        help="result file (default perfbench/out/)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    registry = Registry()
    if args.selfcheck:
        return selfcheck(registry, args.seed)
    names = list(registry.workloads)
    if args.workload is not None:
        if args.workload not in registry.workloads:
            parser.error("unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(names)))
        names = [args.workload]
    run = run_pass(registry, args.seed, names, trace=args.trace)
    print(summary(registry, run))
    out = args.out or os.path.join(OUT, "result-seed%d.json" % args.seed)
    with open(out, "w") as fh:
        json.dump(run, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % out)
    return 0 if all(r["correct"] for r in run["workloads"].values()) else 1


def compare_main(argv):
    parser = argparse.ArgumentParser(prog="python -m perfbench compare")
    parser.add_argument("files", nargs="*", metavar="RESULT.json")
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--a", default=None, help="checkout A")
    parser.add_argument("--b", default=None, help="checkout B")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs:
        if not (args.a and args.b):
            parser.error("--pairs needs --a DIR and --b DIR")
        registry = Registry()
        names = [args.workload] if args.workload \
            else list(registry.workloads)
        return compare_pairs(args.pairs, args.a, args.b, names, args.seed)
    if len(args.files) != 2:
        parser.error("compare takes two result files")
    return compare_files(args.files[0], args.files[1])


if __name__ == "__main__":
    sys.exit(main())
