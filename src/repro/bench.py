"""Timed microbenchmarks of the simulator itself (``repro bench``).

Every other number this package produces lives in *virtual* time; this
module is the one place that measures *wall-clock* performance of the
simulation engine, so speedups (and regressions) in the hot paths are
visible and enforceable.  Four benchmarks cover the regimes that
stress different code:

* ``idle_latency``   — pointer-chase-style single reads (per-line path,
  no contention, dominated by the namespace/cache fast path);
* ``bandwidth_1t``   — one saturating non-temporal stream (the batched
  ``yield_every`` fast path and the single-workload scheduler bypass);
* ``contention_8t``  — eight store+clwb streams (the per-beat scheduler
  heap, shared-link booking and XPBuffer eviction back-pressure);
* ``sweep_quick``    — the quick sweep grid end to end (everything,
  including the harness and the same-simulation point memo);
* ``serve_closed``   — closed-loop YCSB-A against the LSM store (the
  full serving stack: generators, Service adapter, multi-client
  scheduler interleaving, WAL + memtable + flush);
* ``serve_open``     — open-loop YCSB-C against PMemKV (Poisson
  arrivals, earliest-free-worker dispatch, the cmap read path);
* ``serve_chaos``    — one chaos-serving cell (mid-serve power
  failures, recovery, and the durability oracle's read-back);
* ``pmcheck_overhead`` — the ``serve_closed`` workload with the
  persistency-order checker installed (the checker's state machine
  riding the inline hooks; compare against ``serve_closed`` for the
  checking tax);
* ``obs_overhead``    — the ``serve_closed`` workload with the
  always-on observability recorder attached (two list appends per
  request in the loop, histogram/window folding after it).  Each run
  times recording-off and recording-on arms back to back and ``main``
  holds the *paired* loss at ``--obs-tolerance`` (default 5%):
  observability that is not cheap enough to leave on is a regression,
  not a feature.

Results land in ``BENCH_sim.json`` as ``{name: {wall_s, sim_ops,
ops_per_s}}`` where ``sim_ops`` counts simulated cache-line operations
(samples for the latency benchmark), so ``ops_per_s`` is comparable
across machines of the same class.

Three measurement rules keep the numbers honest:

* every benchmark gets one **warm-up run** (quick shapes) before the
  timed run, so first-use module imports and code-object warmup are
  not billed to whichever benchmark happens to run first;
* the serving benchmarks time **exactly the section their** ``sim_ops``
  **counts** — the serve loop — not the machine construction and
  record preload around it (``sim_ops`` never counted preload puts, so
  billing their wall time made ``ops_per_s`` a mixed unit);
* each benchmark runs several times (``--repeats``; default 3, or 5
  under ``--quick`` where a run is nearly free) and the **minimum**
  wall time is kept — the quick shapes run in milliseconds, where a
  single scheduler preemption doubles the reading.

``--compare old.json`` prints a per-benchmark delta table (including
``NEW``/``REMOVED`` names, in the harness comparator's convention) and
exits non-zero when any benchmark loses more than the fail tolerance;
losses past the warn tolerance are reported but do not fail — the
regression gate `scripts/` and CI can hold on to.
"""

import json
import time

from repro._units import CACHELINE, KIB

#: Relative ops/s loss versus the baseline that fails ``--compare``.
REGRESSION_TOLERANCE = 0.20
#: Relative ops/s loss that is reported (without failing) by default.
WARN_TOLERANCE = 0.10
#: Max throughput ``obs_overhead`` may lose versus ``serve_closed``.
OBS_OVERHEAD_TOLERANCE = 0.05


def _timed(fn):
    """Run ``fn`` once; returns (wall_s, sim_ops).

    A benchmark either returns ``sim_ops`` (the whole call is timed)
    or ``(sim_ops, wall_s)`` with the wall time of just the section
    those ops cover, measured inside.
    """
    started = time.perf_counter()
    ret = fn()
    wall = time.perf_counter() - started
    if isinstance(ret, tuple):
        return ret[1], ret[0]
    return wall, ret


def bench_idle_latency(quick=False):
    """Unloaded random read latency: the per-line load path."""
    from repro.lattester.latency import read_latency
    samples = 2000 if quick else 10000
    read_latency(kind="optane", pattern="rand", samples=samples)
    return samples


def bench_bandwidth_1t(quick=False):
    """One saturating ntstore stream: the batched single-thread path."""
    from repro.lattester.bandwidth import measure_bandwidth
    per_thread = (256 if quick else 2048) * KIB
    result = measure_bandwidth(kind="optane", op="ntstore", threads=1,
                               access=256, pattern="seq",
                               per_thread=per_thread)
    return result.total_bytes // CACHELINE


def bench_contention_8t(quick=False):
    """Eight store+clwb streams: per-beat scheduling and contention."""
    from repro.lattester.bandwidth import measure_bandwidth
    per_thread = (16 if quick else 64) * KIB
    result = measure_bandwidth(kind="optane", op="clwb", threads=8,
                               access=256, pattern="rand",
                               per_thread=per_thread)
    return result.total_bytes // CACHELINE


def bench_sweep_quick(quick=False):
    """The quick sweep grid, serially, without the on-disk cache."""
    from repro.lattester.sweep import QUICK_GRID, sweep_grid
    per_thread = (8 if quick else 48) * KIB
    records = sweep_grid(dict(QUICK_GRID), per_thread=per_thread)
    lines = per_thread // CACHELINE
    return sum(lines * rec["threads"] for rec in records)


def bench_serve_closed(quick=False):
    """Closed-loop YCSB-A on the LSM store: the serving stack.

    Times the serve loop only (``sim_ops`` counts served requests, so
    machine construction and preload are excluded from the wall time).
    """
    from repro.sim.platform import Machine
    from repro.workloads import closed_loop, get_workload, make_service
    from repro.workloads.loadloop import preload
    records = 192 if quick else 512
    ops = 2048 if quick else 4096
    spec = get_workload("ycsb-a")
    machine = Machine()
    service = make_service("lsm", machine, spec, records=records,
                           ops=ops, seed=0)
    load_end = preload(service, machine, spec, records, seed=0)
    started = time.perf_counter()
    report = closed_loop(machine, service, spec, records=records,
                         ops=ops, clients=4, seed=0, load_end=load_end)
    return report["ops"], time.perf_counter() - started


def bench_serve_open(quick=False):
    """Open-loop YCSB-C on PMemKV: arrival dispatch near the knee.

    Times the serve loop only, like ``bench_serve_closed``.
    """
    from repro.sim.platform import Machine
    from repro.workloads import get_workload, make_service, open_loop
    from repro.workloads.loadloop import preload
    records = 192 if quick else 512
    ops = 2048 if quick else 4096
    spec = get_workload("ycsb-c")
    machine = Machine()
    service = make_service("pmemkv", machine, spec, records=records,
                           ops=ops, seed=0)
    load_end = preload(service, machine, spec, records, seed=0)
    started = time.perf_counter()
    report = open_loop(machine, service, spec, records=records,
                       ops=ops, rate_kops=8000.0, workers=4, seed=0,
                       load_end=load_end)
    return report["ops"], time.perf_counter() - started


def bench_serve_chaos(quick=False):
    """One chaos cell: mid-serve power failures, recovery, the oracle.

    Exercises the fault-injection hooks on the persist path, two
    crash/recover/audit cycles and the durability read-back — the
    overhead chaos serving adds on top of plain closed-loop serving.
    """
    from repro.chaos_serve import chaos_serve_cell
    records = 160 if quick else 512
    ops = 400 if quick else 2400
    record = chaos_serve_cell({
        "workload": "ycsb-a", "substrate": "lsm",
        "scenario": "power-fail", "mode": "closed", "naive": False,
        "seed": 0, "records": records, "ops": ops, "clients": 2,
    })
    return record["served"]["ops"]


def bench_pmcheck_overhead(quick=False):
    """``serve_closed`` with the persistency-order checker riding along.

    The delta against ``serve_closed`` is the whole checking tax: the
    checker's per-line state machine and ack-window bookkeeping.
    Like ``serve_closed``, only the serve loop is timed (the preload
    still runs with the checker installed, so checker state at serve
    start is unchanged).
    """
    from repro.pmcheck import PmCheck
    from repro.sim.platform import Machine
    from repro.workloads import closed_loop, get_workload, make_service
    from repro.workloads.loadloop import preload
    records = 192 if quick else 512
    ops = 2048 if quick else 4096
    spec = get_workload("ycsb-a")
    machine = Machine()
    checker = PmCheck(machine).install()
    service = make_service("lsm", machine, spec, records=records,
                           ops=ops, seed=0)
    load_end = preload(service, machine, spec, records, seed=0)
    started = time.perf_counter()
    report = closed_loop(machine, service, spec, records=records,
                         ops=ops, clients=4, seed=0, load_end=load_end)
    wall = time.perf_counter() - started
    checker.uninstall()
    return report["ops"], wall


#: ``(sim_ops, recording_off_wall, recording_on_wall)`` triples from
#: ``bench_obs_overhead`` runs.  The obs gate reads these so it holds
#: the tax from arms measured *back to back* in one call — comparing
#: against the ``serve_closed`` row timed minutes earlier folds CPU
#: frequency/thermal drift into a ratio that must resolve 5%.
_OBS_PAIRS = []


def bench_obs_overhead(quick=False):
    """``serve_closed`` with the obs recorder attached.

    The recording tax is the per-request latency/timestamp appends
    inside the serve loop plus the post-loop histogram
    and burn-window folding.  Each call times the identical serve
    loop twice on fresh machines — recording off, then on — so the
    gate in :func:`main` compares a *paired* measurement; the timed
    row reports the recording-on arm.
    """
    from repro.obs import ObsRecorder
    from repro.sim.platform import Machine
    from repro.workloads import closed_loop, get_workload, make_service
    from repro.workloads.loadloop import preload
    records = 192 if quick else 512
    ops = 2048 if quick else 4096
    spec = get_workload("ycsb-a")

    def arm(obs):
        machine = Machine()
        service = make_service("lsm", machine, spec, records=records,
                               ops=ops, seed=0)
        load_end = preload(service, machine, spec, records, seed=0)
        started = time.perf_counter()
        report = closed_loop(machine, service, spec, records=records,
                             ops=ops, clients=4, seed=0,
                             load_end=load_end, obs=obs)
        return report, time.perf_counter() - started

    _, off_wall = arm(None)
    report, on_wall = arm(ObsRecorder("lsm", workload="ycsb-a"))
    _OBS_PAIRS.append((report["ops"], off_wall, on_wall))
    return report["ops"], on_wall


BENCHMARKS = (
    ("idle_latency", bench_idle_latency),
    ("bandwidth_1t", bench_bandwidth_1t),
    ("contention_8t", bench_contention_8t),
    ("sweep_quick", bench_sweep_quick),
    ("serve_closed", bench_serve_closed),
    ("serve_open", bench_serve_open),
    ("serve_chaos", bench_serve_chaos),
    ("pmcheck_overhead", bench_pmcheck_overhead),
    ("obs_overhead", bench_obs_overhead),
)


def run_benchmarks(quick=False, progress=None, repeats=3):
    """Run every benchmark; returns ``{name: {wall_s, sim_ops, ops_per_s}}``.

    Each benchmark gets an untimed quick warm-up first, then runs
    ``repeats`` times and keeps the **minimum** wall time — the
    standard noise-floor estimate; everything above the minimum is
    scheduler/other-tenant interference, not the benchmark.  The
    same-simulation point memo is cleared before every timed run, so
    neither the warm-up nor an earlier repeat can seed it.
    """
    from repro.lattester.bandwidth import clear_point_memo
    results = {}
    for name, fn in BENCHMARKS:
        fn(quick=True)          # warm imports and code paths, untimed
        wall = sim_ops = None
        for _ in range(max(1, repeats)):
            clear_point_memo()  # warm-ups/repeats must not seed the memo
            run_wall, run_ops = _timed(lambda: fn(quick=quick))
            if wall is None or run_wall < wall:
                wall, sim_ops = run_wall, run_ops
        results[name] = {
            "wall_s": round(wall, 4),
            "sim_ops": sim_ops,
            "ops_per_s": round(sim_ops / wall, 1) if wall > 0 else 0.0,
        }
        if progress is not None:
            progress(name, results[name])
    return results


def compare(baseline, current, tolerance=REGRESSION_TOLERANCE):
    """Benchmarks in ``current`` that regressed versus ``baseline``.

    Returns a list of ``(name, old_ops_per_s, new_ops_per_s)`` for
    every benchmark present in both whose throughput dropped by more
    than ``tolerance``.  Benchmarks only one side knows are skipped
    (adding or retiring a benchmark is not a regression).
    """
    regressions = []
    for name, old in baseline.items():
        new = current.get(name)
        if new is None:
            continue
        old_rate = old.get("ops_per_s", 0.0)
        new_rate = new.get("ops_per_s", 0.0)
        if old_rate > 0 and new_rate < old_rate * (1.0 - tolerance):
            regressions.append((name, old_rate, new_rate))
    return regressions


def delta_report(baseline, current):
    """Per-benchmark ops/s deltas; returns ``(lines, worst_loss)``.

    Every name either side knows gets a line — additions and removals
    use the harness comparator's convention — and ``worst_loss`` is
    the largest relative throughput loss (0.0 when nothing regressed),
    so the caller can hold it against whatever tolerance it enforces.
    """
    lines = []
    worst_loss = 0.0
    for name in sorted(set(baseline) | set(current)):
        old = baseline.get(name)
        new = current.get(name)
        if new is None:
            lines.append("  REMOVED %s (metric absent in candidate)" % name)
            continue
        if old is None:
            lines.append("  NEW     %s (metric absent in baseline)" % name)
            continue
        old_rate = old.get("ops_per_s", 0.0)
        new_rate = new.get("ops_per_s", 0.0)
        if old_rate > 0:
            delta = (new_rate - old_rate) / old_rate
            lines.append("  %-16s %12.0f -> %12.0f ops/s  (%+.1f%%)"
                         % (name, old_rate, new_rate, 100.0 * delta))
            if -delta > worst_loss:
                worst_loss = -delta
        else:
            lines.append("  %-16s %12.0f -> %12.0f ops/s"
                         % (name, old_rate, new_rate))
    return lines, worst_loss


def profile_benchmark(name, quick=False, out=None):
    """cProfile one benchmark; returns the pstats dump path.

    The benchmark is warmed exactly like a timed run (quick warm-up,
    then the point memo is cleared), so the profile shows steady-state
    hot paths rather than import machinery.  The raw stats land in
    ``out`` (default ``bench_profile_<name>.pstats``) for ``snakeviz``
    or ``pstats`` digging, and the top 25 functions by cumulative time
    are printed.
    """
    import cProfile
    import pstats

    from repro.lattester.bandwidth import clear_point_memo
    table = dict(BENCHMARKS)
    if name not in table:
        raise SystemExit("unknown benchmark %r (choose from: %s)"
                         % (name, ", ".join(n for n, _ in BENCHMARKS)))
    fn = table[name]
    fn(quick=True)
    clear_point_memo()
    if out is None:
        out = "bench_profile_%s.pstats" % name
    profiler = cProfile.Profile()
    profiler.enable()
    fn(quick=quick)
    profiler.disable()
    profiler.dump_stats(out)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(25)
    print("wrote %s" % out)
    return out


def main(args):
    """Entry point for ``python -m repro bench``."""
    if getattr(args, "profile", None):
        profile_benchmark(args.profile, quick=args.quick,
                          out=getattr(args, "profile_out", None))
        return 0

    def progress(name, row):
        print("  %-14s %8.3f s   %10d ops   %12.0f ops/s"
              % (name, row["wall_s"], row["sim_ops"], row["ops_per_s"]))

    print("benchmarking simulator hot paths%s ..."
          % (" (quick)" if args.quick else ""))
    repeats = getattr(args, "repeats", None) or (5 if args.quick else 3)
    del _OBS_PAIRS[:]
    results = run_benchmarks(quick=args.quick, progress=progress,
                             repeats=repeats)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.out)
    status = 0
    obs_tol = getattr(args, "obs_tolerance", None)
    if obs_tol is None:
        obs_tol = OBS_OVERHEAD_TOLERANCE
    # Paired gate: min recording-off vs min recording-on wall from the
    # back-to-back arms, restricted to timed-shape runs (the warm-up
    # uses the quick shape even in full mode).
    timed_ops = results.get("obs_overhead", {}).get("sim_ops")
    pairs = [(off, on) for ops, off, on in _OBS_PAIRS
             if ops == timed_ops]
    if pairs:
        off_wall = min(off for off, _ in pairs)
        on_wall = min(on for _, on in pairs)
        loss = 1.0 - off_wall / on_wall if on_wall > 0 else 0.0
        print("obs recording tax: %+.1f%% of serve_closed throughput "
              "(gate: %.0f%%, paired)"
              % (100.0 * loss, 100.0 * obs_tol))
        if loss > obs_tol:
            print("FAIL: always-on observability costs %.1f%% "
                  "throughput; it must stay under %.0f%% to stay "
                  "always-on" % (100.0 * loss, 100.0 * obs_tol))
            status = 1
    if args.compare is None:
        return status
    warn_tol = getattr(args, "warn_tolerance", None)
    fail_tol = getattr(args, "fail_tolerance", None)
    if warn_tol is None:
        warn_tol = WARN_TOLERANCE
    if fail_tol is None:
        fail_tol = REGRESSION_TOLERANCE
    with open(args.compare) as fh:
        baseline = json.load(fh)
    print("delta vs %s:" % args.compare)
    lines, worst_loss = delta_report(baseline, results)
    for line in lines:
        print(line)
    if worst_loss > fail_tol:
        print("FAIL: worst loss %.1f%% exceeds fail tolerance %d%%"
              % (100.0 * worst_loss, int(fail_tol * 100)))
        return 1
    if worst_loss > warn_tol:
        print("WARN: worst loss %.1f%% exceeds warn tolerance %d%%"
              % (100.0 * worst_loss, int(warn_tol * 100)))
        return status
    print("no benchmark regressed more than %d%% vs %s"
          % (int(warn_tol * 100), args.compare))
    return status
