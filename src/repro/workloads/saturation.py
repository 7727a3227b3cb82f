"""The saturation controller: latency-vs-load curves and SLO search.

The paper's central serving lesson is that Optane substrates have a
sharp saturation knee — throughput scales with offered load until the
device's internal queues fill, then tail latency diverges while
throughput goes flat.  This module reproduces that curve per substrate
and finds the largest offered load whose open-loop p99 still meets an
SLO, which is the number a capacity planner actually wants.

Every measured point goes through :func:`repro.harness.run_sweep` with
a custom ``point_fn``, so serve points share the harness' discipline:
content-addressed caching (a binary-search probe that lands on a curve
rate replays for free), deterministic serial/parallel ordering,
manifests, and optional per-point Chrome traces (the harness records
them; the point function never sees a trace path).  Reports contain only
virtual-time quantities and rounded floats — byte-identical across
reruns and hosts.
"""

from repro.harness.cache import ResultCache
from repro.harness.runner import run_sweep
from repro.workloads.generators import get_workload
from repro.workloads.loadloop import closed_loop, open_loop
from repro.workloads.service import SUBSTRATES, make_service

#: Cache namespace for serve points (bump to invalidate old results).
SERVE_EXPERIMENT = "workloads.serve"
SERVE_VERSION = "1"

#: Offered-load fractions of closed-loop throughput for the curve.
CURVE_FRACTIONS = (0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25)
QUICK_CURVE_FRACTIONS = (0.5, 0.9, 1.25)

#: Workload sizing per mode.
FULL_SHAPE = {"records": 512, "ops": 2048, "clients": 4}
QUICK_SHAPE = {"records": 192, "ops": 480, "clients": 2}

#: Binary-search iterations (each one serve point, usually cached on
#: rerun).
SEARCH_ITERS = 7
QUICK_SEARCH_ITERS = 4

#: Default SLO when none is given: this multiple of the closed-loop
#: p99 (an absolute default cannot fit substrates whose service times
#: span two orders of magnitude).
DEFAULT_SLO_MULTIPLIER = 10.0


def _serve_point(params):
    """Measure one serve point (module-level: must pickle to workers).

    The payload is the cache identity of the point: workload,
    substrate, mode, shape and seed.  ``pmcheck`` appears only when set
    and ``naive`` only in the pmcheck matrix's cells, so plain serve
    points keep their cache addresses.
    """
    from repro.obs import ObsRecorder
    from repro.sim.platform import Machine
    spec = get_workload(params["workload"])
    machine = Machine()
    checker = None
    if params.get("pmcheck"):
        # Install before preload so the checker sees the whole persist
        # history.
        from repro.pmcheck import PmCheck
        checker = PmCheck(machine)
        checker.install()
    service = make_service(params["substrate"], machine, spec,
                           records=params["records"],
                           ops=params["ops"], seed=params["seed"],
                           naive=params.get("naive", False))
    # Always-on observability: the recorder rides inside the point and
    # its blob travels in the record (through the cache and into the
    # manifest), where the CLI externalizes it as a content-addressed
    # artifact.
    obs = ObsRecorder(params["substrate"], workload=params["workload"])
    common = dict(records=params["records"], ops=params["ops"],
                  seed=params["seed"], obs=obs)
    if params["mode"] == "closed":
        report = closed_loop(machine, service, spec,
                             clients=params["clients"], **common)
    else:
        report = open_loop(machine, service, spec,
                           rate_kops=params["rate_kops"],
                           workers=params["clients"], **common)
    report["workload"] = params["workload"]
    report["substrate"] = params["substrate"]
    report["service"] = service.stats()
    if checker is not None:
        report["pmcheck"] = checker.summary()
        checker.uninstall()
    report["obs"] = obs.to_dict()
    return report


def _base_params(workload, substrate, shape, seed):
    return {
        "workload": workload,
        "substrate": substrate,
        "records": shape["records"],
        "ops": shape["ops"],
        "clients": shape["clients"],
        "seed": seed,
    }


def _one_point(params, collect=None, **harness):
    """One serve point through the harness (cache-checked).

    ``collect`` optionally receives the point's manifest entry, so
    :func:`serve` can fold the closed-loop run and every saturation
    probe into the curve manifest (obs artifacts included) with their
    real provenance (key, cached flag) preserved.
    """
    grid = {key: (value,) for key, value in params.items()}
    run = run_sweep(grid, point_fn=_serve_point,
                    experiment=SERVE_EXPERIMENT, version=SERVE_VERSION,
                    **harness)
    run.raise_on_failure("serve")
    if collect is not None:
        collect.append(run.manifest.points[0])
    return run.records[0]


def serve(workload, substrate, quick=False, slo_p99_us=None, seed=0,
          jobs=None, cache=None, trace_dir=None, progress=None,
          pmcheck=False):
    """Full serving study of one workload x substrate pair.

    Returns ``(report, curve_manifest)``:

    1. a **closed-loop** run establishes the substrate's max
       self-throttled throughput;
    2. an **open-loop curve** offers fractions of that rate through
       one ``run_sweep`` (the paper-style latency-vs-load curve);
    3. a **binary search** brackets the largest offered rate whose
       open-loop p99 meets the SLO.

    The report is pure virtual-time data: byte-identical for the same
    arguments on any host, serial or parallel.  With ``pmcheck`` the
    persistency-order checker rides along in every point and the
    report gains a ``pmcheck`` section aggregating its findings.
    """
    get_workload(workload)
    if substrate not in SUBSTRATES:
        raise KeyError("unknown substrate %r (choose from %s)"
                       % (substrate, ", ".join(sorted(SUBSTRATES))))
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    fractions = QUICK_CURVE_FRACTIONS if quick else CURVE_FRACTIONS
    iters = QUICK_SEARCH_ITERS if quick else SEARCH_ITERS
    if cache is None:
        cache = ResultCache()
    harness = dict(jobs=jobs, cache=cache, trace_dir=trace_dir,
                   progress=progress)
    base = _base_params(workload, substrate, shape, seed)
    if pmcheck:
        base["pmcheck"] = True

    closed_points = []
    closed = _one_point(dict(base, mode="closed"),
                        collect=closed_points, **harness)
    closed_kops = closed["achieved_kops"]
    explicit_slo = slo_p99_us is not None
    if not explicit_slo:
        slo_p99_us = DEFAULT_SLO_MULTIPLIER * closed["latency_us"]["p99"]
    slo_p99_us = round(float(slo_p99_us), 3)

    rates = tuple(round(frac * closed_kops, 3) for frac in fractions)
    grid = dict({key: (value,) for key, value in base.items()},
                mode=("open",), rate_kops=rates)
    curve_run = run_sweep(grid, point_fn=_serve_point,
                          experiment=SERVE_EXPERIMENT,
                          version=SERVE_VERSION,
                          name="serve:%s:%s" % (workload, substrate),
                          **harness)
    curve_run.raise_on_failure("curve")
    curve = [{"offered_kops": rec["offered_kops"],
              "achieved_kops": rec["achieved_kops"],
              "p50_us": rec["latency_us"]["p50"],
              "p99_us": rec["latency_us"]["p99"],
              "p999_us": rec["latency_us"]["p999"]}
             for rec in curve_run.records]

    probe_points = []
    saturation = _search(base, closed_kops, slo_p99_us, explicit_slo,
                         iters, harness, collect=probe_points)
    # The returned manifest covers the *whole* study: closed-loop
    # point, curve sweep, then every saturation probe, in that
    # deterministic order — so obs artifacts cover every measurement
    # and ``repro report`` sees the full picture.  Probe rates that
    # landed on curve rates appear twice with identical keys; the
    # comparator indexes by params, so duplicates collapse harmlessly.
    curve_run.manifest.points = (closed_points
                                 + curve_run.manifest.points
                                 + probe_points)
    report = {
        "workload": workload,
        "substrate": substrate,
        "quick": bool(quick),
        "seed": seed,
        "shape": dict(shape),
        "closed": {k: v for k, v in closed.items() if k != "obs"},
        "curve": curve,
        "saturation": saturation,
    }
    if pmcheck:
        violations = []
        total = 0
        points = [("closed", closed)] + [("open", rec)
                                         for rec in curve_run.records]
        for mode, rec in points:
            summary = rec.get("pmcheck")
            if not summary:
                continue
            total += summary.get("total", 0)
            for violation in summary.get("violations", ()):
                violations.append(dict(violation, cell={
                    "workload": workload, "substrate": substrate,
                    "mode": mode}))
        report["pmcheck"] = {"total": total, "violations": violations}
    return report, curve_run.manifest


def _probe(base, rate_kops, harness, collect=None):
    rec = _one_point(dict(base, mode="open", rate_kops=rate_kops),
                     collect=collect, **harness)
    return rec["latency_us"]["p99"]


def _search(base, closed_kops, slo_p99_us, explicit_slo, iters,
            harness, collect=None):
    """Binary search for the max offered rate meeting the p99 SLO.

    Brackets between 5% and 125% of the closed-loop throughput: below
    the knee the open-loop p99 tracks service time; past it the queue
    diverges, so p99 crosses any sane SLO exactly once in the bracket.
    """
    lo = round(0.05 * closed_kops, 3)
    hi = round(1.25 * closed_kops, 3)
    probes = []

    def meets(rate):
        p99 = _probe(base, rate, harness, collect=collect)
        ok = p99 <= slo_p99_us
        probes.append({"rate_kops": rate, "p99_us": p99,
                       "meets_slo": ok})
        return ok

    result = {"slo_p99_us": slo_p99_us, "slo_explicit": explicit_slo,
              "closed_kops": closed_kops, "probes": probes}
    if meets(hi):
        # No divergence inside the bracket: the SLO holds even past
        # the closed-loop ceiling (tiny quick shapes can do this).
        result.update(max_kops=hi, slo_met=True, saturated=False)
        return result
    if not meets(lo):
        result.update(max_kops=0.0, slo_met=False, saturated=True)
        return result
    for _ in range(iters):
        mid = round((lo + hi) / 2.0, 3)
        if mid in (lo, hi):
            break
        if meets(mid):
            lo = mid
        else:
            hi = mid
    result.update(max_kops=lo, slo_met=True, saturated=True)
    return result
