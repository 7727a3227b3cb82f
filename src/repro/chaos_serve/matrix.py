"""The chaos matrix: every (workload, substrate, scenario) a harness point.

Each cell is content-addressed under the ``chaos.serve`` experiment, so
re-running the matrix replays finished cells from the cache and a
``--jobs 4`` run hits the same addresses as ``--jobs 1``.  The manifest
is *normalized* — no wall-clock, no job count, no cache-hit flags, keys
included — so two same-seed runs produce byte-identical manifests
regardless of parallelism or cache temperature (the regression CI leans
on exactly this).

The quick grid keeps CI honest without taking minutes: two update-heavy
workloads x all four substrates x all four scenarios closed-loop, plus
a handful of open-loop cells (admission control and queue-wait
deadlines only exist there).  The full grid widens the workloads and
deepens the shape.  Only value-size-100 workloads are eligible (see
:mod:`repro.chaos_serve.driver` for the NOVA stride constraint).
"""

from repro.chaos_serve.driver import SCENARIOS, chaos_serve_cell
from repro.harness.runner import run_matrix
from repro.workloads.generators import get_workload
from repro.workloads.service import SUBSTRATES

#: Cache-key experiment name for chaos cells.
CHAOS_EXPERIMENT = "chaos.serve"

#: Chaos cells require single-slot NOVA writes (stride | page).
CHAOS_VALUE_SIZE = 100

QUICK_SHAPE = {"records": 160, "ops": 400, "clients": 2}
FULL_SHAPE = {"records": 768, "ops": 2400, "clients": 3}
QUICK_WORKLOADS = ("ycsb-a", "ycsb-f")
FULL_WORKLOADS = ("ycsb-a", "ycsb-b", "ycsb-d", "ycsb-f")
#: Open-loop cells: offered load and the substrates covered in quick.
OPEN_RATE_KOPS = 400.0
QUICK_OPEN_SUBSTRATES = ("lsm", "pmemkv")
QUICK_OPEN_SCENARIOS = ("power-fail", "thermal")


def build_chaos_grid(workload=None, substrate=None, quick=False,
                     seed=0, naive=False, pmcheck=False):
    """The cell payloads one chaos run covers, in deterministic order.

    ``workload``/``substrate`` restrict the matrix to one value (the
    CLI's positional arguments); ``None`` means "all eligible".
    """
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    all_workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    workloads = [workload] if workload else list(all_workloads)
    for name in workloads:
        spec = get_workload(name)
        if spec.value_size != CHAOS_VALUE_SIZE:
            raise ValueError(
                "workload %r has value_size=%d; chaos serving only "
                "supports value_size=%d workloads (NOVA's slot stride "
                "must divide the page)" % (name, spec.value_size,
                                           CHAOS_VALUE_SIZE))
    if substrate and substrate not in SUBSTRATES:
        raise ValueError("unknown substrate %r (choose from %s)"
                         % (substrate, ", ".join(sorted(SUBSTRATES))))
    substrates = [substrate] if substrate else sorted(SUBSTRATES)
    base = dict(shape)
    base["seed"] = seed
    base["naive"] = bool(naive)
    if pmcheck:
        # Only present when enabled: plain cells keep their existing
        # cache addresses and manifests byte-identical.
        base["pmcheck"] = True

    payloads = []
    for wname in workloads:
        for sname in substrates:
            for scenario in SCENARIOS:
                payloads.append(dict(base, workload=wname,
                                     substrate=sname, scenario=scenario,
                                     mode="closed"))
    open_workload = workloads[0]
    open_substrates = [s for s in substrates
                       if not quick or s in QUICK_OPEN_SUBSTRATES]
    open_scenarios = QUICK_OPEN_SCENARIOS if quick else SCENARIOS
    for sname in open_substrates:
        for scenario in open_scenarios:
            payloads.append(dict(base, workload=open_workload,
                                 substrate=sname, scenario=scenario,
                                 mode="open", rate_kops=OPEN_RATE_KOPS))
    return payloads


def _cell_name(payload):
    return {k: payload[k] for k in ("workload", "substrate", "scenario",
                                    "mode")}


def run_chaos_serve(workload=None, substrate=None, quick=False, seed=0,
                    naive=False, jobs=None, cache=None, progress=None,
                    trace_dir=None, pmcheck=False):
    """Run the chaos matrix through the harness.

    Returns a :class:`~repro.harness.runner.SweepRun`; ``violations``
    aggregates every durability violation any cell's oracle reported,
    each annotated with its cell so the CLI can print the offending
    history window.  With ``pmcheck`` the persistency-order checker
    rides along in every cell and its findings land in
    ``findings["pmcheck_violations"]``.
    """
    payloads = build_chaos_grid(workload=workload, substrate=substrate,
                                quick=quick, seed=seed, naive=naive,
                                pmcheck=pmcheck)
    findings = {"violations": lambda rec: rec["violations"]}
    if pmcheck:
        findings["pmcheck_violations"] = \
            lambda rec: rec["pmcheck"]["violations"]
    return run_matrix(
        chaos_serve_cell, payloads,
        name="chaos-serve-%s" % ("quick" if quick else "full"),
        grid={"workload": sorted({p["workload"] for p in payloads}),
              "substrate": sorted({p["substrate"] for p in payloads}),
              "scenario": list(SCENARIOS),
              "seed": [seed],
              "naive": [bool(naive)]},
        cell=_cell_name, findings=findings, experiment=CHAOS_EXPERIMENT,
        cache=cache, jobs=jobs, progress=progress, trace_dir=trace_dir)
