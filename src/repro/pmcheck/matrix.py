"""The pmcheck matrix: every (workload, substrate) cell a harness point.

Each cell serves a quick closed-loop YCSB run with the checker
installed and returns the violation summary.  Cells are
content-addressed under the ``pmcheck.serve`` experiment so re-runs
replay from the cache, and the manifest is *normalized* (no wall-clock,
no job count, no cache-hit flags) so a ``--jobs 4`` run produces
byte-identical artifacts to ``--jobs 1`` — the CI determinism gate
leans on this.

The protected grid covers YCSB A–F x all four substrates and must be
violation-free; the ``naive`` grid strips the substrates' hardening
(see ``make_service``) and must trip the checker deterministically.
NOVA has no naive variant (its log format is CRC-framed by design), so
the naive grid excludes it.
"""

from repro.harness.runner import run_matrix
from repro.pmcheck.state import PmCheck
from repro.workloads.generators import get_workload
from repro.workloads.service import SUBSTRATES

#: Cache-key experiment name for pmcheck cells.
PMCHECK_EXPERIMENT = "pmcheck.serve"

#: The checker verdict must hold across every core mix, not just A.
CHECK_WORKLOADS = ("ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e",
                   "ycsb-f")

QUICK_SHAPE = {"records": 128, "ops": 320, "clients": 2}
FULL_SHAPE = {"records": 512, "ops": 2048, "clients": 4}


def build_pmcheck_grid(workload=None, substrate=None, quick=False,
                       seed=0, naive=False):
    """The cell payloads one pmcheck run covers, in deterministic order.

    ``workload``/``substrate`` restrict the matrix to one value (the
    CLI's positional arguments); ``None`` means "all".
    """
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    workloads = [workload] if workload else list(CHECK_WORKLOADS)
    for name in workloads:
        get_workload(name)  # validate early, with the library's error
    if substrate:
        if substrate not in SUBSTRATES:
            raise ValueError("unknown substrate %r (choose from %s)"
                             % (substrate, ", ".join(sorted(SUBSTRATES))))
        if naive and substrate == "nova":
            raise ValueError("nova has no naive variant (its log format "
                             "is CRC-framed by design)")
        substrates = [substrate]
    else:
        substrates = [s for s in sorted(SUBSTRATES)
                      if not (naive and s == "nova")]
    base = dict(shape)
    base["seed"] = seed
    base["naive"] = bool(naive)
    return [dict(base, workload=wname, substrate=sname)
            for wname in workloads for sname in substrates]


def pmcheck_cell(payload):
    """One checked serving cell (harness point function, picklable)."""
    from repro.sim.platform import Machine
    from repro.workloads.loadloop import closed_loop
    from repro.workloads.service import make_service

    spec = get_workload(payload["workload"])
    machine = Machine()
    checker = PmCheck(machine).install()
    service = make_service(payload["substrate"], machine, spec,
                           records=payload["records"], ops=payload["ops"],
                           seed=payload["seed"],
                           naive=bool(payload.get("naive", False)))
    report = closed_loop(machine, service, spec,
                         records=payload["records"], ops=payload["ops"],
                         clients=payload["clients"], seed=payload["seed"])
    summary = checker.summary()
    checker.uninstall()
    return {
        "workload": payload["workload"],
        "substrate": payload["substrate"],
        "naive": bool(payload.get("naive", False)),
        "seed": payload["seed"],
        "records": payload["records"],
        "ops": payload["ops"],
        "clients": payload["clients"],
        "served": {"ops": report["ops"],
                   "achieved_kops": report["achieved_kops"],
                   "p99_us": report["latency_us"]["p99"]},
        "pmcheck": summary,
    }


def _cell_name(payload):
    return {k: payload[k] for k in ("workload", "substrate", "naive")}


def run_pmcheck(workload=None, substrate=None, quick=False, seed=0,
                naive=False, jobs=None, cache=None, progress=None,
                trace_dir=None):
    """Run the pmcheck matrix through the harness.

    Returns a :class:`~repro.harness.runner.SweepRun`; ``violations``
    aggregates every persistency-order violation any cell's checker
    reported, each annotated with its cell.
    """
    payloads = build_pmcheck_grid(workload=workload, substrate=substrate,
                                  quick=quick, seed=seed, naive=naive)
    return run_matrix(
        pmcheck_cell, payloads,
        name="pmcheck-%s" % ("quick" if quick else "full"),
        grid={"workload": sorted({p["workload"] for p in payloads}),
              "substrate": sorted({p["substrate"] for p in payloads}),
              "seed": [seed],
              "naive": [bool(naive)]},
        cell=_cell_name,
        findings={"violations": lambda rec: rec["pmcheck"]["violations"]},
        experiment=PMCHECK_EXPERIMENT, cache=cache, jobs=jobs,
        progress=progress, trace_dir=trace_dir)
