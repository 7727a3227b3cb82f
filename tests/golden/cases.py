"""The experiments whose every observable is pinned in ``single_path.json``.

These goldens replace the fused-vs-reference twin comparison: they were
recorded on the last commit that still had the reference execution
(per-line kernels, heap scheduler, composed namespace bodies, generator
load loops), with its fast-path switch off — the exact command is in
CHANGES.md, PR 22 — and the single execution path that remains must
reproduce them exactly: latencies, counters, clocks, serialized traces,
serve reports, oracle verdicts, checker summaries.

Re-record (only when simulated behaviour is *meant* to change)::

    PYTHONPATH=src python -m tests.golden.cases --record
"""

import dataclasses
import hashlib
import json
import os

from repro._units import CACHELINE, KIB
from repro.chaos_serve import chaos_serve_cell
from repro.emulation.pmep import make_pmep_namespace
from repro.lattester.access import (
    address_stream, auto_yield_every, make_kernel, staggered_base,
)
from repro.obs import ObsRecorder
from repro.pmcheck import PmCheck
from repro.sim import Machine, run_workloads
from repro.sim.memmode import make_memory_mode_namespace
from repro.telemetry import chrome_trace, recording
from repro.workloads import closed_loop, get_workload, make_service, open_loop

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "single_path.json")

SPAN = 8 * KIB
KERNELS = ("read", "ntstore", "clwb", "store")
PATTERNS = ("seq", "rand")
THREAD_COUNTS = (1, 4)
SUBSTRATES = ("lsm", "pmemkv", "nova", "pmdk")
QUICK = dict(records=96, ops=240)

#: Observables whose canonical JSON is longer than this are pinned by
#: digest; shorter ones (serve reports, checker summaries) are stored
#: whole so a mismatch shows which field moved.
_INLINE_BYTES = 2048


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return dataclasses.astuple(obj)
    raise TypeError("not JSON-serialisable: %r" % (obj,))


def golden_entry(observable):
    """What ``single_path.json`` stores for one case's observable."""
    blob = json.dumps(observable, sort_keys=True, default=_jsonable)
    if len(blob) <= _INLINE_BYTES:
        return json.loads(blob)
    return {"sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "bytes": len(blob)}


def golden(name):
    """The recorded entry for one case."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)[name]


# -- device level ------------------------------------------------------------

def _namespace(machine, kind):
    if kind == "pmep":
        return make_pmep_namespace(machine)
    if kind == "memory-mode":
        return make_memory_mode_namespace(machine)
    return machine.namespace(kind)


def run_point(op, pattern, threads, kind="optane", access=256,
              yield_every=None):
    """One kernel experiment on a fresh machine; returns every observable."""
    machine = Machine()
    ns = _namespace(machine, kind)
    ts = machine.threads(threads)
    snaps = ns.counter_snapshots()
    if yield_every is None:
        yield_every = auto_yield_every(threads)
    pairs = []
    for t in ts:
        t.collect_latencies()
        base = staggered_base(t.tid, SPAN)
        addrs = address_stream(base, SPAN, access, pattern,
                               seed=77 + t.tid)
        pairs.append((t, make_kernel(op, ns, t, addrs, access,
                                     yield_every=yield_every)))
    elapsed = run_workloads(pairs)
    for dimm in ns.dimms:
        dimm.drain(elapsed)
    return {
        "elapsed": elapsed,
        "clocks": [t.now for t in ts],
        "latencies": [t.latencies for t in ts],
        "counters": ns.counter_deltas(snaps),
    }


def traced_point():
    with recording() as tracer:
        run_point("clwb", "seq", 1)
    return chrome_trace(tracer)


def run_instrumented(entry, kind, remote, hook):
    """``ntstore_run`` / ``store_run(clwb=True)`` under a tracer or checker.

    96 lines cross an interleave block (two DIMMs) and outrun the
    per-thread WPQ allotment (non-zero ``stall_ns``); the second pass
    re-stores lines that are resident and, unfenced, still pending.
    """
    def body():
        machine = Machine()
        ns = machine.namespace(kind)
        t = machine.thread(socket=1 if remote else 0)
        t.collect_latencies()
        checker = PmCheck(machine).install() if hook == "pmcheck" else None
        snaps = ns.counter_snapshots()
        if entry == "ntstore_run":
            def run(addr, lines):
                ns.ntstore_run(t, addr, lines)
        else:
            def run(addr, lines):
                ns.store_run(t, addr, lines, clwb=True)
        run(0, 96)
        t.sfence()
        run(32 * CACHELINE, 48)
        run(40 * CACHELINE, 8)
        t.sfence()
        out = {"clock": t.now, "latencies": t.latencies,
               "counters": ns.counter_deltas(snaps)}
        if checker is not None:
            out["pmcheck"] = checker.summary()
            checker.uninstall()
        return out

    if hook == "traced":
        with recording() as tracer:
            out = body()
        out["trace"] = chrome_trace(tracer)
        return out
    return body()


# -- serving -----------------------------------------------------------------

def run_closed(substrate, workload="ycsb-a", seed=0, clients=3, obs=None):
    spec = get_workload(workload)
    machine = Machine()
    service = make_service(substrate, machine, spec, seed=seed, **QUICK)
    return closed_loop(machine, service, spec, clients=clients,
                       seed=seed, obs=obs, **QUICK)


def run_open(substrate, workload="ycsb-b", seed=0, workers=2,
             rate_kops=400.0, obs=None):
    spec = get_workload(workload)
    machine = Machine()
    service = make_service(substrate, machine, spec, seed=seed, **QUICK)
    return open_loop(machine, service, spec, rate_kops=rate_kops,
                     workers=workers, seed=seed, obs=obs, **QUICK)


def obs_blob(runner, substrate):
    obs = ObsRecorder(substrate)
    runner(substrate, obs=obs)
    return obs.to_dict()


CHAOS_CELL = {"workload": "ycsb-a", "substrate": "lsm",
              "scenario": "power-fail", "mode": "closed", "naive": False,
              "seed": 0, "records": 128, "ops": 320, "clients": 2}


def run_cell(**overrides):
    return chaos_serve_cell(dict(CHAOS_CELL, **overrides))


def pmcheck_closed():
    """Closed-loop LSM serving under an installed checker."""
    spec = get_workload("ycsb-a")
    machine = Machine()
    checker = PmCheck(machine).install()
    service = make_service("lsm", machine, spec, seed=0, **QUICK)
    report = closed_loop(machine, service, spec, clients=2, seed=0,
                         **QUICK)
    summary = checker.summary()
    checker.uninstall()
    return {"report": report, "summary": summary}


# -- the matrix --------------------------------------------------------------

def _cases():
    cases = {}
    for op in KERNELS:
        for pattern in PATTERNS:
            for threads in THREAD_COUNTS:
                cases["kernel/%s/%s/%dt" % (op, pattern, threads)] = (
                    run_point, (op, pattern, threads), {})
    for kind in ("optane-ni", "dram"):
        cases["kernel/ntstore/seq/1t/" + kind] = (
            run_point, ("ntstore", "seq", 1), {"kind": kind})
    for access in (64, 1024):
        cases["kernel/clwb/rand/1t/%dB" % access] = (
            run_point, ("clwb", "rand", 1), {"access": access})
    for kind in ("pmep", "memory-mode"):
        for op in KERNELS:
            cases["kernel/%s/seq/1t/%s" % (op, kind)] = (
                run_point, (op, "seq", 1), {"kind": kind})
        cases["kernel/clwb/rand/4t/" + kind] = (
            run_point, ("clwb", "rand", 4), {"kind": kind})
    cases["trace/clwb/seq/1t"] = (traced_point, (), {})
    for entry in ("ntstore_run", "store_clwb_run"):
        for kind in ("optane", "optane-ni"):
            for remote in (False, True):
                for hook in ("traced", "pmcheck"):
                    name = "%s/%s/%s/%s" % (
                        entry, kind, "remote" if remote else "local", hook)
                    cases[name] = (run_instrumented,
                                   (entry, kind, remote, hook), {})
    for substrate in SUBSTRATES:
        cases["closed/" + substrate] = (run_closed, (substrate,), {})
        cases["open/" + substrate] = (run_open, (substrate,), {})
        cases["chaos/closed/" + substrate] = (
            run_cell, (), {"substrate": substrate})
        cases["obs/closed/" + substrate] = (
            obs_blob, (run_closed, substrate), {})
    cases["closed/nova/ycsb-f/seed3"] = (
        run_closed, ("nova",), {"workload": "ycsb-f", "seed": 3})
    cases["open/pmemkv/saturated"] = (
        run_open, ("pmemkv",), {"rate_kops": 4000.0})
    cases["chaos/open/lsm"] = (
        run_cell, (), {"mode": "open", "rate_kops": 400.0})
    cases["chaos/open/lsm/naive"] = (
        run_cell, (), {"mode": "open", "rate_kops": 400.0, "naive": True})
    cases["obs/open/pmemkv"] = (obs_blob, (run_open, "pmemkv"), {})
    cases["pmcheck/closed/lsm"] = (pmcheck_closed, (), {})
    return cases


CASES = _cases()


def run_case(name):
    fn, args, kwargs = CASES[name]
    return fn(*args, **kwargs)


def names(prefix):
    return sorted(n for n in CASES if n.startswith(prefix))


def check(name, observable=None):
    """Assert that a case (run now unless given) reproduces its golden."""
    if observable is None:
        observable = run_case(name)
    got, want = golden_entry(observable), golden(name)
    assert got == want, "%s: %r != recorded %r" % (name, got, want)


if __name__ == "__main__":
    import sys
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.golden.cases --record")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({name: golden_entry(run_case(name))
                   for name in sorted(CASES)},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
