"""The seven workloads.

Each workload class offers ``setup()`` (build whatever a window needs),
``window(state, log)`` (time exactly the section whose ops it counts and
return a :class:`Window`) and ``finish(state)`` (output checks that run
after the last window).  ``FRESH`` says whether every window gets its
own ``setup()``; ``run.py`` drives them all the same way.

Sizes are stated against the modelled 16 MiB LLC and 16 KiB XPBuffer;
``describe()`` prints every knob beside the numbers.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from random import Random

from perfbench import SRC
from perfbench.services import (
    SpanService, arrival_span_ns, expected_values, read_back, replay,
)
from perfbench.spans import request_ids, root_span
from perfbench.spec import KNOWN_DEVIATIONS, SUBSTRATES
from perfbench.timing import timed

from repro._units import CACHELINE, KIB, MIB
from repro.obs import ObsRecorder
from repro.obs.hist import LatencyHistogram
from repro.sim.platform import Machine
from repro.workloads import closed_loop, get_workload, make_service, open_loop
from repro.workloads.generators import WorkloadSpec, make_key
from repro.workloads.loadloop import preload

LLC_BYTES = 16 * MIB
XPBUFFER_BYTES = 16 * KIB


class Window:
    """What one timed window measured."""

    def __init__(self, wall_s, ops, sim_ns=0.0, hist=None, raw=None,
                 counts=None, failed=0, known=0, refused=0, parts=None,
                 fingerprint=None, user_write_bytes=0, sim_ops=None):
        self.wall_s = wall_s
        self.ops = ops
        # Requests the simulated clock covers, where that differs from
        # the host-side op count (chaos cells, CLI points).
        self.sim_ops = ops if sim_ops is None else sim_ops
        self.sim_ns = sim_ns
        self.hist = hist                  # simulated latency histogram
        self.raw = raw or {}              # summable device counters
        self.counts = counts or {}        # exact per-layer counts
        self.failed = failed              # unexcused failures
        self.known = known                # known-deviation failures
        self.refused = refused            # fault-injected refusals
        self.parts = parts or {}          # named wall components (s)
        self.fingerprint = fingerprint    # must repeat bit-for-bit
        self.user_write_bytes = user_write_bytes


class Checks:
    """Output checks made once, after the last window."""

    def __init__(self, attempted=0, failed=0, known=0, notes=(),
                 counts=None, outcomes=None):
        self.attempted = attempted
        self.failed = failed
        self.known = known
        self.notes = list(notes)
        self.counts = counts or {}
        self.outcomes = outcomes or {}


# -- device counters ---------------------------------------------------------

class CounterProbe:
    """Always-on public counters of one machine, as window deltas."""

    FIELDS = ("imc_read_bytes", "imc_write_bytes", "media_read_bytes",
              "media_write_bytes")

    def __init__(self, machine):
        self.machine = machine
        self.before = self._read()

    def _read(self):
        machine = self.machine
        out = dict.fromkeys(self.FIELDS, 0)
        out.update(cache_hits=0, cache_misses=0, xpb_hits=0, xpb_misses=0)
        for cache in machine.caches:
            out["cache_hits"] += cache.hits
            out["cache_misses"] += cache.misses
        for row in machine.optane:
            for _channel, dimm in row:
                for name in self.FIELDS:
                    out[name] += getattr(dimm.counters, name)
                out["xpb_hits"] += dimm.buffer.hits
                out["xpb_misses"] += dimm.buffer.misses
        out["migrations"] = machine.total_migrations()
        out["thermal_stalls"] = machine.total_thermal_stalls()
        return out

    def delta(self):
        after = self._read()
        return {k: after[k] - self.before[k] for k in after}


def add_raw(total, raw):
    for key, value in raw.items():
        total[key] = total.get(key, 0) + value
    return total


def device_counts(raw, ops):
    """The per-layer count rows derived from summed raw counters."""
    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0
    media_w = raw.get("media_write_bytes", 0)
    imc_w = raw.get("imc_write_bytes", 0)
    imc_lines = (raw.get("imc_read_bytes", 0) + imc_w) / CACHELINE
    return {
        "cache.hit_ratio": ratio(raw.get("cache_hits", 0),
                                 raw.get("cache_misses", 0)),
        "xpbuffer.hit_ratio": ratio(raw.get("xpb_hits", 0),
                                    raw.get("xpb_misses", 0)),
        "counters.imc_read_bytes": raw.get("imc_read_bytes", 0),
        "counters.imc_write_bytes": imc_w,
        "counters.media_read_bytes": raw.get("media_read_bytes", 0),
        "counters.media_write_bytes": media_w,
        "counters.ewr": imc_w / media_w if media_w else 0.0,
        "counters.migrations": raw.get("migrations", 0),
        "counters.thermal_stalls": raw.get("thermal_stalls", 0),
        "namespace.lines_per_op": imc_lines / ops if ops else 0.0,
    }


# -- serving helpers ---------------------------------------------------------

def build_service(substrate, spec, records, ops, seed):
    """A fresh machine with ``substrate`` preloaded; the serve set-up."""
    machine = Machine()
    service = make_service(substrate, machine, spec, records=records,
                           ops=ops, seed=seed)
    load_end = preload(service, machine, spec, records, seed=seed)
    return machine, service, load_end


def serve_closed(machine, service, spec, records, ops, clients, seed,
                 load_end, log=None):
    """One timed ``closed_loop`` call with a recorder attached.

    Returns ``(wall_s, report, recorder, device_raw)``.  With ``log``
    the service is wrapped in a :class:`SpanService` and the call in a
    root span.
    """
    obs = ObsRecorder(service.name, workload=spec.name)
    probe = CounterProbe(machine)
    served = service if log is None else SpanService(service)

    def call():
        with root_span(log, "loadloop.closed_loop") as root:
            report = closed_loop(
                machine, served, spec, records=records, ops=ops,
                clients=clients, seed=seed, load_end=load_end, obs=obs)
        return report, root

    wall, (report, root) = timed(call)
    raw = probe.delta()
    if log is not None:
        ops_by_client = [[req.op for req in requests] for requests
                         in replay(spec, records, seed, clients, ops)]
        log.add_calls(root, served.calls, service.name,
                      request_ids(served.calls, ops_by_client))
    return wall, report, obs, raw


def write_bytes(report, spec):
    by_type = report["ops_by_type"]
    return spec.value_size * sum(by_type.get(op, 0)
                                 for op in ("update", "insert", "rmw"))


def check_read_back(substrate, service, machine, model, keys=None):
    """Read back live, then after power failure and recovery.

    Returns a :class:`Checks`; mismatching keys are listed, never
    dropped, and a ``recover()`` that raises counts as one failure.
    """
    checked = len(model) if keys is None else len(keys)
    live = read_back(service, machine, model, keys)
    machine.power_fail()
    known = 0
    notes = []
    try:
        recovered, _report = service.recover()
    except MemoryError as exc:
        crashed = []
        bad = len(live) + 1
        attempted = checked + 1
        why = KNOWN_DEVIATIONS.get((substrate, "recover"))
        known = 1 if why else 0
        notes.append("read-back %s: recover() raised MemoryError(%s); "
                     "no read-back after the crash%s"
                     % (substrate, exc,
                        " [known deviation: %s]" % why if why else ""))
    else:
        crashed = read_back(recovered, machine, model, keys)
        bad = len(live) + len(crashed)
        attempted = 2 * checked
        why = KNOWN_DEVIATIONS.get((substrate, "crash-read-back"))
        known = len(crashed) if why else 0
        if bad:
            notes.append(
                "read-back %s: %d live / %d after power_fail+recover "
                "mismatch of %d keys%s"
                % (substrate, len(live), len(crashed), checked,
                   " [known deviation: %s]" % why
                   if why and crashed else ""))
        else:
            notes.append("read-back %s: %d keys clean, live and after "
                         "power_fail+recover" % (substrate, checked))
    for label, indices in (("live", live), ("crashed", crashed)):
        if indices:
            notes.append("  %s keys: %s" % (label, " ".join(
                make_key(i).decode() for i in indices)))
    return Checks(
        attempted=attempted, failed=bad - known, known=known, notes=notes,
        counts={"service.%s.readback_mismatches" % substrate: bad})


def merge_checks(parts):
    out = Checks()
    for part in parts:
        out.attempted += part.attempted
        out.failed += part.failed
        out.known += part.known
        out.notes.extend(part.notes)
        out.counts.update(part.counts)
        out.outcomes.update(part.outcomes)
    return out


class Workload:
    """What ``run.py`` drives: set-up, timed windows, final checks."""

    NAME = None
    #: Whether every window gets its own ``setup()``.
    FRESH = True

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp            # scratch directory inside the checkout

    def describe(self):
        raise NotImplementedError

    def setup(self):
        return None

    def window(self, state, log=None):
        raise NotImplementedError

    def finish(self, state):
        return Checks()


# -- serve-closed-write ------------------------------------------------------

class ServeClosedWrite(Workload):
    """Closed loop, LSM, YCSB-A: the persist path below the LLC size."""

    NAME = "serve-closed-write"
    SUBSTRATE = "lsm"
    SPEC = get_workload("ycsb-a")
    RECORDS = 4096
    OPS = 60000
    CLIENTS = 4

    def describe(self):
        size = self.RECORDS * self.SPEC.value_size
        return ("closed_loop %s on %s: %d records x %d B = %.1f MiB "
                "(%.2fx the %d MiB modelled LLC), %d requests/window, "
                "%d clients, %s %s, sync=True, seed %d"
                % (self.SPEC.name, self.SUBSTRATE, self.RECORDS,
                   self.SPEC.value_size, size / MIB, size / LLC_BYTES,
                   LLC_BYTES // MIB, self.OPS, self.CLIENTS,
                   self.SPEC.distribution, self.SPEC.description,
                   self.seed))

    def setup(self):
        return build_service(self.SUBSTRATE, self.SPEC, self.RECORDS,
                             self.OPS, self.seed)

    def window(self, state, log=None):
        machine, service, load_end = state
        wall, report, obs, raw = serve_closed(
            machine, service, self.SPEC, self.RECORDS, self.OPS,
            self.CLIENTS, self.seed, load_end, log)
        return Window(
            wall, report["ops"], sim_ns=report["sim_seconds"] * 1e9,
            hist=obs.hist, raw=raw,
            counts={"kvstore.tables": service.stats().get("tables", 0)},
            fingerprint=(report["sim_seconds"],
                         sorted(obs.hist.counts.items())),
            user_write_bytes=write_bytes(report, self.SPEC))

    def finish(self, state):
        machine, service, _ = state
        model = expected_values(
            self.SPEC, self.RECORDS,
            replay(self.SPEC, self.RECORDS, self.seed, self.CLIENTS,
                   self.OPS))
        return check_read_back(self.SUBSTRATE, service, machine, model)


# -- serve-instrumented ------------------------------------------------------

class ServeInstrumented(ServeClosedWrite):
    """The closed-write shape under pmcheck, then under a tracer."""

    NAME = "serve-instrumented"
    OPS = 30000

    def describe(self):
        return (ServeClosedWrite.describe(self)
                + "; each window = one run with PmCheck installed + one "
                  "with a telemetry tracer recording")

    def setup(self):
        from repro.pmcheck import PmCheck
        from repro.telemetry import Tracer, install
        machine = Machine()
        checker = PmCheck(machine).install()
        service = make_service(self.SUBSTRATE, machine, self.SPEC,
                               records=self.RECORDS, ops=self.OPS,
                               seed=self.seed)
        load_end = preload(service, machine, self.SPEC, self.RECORDS,
                           seed=self.seed)
        tracer = Tracer()
        previous = install(tracer)      # Machine() captures it
        try:
            traced = build_service(self.SUBSTRATE, self.SPEC,
                                   self.RECORDS, self.OPS, self.seed)
        except BaseException:
            install(previous)
            raise
        return ((machine, service, load_end, checker),
                (traced, tracer, previous))

    def window(self, state, log=None):
        from repro.telemetry import install
        (machine, service, load_end, checker), \
            ((t_machine, t_service, t_load_end), tracer, previous) = state
        try:
            wall_pm, report, obs, raw = serve_closed(
                machine, service, self.SPEC, self.RECORDS, self.OPS,
                self.CLIENTS, self.seed, load_end, log)
            wall_tr, t_report, t_obs, t_raw = serve_closed(
                t_machine, t_service, self.SPEC, self.RECORDS, self.OPS,
                self.CLIENTS, self.seed, t_load_end, log)
        finally:
            install(previous)
            checker.uninstall()
        violations = checker.summary()["total"]
        # Instrumentation must observe, not perturb: both arms have to
        # agree on every simulated number.
        agree = (report["sim_seconds"] == t_report["sim_seconds"]
                 and obs.hist == t_obs.hist)
        hist = obs.hist.copy().merge(t_obs.hist)
        return Window(
            wall_pm + wall_tr, report["ops"] + t_report["ops"],
            sim_ns=(report["sim_seconds"] + t_report["sim_seconds"]) * 1e9,
            hist=hist, raw=add_raw(dict(raw), t_raw),
            counts={"kvstore.tables": service.stats().get("tables", 0),
                    "pmcheck.violations": violations,
                    "telemetry.dropped_events": tracer.dropped},
            failed=violations + (0 if agree else 1),
            parts={"pmcheck": wall_pm, "telemetry": wall_tr},
            fingerprint=(report["sim_seconds"], sorted(hist.counts.items()),
                         violations, tracer.dropped),
            user_write_bytes=write_bytes(report, self.SPEC)
            + write_bytes(t_report, self.SPEC))

    def finish(self, state):
        (machine, service, _, _), _ = state
        return ServeClosedWrite.finish(self, (machine, service, None))


# -- serve-substrates-rmw ----------------------------------------------------

class ServeSubstratesRmw(Workload):
    """Closed loop, YCSB-F, on NOVA then PMDK: the two slowest hosts."""

    NAME = "serve-substrates-rmw"
    SPEC = get_workload("ycsb-f")
    RECORDS = 4096
    CLIENTS = 2
    SHAPES = (("nova", 8000), ("pmdk", 20000))

    def describe(self):
        size = self.RECORDS * self.SPEC.value_size
        return ("closed_loop %s: %s; %d records x %d B = %.1f MiB "
                "(%.2fx the modelled LLC), %d clients, %s, sync=True, "
                "seed %d"
                % (self.SPEC.name,
                   " then ".join("%s %d requests/window" % shape
                                 for shape in self.SHAPES),
                   self.RECORDS, self.SPEC.value_size, size / MIB,
                   size / LLC_BYTES, self.CLIENTS, self.SPEC.description,
                   self.seed))

    def setup(self):
        return [build_service(sub, self.SPEC, self.RECORDS, ops, self.seed)
                for sub, ops in self.SHAPES]

    def window(self, state, log=None):
        wall = sim_s = 0.0
        ops = user_bytes = 0
        hist = LatencyHistogram()
        raw = {}
        parts = {}
        for (sub, sub_ops), (machine, service, load_end) \
                in zip(self.SHAPES, state):
            sub_wall, report, obs, sub_raw = serve_closed(
                machine, service, self.SPEC, self.RECORDS, sub_ops,
                self.CLIENTS, self.seed, load_end, log)
            wall += sub_wall
            parts[sub] = sub_wall
            ops += report["ops"]
            sim_s += report["sim_seconds"]
            hist.merge(obs.hist)
            add_raw(raw, sub_raw)
            user_bytes += write_bytes(report, self.SPEC)
        return Window(wall, ops, sim_ns=sim_s * 1e9, hist=hist, raw=raw,
                      parts=parts,
                      fingerprint=(sim_s, sorted(hist.counts.items())),
                      user_write_bytes=user_bytes)

    def finish(self, state):
        checks = []
        for (sub, sub_ops), (machine, service, _) in zip(self.SHAPES,
                                                         state):
            model = expected_values(
                self.SPEC, self.RECORDS,
                replay(self.SPEC, self.RECORDS, self.seed, self.CLIENTS,
                       sub_ops))
            checks.append(check_read_back(sub, service, machine, model))
        return merge_checks(checks)


# -- serve-open-read ---------------------------------------------------------

class ServeOpenRead(Workload):
    """Open loop, PMemKV, pure reads over a set larger than the LLC."""

    NAME = "serve-open-read"
    FRESH = False         # one 32 MiB preload per run; windows share it
    SUBSTRATE = "pmemkv"
    SPEC = WorkloadSpec(
        name="perfbench-read-1k", mix=(("read", 1.0),),
        distribution="uniform", value_size=1024,
        description="100% read, uniform, 1 KiB values")
    RECORDS = 32768
    OPS = 10000
    WORKERS = 4
    RATE_KOPS = 3000.0
    WARM_OPS = 32768
    LADDER_KOPS = (1000.0, 2000.0, 3000.0, 4000.0, 6000.0)
    LADDER_OPS = 3000
    SLO_P99_US = 1.0
    READ_BACK_KEYS = 4096

    def __init__(self, seed, tmp):
        Workload.__init__(self, seed, tmp)
        self.windows = 0
        self.rung = None          # the RATE_KOPS rung = window 0

    def describe(self):
        size = self.RECORDS * self.SPEC.value_size
        return ("open_loop %s on %s: %d records x %d B = %d MiB "
                "(%.1fx the %d MiB modelled LLC), %d requests/window at "
                "%.0f kops offered, %d workers, %s, %d warm-up reads "
                "fill the modelled LLC first, ladder %s kops x %d "
                "requests, seed %d"
                % (self.SPEC.name, self.SUBSTRATE, self.RECORDS,
                   self.SPEC.value_size, size // MIB, size / LLC_BYTES,
                   LLC_BYTES // MIB, self.OPS, self.RATE_KOPS,
                   self.WORKERS, self.SPEC.description, self.WARM_OPS,
                   "/".join("%.0f" % r for r in self.LADDER_KOPS),
                   self.LADDER_OPS, self.seed))

    def _serve(self, state, ops, rate, stream_seed, log=None):
        """One ``open_loop`` call continuing the machine's clock."""
        machine, service = state["machine"], state["service"]
        obs = ObsRecorder(service.name, workload=self.SPEC.name)
        probe = CounterProbe(machine)
        served = service if log is None else SpanService(service)

        def call():
            with root_span(log, "loadloop.open_loop") as root:
                report = open_loop(
                    machine, served, self.SPEC, records=self.RECORDS,
                    ops=ops, rate_kops=rate, workers=self.WORKERS,
                    seed=stream_seed, load_end=state["clock"], obs=obs)
            return report, root

        wall, (report, root) = timed(call)
        raw = probe.delta()
        state["clock"] += report["sim_seconds"] * 1e9
        if log is not None:
            # Every request is one get, so per-worker sequence numbers
            # need no replay of which worker drew which request.
            log.add_calls(root, served.calls, service.name,
                          request_ids(served.calls,
                                      [["read"] * ops] * self.WORKERS))
        return wall, report, obs, raw

    def setup(self):
        machine, service, load_end = build_service(
            self.SUBSTRATE, self.SPEC, self.RECORDS, self.OPS, self.seed)
        state = {"machine": machine, "service": service,
                 "clock": load_end}
        # Fill the modelled LLC (preload stores do not): statistics
        # start after the cache model has reached its steady size.
        self._serve(state, self.WARM_OPS, self.RATE_KOPS, self.seed * 64)
        return state

    def window(self, state, log=None):
        self.windows += 1
        wall, report, obs, raw = self._serve(
            state, self.OPS, self.RATE_KOPS, self.seed * 64 + self.windows,
            log)
        if self.rung is None:
            self.rung = (self.RATE_KOPS, self.seed * 64 + self.windows,
                         report, obs)
        peak = report["busy_workers_peak"]
        return Window(
            wall, report["ops"], sim_ns=report["sim_seconds"] * 1e9,
            hist=obs.hist, raw=raw,
            counts={"loadloop.open.busy_workers_peak": peak})

    def finish(self, state):
        from perfbench.timing import percentile
        notes = ["rate ladder (nominal kops: arrived -> achieved kops, "
                 "p99 us; meets p99 <= %.1f us with achieved >= 0.99 x "
                 "arrived, i.e. no growing backlog):" % self.SLO_P99_US]
        best = 0.0
        for step, rate in enumerate(self.LADDER_KOPS):
            if rate == self.rung[0]:
                _, stream_seed, report, obs = self.rung
            else:
                stream_seed = self.seed * 64 + 32 + step
                _, report, obs, _ = self._serve(
                    state, self.LADDER_OPS, rate, stream_seed)
            span = arrival_span_ns(stream_seed, rate, report["ops"])
            elapsed = report["sim_seconds"] * 1e9
            if elapsed < span:
                raise RuntimeError(
                    "arrival replay out of step with open_loop: last "
                    "arrival %.1f ns after a %.1f ns run" % (span, elapsed))
            arrived = report["ops"] / span * 1e6
            p99 = percentile(obs.hist, 0.99) / 1e3
            meets = (p99 <= self.SLO_P99_US
                     and report["achieved_kops"] >= 0.99 * arrived)
            if meets:
                best = max(best, rate)
            notes.append("  %6.0f: %8.1f -> %8.1f  p99 %.3f us  n=%d  %s"
                         % (rate, arrived, report["achieved_kops"], p99,
                            report["ops"], "ok" if meets else "MISS"))
        keys = sorted(Random(self.seed).sample(range(self.RECORDS),
                                               self.READ_BACK_KEYS))
        model = expected_values(self.SPEC, self.RECORDS, [])
        notes.append("read-back samples %d of %d keys (a full pass "
                     "costs more host time than the windows)"
                     % (len(keys), self.RECORDS))
        checks = check_read_back(self.SUBSTRATE, state["service"],
                                 state["machine"], model, keys)
        ladder = Checks(notes=notes,
                        outcomes={"max_kops_at_slo": best})
        return merge_checks([ladder, checks])


# -- device-sweep ------------------------------------------------------------

#: The 23 paper-vs-measured headline numbers of scripts/calibrate.py:
#: (section, label, paper value, measurement).
def headline_numbers():
    from repro.lattester.bandwidth import measure_bandwidth
    from repro.lattester.ewr import ewr_experiment
    from repro.lattester.latency import read_latency, write_latency

    def bw(kind, op, threads, per_thread=96 * KIB):
        return measure_bandwidth(kind=kind, op=op, threads=threads,
                                 per_thread=per_thread).gbps

    def ratio(kind, op, threads):
        return 100.0 * bw(kind + "-remote", op, threads, 64 * KIB) \
            / bw(kind, op, threads, 64 * KIB)

    return (
        ("latency", "DRAM read seq", 81,
         lambda: read_latency("dram", "seq").mean_ns),
        ("latency", "DRAM read rand", 101,
         lambda: read_latency("dram", "rand").mean_ns),
        ("latency", "Optane read seq", 169,
         lambda: read_latency("optane", "seq").mean_ns),
        ("latency", "Optane read rand", 305,
         lambda: read_latency("optane", "rand").mean_ns),
        ("latency", "DRAM store+clwb+fence", 57,
         lambda: write_latency("dram", "clwb").mean_ns),
        ("latency", "Optane store+clwb+fence", 62,
         lambda: write_latency("optane", "clwb").mean_ns),
        ("latency", "DRAM ntstore+fence", 86,
         lambda: write_latency("dram", "ntstore").mean_ns),
        ("latency", "Optane ntstore+fence", 90,
         lambda: write_latency("optane", "ntstore").mean_ns),
        ("bandwidth", "Optane-NI read x4", 6.6,
         lambda: bw("optane-ni", "read", 4)),
        ("bandwidth", "Optane-NI ntstore x1", 2.3,
         lambda: bw("optane-ni", "ntstore", 1)),
        ("bandwidth", "Optane-NI ntstore x8", 1.2,
         lambda: bw("optane-ni", "ntstore", 8)),
        ("bandwidth", "Optane-NI clwb x1", 1.8,
         lambda: bw("optane-ni", "clwb", 1)),
        ("bandwidth", "Optane read x24", 38.0,
         lambda: bw("optane", "read", 24)),
        ("bandwidth", "Optane ntstore x4", 11.0,
         lambda: bw("optane", "ntstore", 4)),
        ("bandwidth", "Optane clwb x12", 12.0,
         lambda: bw("optane", "clwb", 12)),
        ("bandwidth", "DRAM read x24", 105.0,
         lambda: bw("dram", "read", 24)),
        ("bandwidth", "DRAM ntstore x24", 57.0,
         lambda: bw("dram", "ntstore", 24)),
        ("bandwidth", "DRAM clwb x24", 85.0,
         lambda: bw("dram", "clwb", 24)),
        ("ewr", "64B random ntstore x1 (x100)", 25,
         lambda: 100 * ewr_experiment(access=64).ewr),
        ("ewr", "256B random ntstore x1 (x100)", 98,
         lambda: 100 * ewr_experiment(access=256).ewr),
        ("ewr", "seq ntstore x8 (x100)", 62,
         lambda: 100 * ewr_experiment(access=256, pattern="seq",
                                      threads=8,
                                      per_thread=64 * KIB).ewr),
        ("numa", "remote/local read x16 (x100)", 59.2,
         lambda: ratio("optane", "read", 16)),
        ("numa", "remote/local write x4 (x100)", 61.7,
         lambda: ratio("optane", "ntstore", 4)),
    )


def fidelity():
    """Paper-vs-measured errors: ``(metrics, printable lines)``.

    The reference is the paper's published value; the error of one
    number is ``|measured / paper - 1|``.
    """
    errors = {}
    lines = ["fidelity (measured vs the paper's published values):"]
    for section, label, paper, measure in headline_numbers():
        measured = measure()
        err = abs(measured / paper - 1.0)
        errors.setdefault(section, []).append(err)
        lines.append("  %-34s %9.2f  paper %7.1f  err %5.1f%%"
                     % (label, measured, paper, 100.0 * err))
    flat = [e for errs in errors.values() for e in errs]
    metrics = {"fidelity.%s_err" % section: sum(errs) / len(errs)
               for section, errs in errors.items()}
    metrics["fidelity.worst_err"] = max(flat)
    metrics["fidelity_err"] = sum(flat) / len(flat)
    lines.append("  fidelity_err (mean of %d) %.4f, worst %.4f"
                 % (len(flat), metrics["fidelity_err"],
                    metrics["fidelity.worst_err"]))
    return metrics, lines


class DeviceSweep(Workload):
    """LATTester only: the quick sweep grid plus seeded idle latency."""

    NAME = "device-sweep"
    PER_THREAD = 64 * KIB
    SAMPLES = 10000
    SPAN = 32 * MIB

    def describe(self):
        return ("sweep_grid(QUICK_GRID, per_thread=%d KiB): 162 points "
                "(1/4/16 threads x read/ntstore/clwb x seq/rand x 3 "
                "kinds x 64/256/4096 B), per-thread region %dx the "
                "%d KiB XPBuffer; then %d fenced 8 B loads at "
                "seed-%d random lines of a %d MiB region (%dx the "
                "modelled LLC, cache starts empty)"
                % (self.PER_THREAD // KIB,
                   self.PER_THREAD // XPBUFFER_BYTES,
                   XPBUFFER_BYTES // KIB, self.SAMPLES, self.seed,
                   self.SPAN // MIB, self.SPAN // LLC_BYTES))

    def setup(self):
        rng = Random(self.seed)
        slots = self.SPAN // CACHELINE
        return (Machine(), [rng.randrange(slots) * CACHELINE
                            for _ in range(self.SAMPLES)])

    def window(self, state, log=None):
        from repro.lattester.bandwidth import clear_point_memo
        from repro.lattester.sweep import QUICK_GRID, sweep_grid
        machine, addrs = state
        clear_point_memo()
        marks = [0]

        def sweep():
            # One child span per grid point, cut at the progress
            # callback the sweep already offers.
            with root_span(log, "lattester.sweep_grid") as root:
                marks[0] = time.perf_counter_ns()
                recs = sweep_grid(
                    dict(QUICK_GRID), per_thread=self.PER_THREAD,
                    progress=None if log is None else
                    lambda rec: marks.append(time.perf_counter_ns()))
            return recs, root

        sweep_wall, (records, root) = timed(sweep)
        for start, end, rec in zip(marks, marks[1:], records):
            log.add("lattester.point.%s.%s" % (rec["kind"], rec["op"]),
                    root, start, end, 0.0, rec["elapsed_ns"])
        lines = sum(self.PER_THREAD // CACHELINE * rec["threads"]
                    for rec in records)
        sweep_sim = sum(rec["elapsed_ns"] for rec in records)

        # The lattester.read_latency loop, over seeded addresses.
        ns = machine.namespace("optane")
        thread = machine.thread().collect_latencies()
        probe = CounterProbe(machine)

        def chase():
            load = ns.load
            fence = thread.mfence
            with root_span(log, "lattester.idle_latency"):
                for addr in addrs:
                    load(thread, addr, 8)
                    fence()

        lat_wall, _ = timed(chase)
        hist = LatencyHistogram()
        hist.record_many(thread.latencies)
        return Window(
            sweep_wall + lat_wall, lines + len(addrs),
            sim_ns=sweep_sim + thread.now, hist=hist, raw=probe.delta(),
            counts={"lattester.points": len(records)},
            parts={"sweep_grid": sweep_wall, "idle_latency": lat_wall},
            fingerprint=(sweep_sim, thread.now,
                         [(r["gbps"], r["ewr"]) for r in records]))

    def finish(self, state):
        metrics, lines = fidelity()
        self.fidelity_metrics = metrics      # layers.py reuses them
        return Checks(notes=lines, counts={
            k: v for k, v in metrics.items() if k != "fidelity_err"},
            outcomes={"fidelity_err": metrics["fidelity_err"]})


# -- chaos-recover -----------------------------------------------------------

class ChaosRecover(Workload):
    """Eight chaos cells: four substrates x {power-fail, poison}."""

    NAME = "chaos-recover"
    SCENARIOS = ("power-fail", "poison")

    def __init__(self, seed, tmp):
        from repro.chaos_serve.matrix import FULL_SHAPE
        Workload.__init__(self, seed, tmp)
        self.shape = dict(FULL_SHAPE)
        self.last = None

    def describe(self):
        return ("chaos_serve_cell x %d: %s x %s, closed mode, ycsb-a, "
                "FULL_SHAPE %d records x 100 B (%.0f KiB, %.3fx the "
                "modelled LLC), %d requests, %d clients, sync=True, "
                "seed %d; each cell builds, preloads, serves, crashes, "
                "recovers and audits its own machine"
                % (len(SUBSTRATES) * len(self.SCENARIOS),
                   "/".join(SUBSTRATES), "/".join(self.SCENARIOS),
                   self.shape["records"],
                   self.shape["records"] * 100 / KIB,
                   self.shape["records"] * 100 / LLC_BYTES,
                   self.shape["ops"], self.shape["clients"], self.seed))

    def setup(self):
        return [dict(self.shape, workload="ycsb-a", substrate=sub,
                     scenario=scenario, mode="closed", naive=False,
                     seed=self.seed)
                for sub in SUBSTRATES for scenario in self.SCENARIOS]

    def window(self, state, log=None):
        from repro.chaos_serve import chaos_serve_cell
        records = []

        def cells():
            for payload in state:
                with root_span(log, "chaos_serve.cell.%s.%s"
                               % (payload["substrate"],
                                  payload["scenario"])):
                    records.append(chaos_serve_cell(payload))
        wall, _ = timed(cells)
        self.last = records
        hist = LatencyHistogram()
        sim_s = 0.0
        served = failed = known = refused = 0
        counts = dict.fromkeys(
            ["chaos_serve." + k for k in (
                "violations", "recoveries", "crashes", "retries", "shed",
                "breaker_transitions")]
            + ["chaos_serve.%s.violations" % s for s in SUBSTRATES], 0)
        for rec in records:
            sim_s += rec["served"]["sim_seconds"]
            served += rec["served"]["ops"]
            if "obs" in rec:
                hist.merge(LatencyHistogram.from_dict(rec["obs"]["hist"]))
            nviol = len(rec["violations"])
            if (rec["substrate"], "oracle") in KNOWN_DEVIATIONS:
                known += nviol
            else:
                failed += nviol
            refused += sum(n for disp, n in rec["results"].items()
                           if disp != "ok")
            counts["chaos_serve.violations"] += nviol
            counts["chaos_serve.%s.violations" % rec["substrate"]] += nviol
            counts["chaos_serve.recoveries"] += len(rec["recoveries"])
            counts["chaos_serve.crashes"] += rec["faults"]["crashes"]
            counts["chaos_serve.retries"] += rec["degrade"]["retries"]
            counts["chaos_serve.shed"] += rec["degrade"]["shed"]
            counts["chaos_serve.breaker_transitions"] += \
                rec["breaker"]["transitions"]
        return Window(
            wall, sum(p["ops"] for p in state), sim_ns=sim_s * 1e9,
            hist=hist, counts=counts, failed=failed, known=known,
            refused=refused, sim_ops=served,
            fingerprint=(sim_s, served, sorted(counts.items())))

    def finish(self, state):
        notes = []
        for rec in self.last or ():
            bad = sum(n for d, n in rec["results"].items() if d != "ok")
            if not rec["violations"] and not bad:
                continue
            notes.append(
                "cell %s/%s: %d oracle violations, %d requests not ok "
                "%s%s" % (rec["substrate"], rec["scenario"],
                          len(rec["violations"]), bad, rec["results"],
                          " [known deviation]"
                          if (rec["substrate"], "oracle")
                          in KNOWN_DEVIATIONS
                          and rec["violations"] else ""))
            keys = sorted({v["key"] for v in rec["violations"]})
            if keys:
                notes.append("  violating keys: %s" % keys)
        return Checks(notes=notes)


# -- cli-cold ----------------------------------------------------------------

class CliCold(Workload):
    """Whole commands, as users type them, on a fresh cache directory."""

    NAME = "cli-cold"
    IMPORT_PROBE = "import repro.__main__"
    # Not ycsb-a: on the CLI's fixed 512-record shape its 50/50 mix
    # leaves the median request on the empty stretch between the read
    # and the update mode, so sim_p50_us moved 24 % from seed to seed.
    SERVE_WORKLOAD = "ycsb-b"

    def __init__(self, seed, tmp):
        Workload.__init__(self, seed, tmp)
        self.rounds = 0
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("REPRO_FASTPATH", None)
        self.env.pop("REPRO_OBS", None)

    def describe(self):
        return ("per window: `python -m repro sweep --quick --jobs 1` "
                "cold, the same again from the cache (CSVs must be "
                "equal), `python -m repro serve %s lsm --jobs 1 "
                "--seed %d` cold; fresh REPRO_CACHE_DIR each window; "
                "op = one harness point computed or replayed"
                % (self.SERVE_WORKLOAD, self.seed))

    def setup(self):
        self.rounds += 1
        work = os.path.join(self.tmp, "cli-%d" % self.rounds)
        os.makedirs(work)
        return work

    def _run(self, work, *args):
        env = dict(self.env, REPRO_CACHE_DIR=os.path.join(work, "cache"))
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro"] + list(args), cwd=work,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        return time.perf_counter() - started, proc

    def window(self, state, log=None):
        work = state
        failed = 0
        parts = {}
        points = 0
        commands = (
            ("cold_sweep", ("sweep", "--quick", "--jobs", "1",
                            "--out", "cold.csv")),
            ("cached_rerun", ("sweep", "--quick", "--jobs", "1",
                              "--out", "cached.csv")),
            ("cold_serve", ("serve", self.SERVE_WORKLOAD, "lsm",
                            "--jobs", "1",
                            "--seed", str(self.seed),
                            "--out", "serve.json")),
        )
        for name, args in commands:
            with root_span(log, "harness.cli." + name):
                wall, proc = self._run(work, *args)
            parts[name] = wall
            if proc.returncode != 0:
                failed += 1
                sys.stdout.write(proc.stdout.decode(errors="replace"))
        with open(os.path.join(work, "cold.csv"), "rb") as fh:
            cold = fh.read()
        with open(os.path.join(work, "cached.csv"), "rb") as fh:
            cached = fh.read()
        if cold != cached:
            failed += 1
        points += 2 * (cold.count(b"\n") - 1)
        manifest_path = os.path.join(work, "serve.json.manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        points += len(manifest["points"])
        closed = [p for p in manifest["points"]
                  if p["params"].get("mode") == "closed"][0]
        with open(os.path.join(work, closed["obs"])) as fh:
            hist = LatencyHistogram.from_dict(json.load(fh)["hist"])
        record = closed["record"]
        shutil.rmtree(work, ignore_errors=True)
        return Window(
            sum(parts.values()), points,
            sim_ns=record["sim_seconds"] * 1e9, hist=hist, failed=failed,
            parts=parts, sim_ops=record["ops"],
            fingerprint=(cold, record["sim_seconds"],
                         sorted(hist.counts.items())))


WORKLOADS = {cls.NAME: cls for cls in (
    ServeClosedWrite, ServeOpenRead, ServeSubstratesRmw, DeviceSweep,
    ChaosRecover, ServeInstrumented, CliCold)}
