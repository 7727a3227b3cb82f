"""Per-layer isolation loops: each layer's public functions, timed alone.

A traced run calls :func:`measure_all`, which runs every ``@layer``
function below and checks that each returned exactly the names it
declared.  Timings are host nanoseconds per call, medians of three
repetitions; ``.sim_ns`` rows are the simulated cost of the same calls
and must not move under a simulator-speed change.  Counts a workload
measures itself (read-back mismatches, chaos tallies, checker
violations) override the isolation defaults in ``run.py``.

Every function a loop times is looked up through
:func:`perfbench.timing.require`, so a renamed or removed public
function stops the run with the metric's name instead of dropping a
row.
"""

import statistics
import time
from random import Random

from perfbench.services import NullService, read_back
from perfbench.spec import SUBSTRATES
from perfbench.timing import loop_ns, require, timed
from perfbench.workloads import (
    CliCold, build_service, device_counts, fidelity,
)

from repro._units import CACHELINE, KIB, MIB

#: ``[(function, emitted names)]`` in execution order.
LAYERS = []

#: Rows ``run.py`` fills from the workload's own window and checks.
DEVICE_COUNTS = tuple(device_counts({}, 0))
RUN_ROWS = ("trace.overhead_ratio",)

#: Canonical isolation shape where the workload has none of its own.
CANON_RECORDS = 4096


def layer(*emits):
    def register(fn):
        LAYERS.append((fn, emits))
        return fn
    return register


def declared_names():
    """Every per-layer name the code emits (outcome rows excluded)."""
    names = [name for _, emits in LAYERS for name in emits]
    names.extend(DEVICE_COUNTS)
    names.extend(RUN_ROWS)
    return names


def canon_spec():
    """YCSB-A: the isolation spec where the workload has none."""
    from repro.workloads import get_workload
    return get_workload("ycsb-a")


class Context:
    """What the loops need to know about the run they belong to."""

    def __init__(self, workload, first, tmp):
        self.workload = workload
        self.first = first            # the first untraced window
        self.tmp = tmp
        self.seed = workload.seed

    def service_under_test(self, substrate):
        """``(machine, service, spec, records, clock)`` for one substrate.

        The workload's own spec where it serves that substrate, the
        canonical one otherwise; always ``CANON_RECORDS`` records (the
        32 MiB store is not preloaded a second time) and no insert
        head-room, since the loops only overwrite preloaded keys.
        """
        spec = canon_spec()
        served = getattr(self.workload, "SUBSTRATE", None)
        shapes = dict(getattr(self.workload, "SHAPES", ()))
        if served == substrate or substrate in shapes:
            spec = self.workload.SPEC
        machine, service, clock = build_service(
            substrate, spec, CANON_RECORDS, 0, self.seed)
        return machine, service, spec, CANON_RECORDS, clock


def measure_all(workload, first, tmp):
    ctx = Context(workload, first, tmp)
    out = {}
    for fn, emits in LAYERS:
        rows = fn(ctx)
        if set(rows) != set(emits):
            raise RuntimeError(
                "layer %s emitted %s, declared %s"
                % (fn.__name__, sorted(rows), sorted(emits)))
        out.update(rows)
    return out


#: Calls per isolation loop (service-level loops use a quarter).
LOOP = 20000


# -- generators --------------------------------------------------------------

@layer("generators.next_requests.wall_ns_per_req",
       "generators.make_value.wall_ns",
       "generators.zipf_next_n.wall_ns_per_key")
def generators(ctx):
    from repro.workloads import generators as gen
    spec = canon_spec()
    stream_cls = require(gen, "RequestStream",
                         "generators.next_requests.wall_ns_per_req")
    require(stream_cls, "next_requests",
            "generators.next_requests.wall_ns_per_req")
    make_value = require(gen, "make_value", "generators.make_value.wall_ns")
    zipf_cls = require(gen, "ZipfianGenerator",
                       "generators.zipf_next_n.wall_ns_per_key")
    require(zipf_cls, "next_n", "generators.zipf_next_n.wall_ns_per_key")

    def values(rep):
        for index in range(LOOP):
            make_value(spec, index, rep)

    return {
        "generators.next_requests.wall_ns_per_req": loop_ns(
            lambda rep: stream_cls(spec, CANON_RECORDS, seed=ctx.seed,
                                   client=rep),
            lambda stream: stream.next_requests(LOOP), LOOP),
        "generators.make_value.wall_ns": loop_ns(
            lambda rep: rep, values, LOOP),
        "generators.zipf_next_n.wall_ns_per_key": loop_ns(
            lambda rep: zipf_cls(CANON_RECORDS, seed=ctx.seed + rep),
            lambda zipf: zipf.next_n(LOOP), LOOP),
    }


# -- loadloop ----------------------------------------------------------------

@layer("loadloop.null_service.wall_ns_per_req",
       "loadloop.closed.self_wall_ns_per_req",
       "loadloop.open.self_wall_ns_per_req",
       "loadloop.open.busy_workers_peak")
def loadloop(ctx):
    from repro.sim.platform import Machine
    from repro.workloads import loadloop as ll
    from repro.workloads.generators import RequestStream, make_value
    closed_loop = require(ll, "closed_loop",
                          "loadloop.closed.self_wall_ns_per_req")
    open_loop = require(ll, "open_loop",
                        "loadloop.open.self_wall_ns_per_req")
    spec = canon_spec()
    clients = 4

    def machine(rep):
        return Machine(), ctx.seed + rep

    def closed(state):
        closed_loop(state[0], NullService(), spec, records=CANON_RECORDS,
                    ops=LOOP, clients=clients, seed=state[1],
                    load_end=0.0)

    def opened(state):
        open_loop(state[0], NullService(), spec, records=CANON_RECORDS,
                  ops=LOOP, rate_kops=1000.0, workers=clients,
                  seed=state[1], load_end=0.0)

    def streams(rep):
        return [RequestStream(spec, CANON_RECORDS, seed=ctx.seed + rep,
                              client=c) for c in range(clients)]

    def replay_batched(streams):
        # What closed_loop asks of the generators: batches per client,
        # a value per write.
        for stream in streams:
            for req in stream.next_requests(LOOP // clients):
                if req.op != "read":
                    make_value(spec, req.key_index, req.version)

    def replay_single(streams):
        # What open_loop asks: one next_request per arrival.
        for i in range(LOOP):
            req = streams[i % clients].next_request()
            if req.op != "read":
                make_value(spec, req.key_index, req.version)

    null_closed = loop_ns(machine, closed, LOOP)
    null_open = loop_ns(machine, opened, LOOP)
    return {
        "loadloop.null_service.wall_ns_per_req": null_closed,
        "loadloop.closed.self_wall_ns_per_req":
            null_closed - loop_ns(streams, replay_batched, LOOP),
        "loadloop.open.self_wall_ns_per_req":
            null_open - loop_ns(streams, replay_single, LOOP),
        # A count of the workload's own open loop; none here.
        "loadloop.open.busy_workers_peak": 0,
    }


# -- service adapters --------------------------------------------------------

def _service_names():
    return tuple("service.%s.%s" % (sub, row) for sub in SUBSTRATES
                 for row in ("get.wall_ns", "put.wall_ns", "get.sim_ns",
                             "put.sim_ns", "recover.wall_ms",
                             "readback_mismatches"))


@layer(*_service_names())
def service(ctx):
    from repro.workloads.generators import (
        RequestStream, make_key, make_value,
    )
    calls = LOOP // 4
    out = {}
    for sub in SUBSTRATES:
        machine, svc, spec, records, clock = ctx.service_under_test(sub)
        prefix = "service.%s." % sub
        get = require(svc, "get", prefix + "get.wall_ns")
        put = require(svc, "put", prefix + "put.wall_ns")
        recover = require(svc, "recover", prefix + "recover.wall_ms")
        thread = machine.thread()
        thread.now = clock
        sim = {}
        model = {}

        def keys(rep):
            # The spec's own key distribution; a fresh stream per
            # repetition, so no repetition replays a warm key list.
            stream = RequestStream(spec, records, seed=ctx.seed,
                                   client=100 + rep)
            return rep, [req.key_index % records
                         for req in stream.next_requests(calls)]

        def gets(state):
            before = thread.now
            for index in state[1]:
                get(thread, make_key(index))
            sim.setdefault("get", (thread.now - before) / calls)

        def puts(state):
            rep, indices = state
            before = thread.now
            for index in indices:
                value = make_value(spec, index, 1000 + rep)
                put(thread, make_key(index), value)
                model[index] = {value}
            sim.setdefault("put", (thread.now - before) / calls)

        out[prefix + "get.wall_ns"] = loop_ns(keys, gets, calls)
        out[prefix + "put.wall_ns"] = loop_ns(keys, puts, calls)
        out[prefix + "get.sim_ns"] = sim["get"]
        out[prefix + "put.sim_ns"] = sim["put"]
        live = read_back(svc, machine, model)
        machine.power_fail()
        wall, (recovered, _report) = timed(recover)
        out[prefix + "recover.wall_ms"] = wall * 1e3
        out[prefix + "readback_mismatches"] = len(live) + len(
            read_back(recovered, machine, model))
    return out


# -- kvstore -----------------------------------------------------------------

@layer("kvstore.wal.append.wall_ns", "kvstore.flush.wall_ms",
       "kvstore.compact.wall_ms", "kvstore.tables")
def kvstore(ctx):
    from repro.kvstore.lsm import LSMStore
    from repro.sim.platform import Machine
    from repro.workloads.generators import make_key, make_value
    spec = canon_spec()
    calls = LOOP // 4
    pairs = [(make_key(i), make_value(spec, i, 1)) for i in range(calls)]

    def store(rep):
        machine = Machine()
        lsm = LSMStore(machine, seed=ctx.seed)
        return lsm, machine.thread()

    def appends(state):
        lsm, thread = state
        append = require(lsm.wal, "append", "kvstore.wal.append.wall_ns")
        for key, value in pairs:
            append(thread, key, value, sync=True)

    flushes = []
    compacts = []
    for rep in range(3):
        lsm, thread = store(rep)
        flush = require(lsm, "flush", "kvstore.flush.wall_ms")
        compact = require(lsm, "compact", "kvstore.compact.wall_ms")
        version = 0
        for _table in range(3):
            # Stay under the memtable threshold so put() itself never
            # flushes; the timed call below does.
            for index in range(1500):
                version += 1
                lsm.put(thread, make_key(index),
                        make_value(spec, index, version), sync=True)
            wall, _ = timed(lambda: flush(thread))
            flushes.append(wall * 1e3)
        wall, _ = timed(lambda: compact(thread))
        compacts.append(wall * 1e3)
    return {
        "kvstore.wal.append.wall_ns": loop_ns(store, appends, calls),
        "kvstore.flush.wall_ms": statistics.median(flushes),
        "kvstore.compact.wall_ms": statistics.median(compacts),
        # A count of the workload's own LSM store; none here.
        "kvstore.tables": 0,
    }


# -- namespace ---------------------------------------------------------------

NAMESPACE_OPS = ("load_hit", "load_miss", "load_run", "store_clwb",
                 "ntstore", "ntstore_run", "pwrite", "pread")


def _namespace_names():
    names = ["namespace.%s.%s" % (op, row) for op in NAMESPACE_OPS
             for row in ("wall_ns_per_line", "sim_ns_per_line")]
    return tuple(names + ["namespace.wall_share_est"])


@layer(*_namespace_names())
def namespace(ctx):
    from repro.sim.platform import Machine
    lines = LOOP // 4
    run = 64                       # lines per *_run call
    chunk = 4                      # lines per pwrite/pread call
    hit_region = 1 * MIB
    miss_region = 64 * MIB
    rng = Random(ctx.seed + 23)

    def addresses(region, count, align=CACHELINE):
        slots = region // align
        return [rng.randrange(slots) * align for _ in range(count)]

    hit_addrs = addresses(hit_region, lines)
    miss_addrs = [addresses(miss_region, lines) for _ in range(3)]
    run_addrs = [addresses(miss_region, lines // run, run * CACHELINE)
                 for _ in range(3)]
    chunk_addrs = [addresses(miss_region, lines // chunk,
                             chunk * CACHELINE) for _ in range(3)]
    payload = b"\x5a" * (chunk * CACHELINE)

    def fresh(name, attr, addrs):
        """``prepare`` for one op: a new machine, its bound method."""
        def prepare(rep):
            machine = Machine()
            ns = machine.namespace("optane")
            fn = require(ns, attr, "namespace.%s.wall_ns_per_line" % name)
            return ns, fn, machine.thread(), addrs[rep]
        return prepare

    def warmed(rep):
        ns, load, thread, _ = fresh("load_hit", "load", [None] * 3)(rep)
        for addr in set(hit_addrs):
            load(thread, addr)             # fill the modelled cache
        return ns, load, thread, hit_addrs

    def per_line(state):
        _, fn, thread, addrs = state
        for addr in addrs:
            fn(thread, addr)

    def per_run(state):
        _, fn, thread, addrs = state
        for addr in addrs:
            fn(thread, addr, run)

    def store_clwb(state):
        ns, store, thread, addrs = state
        clwb = require(ns, "clwb", "namespace.store_clwb.wall_ns_per_line")
        for addr in addrs:
            store(thread, addr)
            clwb(thread, addr)

    def pwrite(state):
        _, fn, thread, addrs = state
        for addr in addrs:
            fn(thread, addr, payload)

    def pread(state):
        _, fn, thread, addrs = state
        for addr in addrs:
            fn(thread, addr, chunk * CACHELINE)

    out = {}
    for name, prepare, body in (
            ("load_hit", warmed, per_line),
            ("load_miss", fresh("load_miss", "load", miss_addrs), per_line),
            ("load_run", fresh("load_run", "load_run", run_addrs), per_run),
            ("store_clwb", fresh("store_clwb", "store", miss_addrs),
             store_clwb),
            ("ntstore", fresh("ntstore", "ntstore", miss_addrs), per_line),
            ("ntstore_run", fresh("ntstore_run", "ntstore_run", run_addrs),
             per_run),
            ("pwrite", fresh("pwrite", "pwrite", chunk_addrs), pwrite),
            ("pread", fresh("pread", "pread", chunk_addrs), pread)):
        sims = []

        def clocked(state, body=body):
            before = state[2].now
            body(state)
            sims.append((state[2].now - before) / lines)

        out["namespace.%s.wall_ns_per_line" % name] = loop_ns(
            prepare, clocked, lines)
        out["namespace.%s.sim_ns_per_line" % name] = sims[0]

    # An estimate, not a measurement: the window's exact line counts
    # priced at the isolation cost of the cheapest path that serves
    # each kind of line.
    raw = ctx.first.raw
    est_ns = (raw.get("imc_read_bytes", 0) / CACHELINE
              * out["namespace.load_miss.wall_ns_per_line"]
              + raw.get("imc_write_bytes", 0) / CACHELINE
              * out["namespace.ntstore.wall_ns_per_line"]
              + raw.get("cache_hits", 0)
              * out["namespace.load_hit.wall_ns_per_line"])
    out["namespace.wall_share_est"] = est_ns / (ctx.first.wall_s * 1e9)
    return out


# -- device models -----------------------------------------------------------

@layer("cache.probe.wall_ns", "xpdimm.ingest_write.wall_ns",
       "xpdimm.read.wall_ns", "media.write_line.wall_ns")
def devices(ctx):
    from repro.sim.platform import Machine
    rng = Random(ctx.seed + 29)
    addrs = [rng.randrange(64 * MIB // CACHELINE) * CACHELINE
             for _ in range(LOOP)]

    def bound(owner_of, attr, metric):
        return lambda rep: require(owner_of(Machine()), attr, metric)

    def dimm(machine):
        return machine.optane[0][0][1]

    def probes(probe):
        for addr in addrs:
            probe((0, addr))

    def device_calls(fn):
        now = 0.0
        for addr in addrs:
            now = fn(now, addr)

    def media_writes(write_line):
        now = 0.0
        for addr in addrs:
            now = write_line(now, addr >> 8)

    return {
        "cache.probe.wall_ns": loop_ns(
            bound(lambda m: m.caches[0], "probe", "cache.probe.wall_ns"),
            probes, LOOP),
        "xpdimm.ingest_write.wall_ns": loop_ns(
            bound(dimm, "ingest_write", "xpdimm.ingest_write.wall_ns"),
            device_calls, LOOP),
        "xpdimm.read.wall_ns": loop_ns(
            bound(dimm, "read", "xpdimm.read.wall_ns"),
            device_calls, LOOP),
        "media.write_line.wall_ns": loop_ns(
            bound(lambda m: dimm(m).media, "write_line",
                  "media.write_line.wall_ns"),
            media_writes, LOOP),
    }


# -- engine ------------------------------------------------------------------

@layer("engine.resource.acquire.wall_ns",
       "engine.backfill.acquire.wall_ns",
       "engine.scheduler.switch.wall_ns",
       "engine.run_interleaved.step.wall_ns")
def engine(ctx):
    from repro.sim import engine as eng
    from repro.sim.platform import Machine
    resource_cls = require(eng, "Resource",
                           "engine.resource.acquire.wall_ns")
    backfill_cls = require(eng, "BackfillResource",
                           "engine.backfill.acquire.wall_ns")
    run_workloads = require(eng, "run_workloads",
                            "engine.scheduler.switch.wall_ns")
    run_interleaved = require(eng, "run_interleaved",
                              "engine.run_interleaved.step.wall_ns")
    rng = Random(ctx.seed + 31)
    arrivals = []
    now = 0.0
    for _ in range(LOOP):
        now += rng.random() * 40.0
        arrivals.append(now)

    def acquires(acquire):
        for at in arrivals:
            acquire(at, 15.0)

    workers = 16
    per_worker = LOOP // workers

    def spinners(rep):
        def spin(thread):
            for _ in range(per_worker):
                thread.now += 10.0
                yield
        return [(t, spin(t)) for t in Machine().threads(workers)]

    def steppers(rep):
        entries = []
        for thread in Machine().threads(4):
            def step(thread=thread):
                thread.now += 10.0
            entries.append((thread, LOOP // 4, step))
        return entries

    return {
        "engine.resource.acquire.wall_ns": loop_ns(
            lambda rep: resource_cls("bench", 4).acquire, acquires, LOOP),
        "engine.backfill.acquire.wall_ns": loop_ns(
            lambda rep: backfill_cls("bench").acquire, acquires, LOOP),
        "engine.scheduler.switch.wall_ns": loop_ns(
            spinners, run_workloads, workers * per_worker),
        "engine.run_interleaved.step.wall_ns": loop_ns(
            steppers, run_interleaved, LOOP),
    }


# -- lattester and fidelity --------------------------------------------------

@layer("lattester.bw_1t.wall_ns_per_line",
       "lattester.bw_8t.wall_ns_per_line",
       "lattester.idle_latency.wall_ns_per_sample", "lattester.points")
def lattester(ctx):
    from repro.lattester import bandwidth, latency
    measure = require(bandwidth, "measure_bandwidth",
                      "lattester.bw_1t.wall_ns_per_line")
    clear = require(bandwidth, "clear_point_memo",
                    "lattester.bw_1t.wall_ns_per_line")
    read_latency = require(latency, "read_latency",
                           "lattester.idle_latency.wall_ns_per_sample")
    one = 512 * KIB
    eight = 64 * KIB
    samples = LOOP // 4

    def cleared(rep):
        clear()

    def bw_1t(_):
        measure(kind="optane", op="ntstore", threads=1, access=256,
                pattern="seq", per_thread=one)

    def bw_8t(_):
        measure(kind="optane", op="clwb", threads=8, access=256,
                pattern="rand", per_thread=eight)

    return {
        "lattester.bw_1t.wall_ns_per_line": loop_ns(
            cleared, bw_1t, one // CACHELINE),
        "lattester.bw_8t.wall_ns_per_line": loop_ns(
            cleared, bw_8t, 8 * eight // CACHELINE),
        "lattester.idle_latency.wall_ns_per_sample": loop_ns(
            cleared,
            lambda _: read_latency("optane", "rand", samples=samples),
            samples),
        # A count of the workload's own sweep; none here.
        "lattester.points": 0,
    }


@layer("fidelity.latency_err", "fidelity.bandwidth_err",
       "fidelity.ewr_err", "fidelity.numa_err", "fidelity.worst_err")
def fidelity_layer(ctx):
    metrics = getattr(ctx.workload, "fidelity_metrics", None)
    if metrics is None:
        metrics, _lines = fidelity()
    return {k: v for k, v in metrics.items() if k != "fidelity_err"}


# -- harness -----------------------------------------------------------------

def trivial_point(payload):
    """The cheapest possible harness point (module-level: picklable)."""
    return {"echo": payload["i"]}


@layer("harness.import_ms", "harness.point_overhead_us",
       "harness.cache_hit_us", "harness.cached_rerun_ms",
       "harness.cold_sweep_s", "harness.cold_serve_s")
def harness(ctx):
    import os
    import subprocess
    import sys

    from repro.harness import ResultCache, runner
    run_cached_points = require(runner, "run_cached_points",
                                "harness.point_overhead_us")
    points = 200
    cold, warm = [], []
    for rep in range(3):
        cache = ResultCache(root=os.path.join(
            ctx.tmp, "harness-cache-%d" % rep))
        payloads = [{"i": i, "rep": rep} for i in range(points)]
        for sink in (cold, warm):
            wall, _ = timed(lambda: run_cached_points(
                trivial_point, payloads, "perfbench.trivial",
                cache=cache, jobs=1))
            sink.append(wall * 1e6 / points)

    cli = CliCold(ctx.seed, ctx.tmp)

    def interpreter(statement):
        walls = []
        for _ in range(3):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", statement], env=cli.env,
                           check=True)
            walls.append(time.perf_counter() - started)
        return statistics.median(walls)

    import_ms = (interpreter(cli.IMPORT_PROBE) - interpreter("pass")) * 1e3
    if isinstance(ctx.workload, CliCold):
        parts = ctx.first.parts
    else:
        cli.rounds = 1000            # a directory no window uses
        parts = cli.window(cli.setup()).parts
    return {
        "harness.import_ms": import_ms,
        "harness.point_overhead_us": statistics.median(cold),
        "harness.cache_hit_us": statistics.median(warm),
        "harness.cached_rerun_ms": parts["cached_rerun"] * 1e3,
        "harness.cold_sweep_s": parts["cold_sweep"],
        "harness.cold_serve_s": parts["cold_serve"],
    }


# -- chaos serving -----------------------------------------------------------

def _chaos_names():
    names = ["chaos_serve." + k for k in (
        "driver_tax", "violations", "recoveries", "crashes", "retries",
        "shed", "breaker_transitions")]
    names.extend("chaos_serve.%s.violations" % s for s in SUBSTRATES)
    return tuple(names)


@layer(*_chaos_names())
def chaos(ctx):
    from repro import chaos_serve
    from repro.chaos_serve.matrix import FULL_SHAPE
    from repro.workloads import closed_loop
    cell = require(chaos_serve, "chaos_serve_cell",
                   "chaos_serve.driver_tax")
    spec = canon_spec()
    payload = dict(FULL_SHAPE, workload=spec.name, substrate="lsm",
                   scenario="power-fail", mode="closed", naive=False,
                   seed=ctx.seed)
    taxes = []
    record = None
    for _ in range(3):
        # Back to back: the cell (its own build and preload included,
        # as it cannot be entered any later), then a plain closed loop
        # of the same shape with the same work inside the clock.
        cell_wall, record = timed(lambda: cell(payload))

        def plain():
            machine, service, load_end = build_service(
                "lsm", spec, payload["records"], payload["ops"], ctx.seed)
            closed_loop(machine, service, spec,
                        records=payload["records"], ops=payload["ops"],
                        clients=payload["clients"], seed=ctx.seed,
                        load_end=load_end)
        plain_wall, _ = timed(plain)
        taxes.append(cell_wall / plain_wall)
    out = dict.fromkeys(_chaos_names(), 0)
    out["chaos_serve.driver_tax"] = statistics.median(taxes)
    # Isolation defaults from the one LSM cell; chaos-recover's own
    # eight-cell tallies replace them.
    out["chaos_serve.violations"] = len(record["violations"])
    out["chaos_serve.lsm.violations"] = len(record["violations"])
    out["chaos_serve.recoveries"] = len(record["recoveries"])
    out["chaos_serve.crashes"] = record["faults"]["crashes"]
    out["chaos_serve.retries"] = record["degrade"]["retries"]
    out["chaos_serve.shed"] = record["degrade"]["shed"]
    out["chaos_serve.breaker_transitions"] = \
        record["breaker"]["transitions"]
    return out


# -- instrumentation taxes ---------------------------------------------------

@layer("pmcheck.tax", "telemetry.tax", "obs.tax", "pmcheck.violations",
       "telemetry.dropped_events", "obs.ingest.wall_ns_per_req",
       "obs.hist_merge.wall_us")
def taxes(ctx):
    from repro.obs import ObsRecorder
    from repro.obs.hist import LatencyHistogram
    from repro.pmcheck import PmCheck
    from repro.sim.platform import Machine
    from repro.telemetry import Tracer, install
    from repro.workloads import closed_loop, make_service
    from repro.workloads.loadloop import preload
    spec = canon_spec()
    ops = LOOP // 2
    tallies = {}

    def arm(kind):
        """Wall of one closed loop with ``kind`` switched on."""
        tracer = Tracer() if kind == "telemetry" else None
        previous = install(tracer) if tracer is not None else None
        try:
            machine = Machine()
            checker = PmCheck(machine).install() \
                if kind == "pmcheck" else None
            service = make_service("lsm", machine, spec,
                                   records=CANON_RECORDS, ops=ops,
                                   seed=ctx.seed)
            load_end = preload(service, machine, spec, CANON_RECORDS,
                               seed=ctx.seed)
            obs = ObsRecorder("lsm", workload=spec.name) \
                if kind == "obs" else None
            wall, _ = timed(lambda: closed_loop(
                machine, service, spec, records=CANON_RECORDS, ops=ops,
                clients=4, seed=ctx.seed, load_end=load_end, obs=obs))
        finally:
            if tracer is not None:
                install(previous)
        if checker is not None:
            tallies["pmcheck.violations"] = checker.summary()["total"]
            checker.uninstall()
        if tracer is not None:
            tallies["telemetry.dropped_events"] = tracer.dropped
        return wall

    out = {}
    for kind in ("pmcheck", "telemetry", "obs"):
        # Paired arms, off then on, back to back; the ratio's base is
        # the off arm measured beside it.
        ratios = []
        for _ in range(3):
            off = arm(None)
            ratios.append(arm(kind) / off)
        out[kind + ".tax"] = statistics.median(ratios)
    out.update(tallies)

    rng = Random(ctx.seed + 37)
    latencies = [400.0 + 600.0 * rng.random() for _ in range(LOOP)]
    stamps = [float(i * 50) for i in range(LOOP)]
    ingest = require(ObsRecorder, "ingest", "obs.ingest.wall_ns_per_req")
    out["obs.ingest.wall_ns_per_req"] = loop_ns(
        lambda rep: ObsRecorder("lsm"),
        lambda recorder: ingest(recorder, latencies, stamps), LOOP)
    left, right = LatencyHistogram(), LatencyHistogram()
    left.record_many(latencies)
    right.record_many(lat * 1.5 for lat in latencies)
    merge = require(LatencyHistogram, "merge", "obs.hist_merge.wall_us")
    merges = 200
    out["obs.hist_merge.wall_us"] = loop_ns(
        lambda rep: [left.copy() for _ in range(merges)],
        lambda copies: [merge(copy, right) for copy in copies],
        merges) / 1e3
    return out
