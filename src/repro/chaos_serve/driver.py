"""The chaos serving loop: traffic, faults and recovery, interleaved.

One *cell* = one (workload, substrate, scenario, mode) combination:
serve a seeded request stream against a live substrate while the
scenario injects faults mid-serve on the virtual clock, recover from
every power failure, and audit each recovered image with the
durability oracle.  The four scenarios:

* ``power-fail`` — two mid-traffic power failures (with torn-write
  semantics) plus the final audit crash; every recovery is audited;
* ``poison``     — an XPLine a previous persist landed on goes bad
  mid-serve; reads start failing permanently, recovery must *report*
  whatever the poison destroyed;
* ``transient``  — three windows of retryable read errors; the
  degradation layer's retries should absorb them;
* ``thermal``    — a throttle window stretches media occupancies; the
  admission/deadline machinery keeps the tail of accepted requests
  bounded instead of queueing without bound.

Every scenario ends with a **final audit**: power-fail the machine,
``Service.recover()``, and run the durable-linearizability check over
the full history, so all four scenarios exercise the oracle.

Requests are dispatched sequentially in virtual-time order (the
earliest-free client goes next, ties to the lowest id — the same
discipline :func:`repro.workloads.loadloop.open_loop` uses), so a
power failure interrupts exactly one request, whose mutation stays
un-acked in the history.  Everything — arrivals, retry jitter, fault
sites, crash points — draws from seeded RNGs; a cell is a pure
function of its payload.

Chaos cells only serve value-size-100 workloads: NOVA's slot stride is
``align_up(2 + value_size, 64)`` and must divide the 4 KiB page, or a
slot write straddles pages and becomes multiple log entries that can
tear *independently* — a substrate-layout artifact, not a durability
property this matrix is probing.
"""

import heapq
from random import Random

from repro.chaos_serve.degrade import (
    BROKEN, DEADLINE, FAILED, OK, SHED, CircuitBreaker, DegradeConfig,
    DegradeStats, RetryPolicy,
)
from repro.chaos_serve.history import DELETE, PUT, History
from repro.chaos_serve.oracle import check_durability, service_read_fn
from repro.faults.model import FaultController, MediaError, _mix
from repro.faults.report import RecoveryReport
from repro.obs import ObsRecorder
from repro.sim.crashpoints import CrashInjector, SimulatedPowerFailure
from repro.sim.platform import Machine
from repro.telemetry.events import CAT_CHAOS, CAT_DEGRADE
from repro.workloads.generators import (
    RequestStream, get_workload, make_key, make_value,
)
from repro.workloads.loadloop import _summarize, preload
from repro.workloads.service import make_service

#: The fault scenarios every chaos matrix covers.
SCENARIOS = ("power-fail", "poison", "transient", "thermal")

#: Virtual blackout between power loss and serving resuming.
RECOVERY_GAP_NS = 50_000.0
#: Fail-fast cost of a breaker reject (the client still burns time).
REJECT_NS = 1_000.0
#: Thermal scenario: occupancy stretch factor and window length.
THERMAL_FACTOR = 8.0
THERMAL_SPAN_NS = 250_000.0
#: Transient scenario: failures per injected site.
TRANSIENT_ERRORS = 2

_NS_PER_S = 1e9


class _Env:
    """Everything one chaos cell threads through its serving loop."""

    def __init__(self, payload):
        self.payload = payload
        self.spec = get_workload(payload["workload"])
        self.seed = payload["seed"]
        self.naive = bool(payload.get("naive", False))
        self.scenario = payload["scenario"]
        self.ops = payload["ops"]
        self.records = payload["records"]
        self.clients = payload["clients"]
        self.rate_kops = payload.get("rate_kops")
        self.machine = Machine()
        # Optional persistency-order checking; the key is only present
        # in the payload when enabled, so checked and unchecked cells
        # keep distinct cache addresses and plain cells keep theirs.
        self.pmcheck = None
        if payload.get("pmcheck"):
            from repro.pmcheck import PmCheck
            self.pmcheck = PmCheck(self.machine).install()
        self.controller = FaultController(
            self.machine, seed=self.seed,
            tear=(self.scenario == "power-fail"))
        self.config = DegradeConfig.naive() if self.naive \
            else DegradeConfig()
        self.service = make_service(
            payload["substrate"], self.machine, self.spec, self.records,
            ops=self.ops, seed=self.seed, naive=self.naive)
        self.history = History()
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_ns=self.config.breaker_cooldown_ns)
        self.policy = RetryPolicy(self.config, self.seed)
        self.stats = DegradeStats()
        # Fault scheduling draws from its own stream, independent of
        # the per-client retry RNGs.
        self.chaos_rng = Random(_mix(
            self.seed, "chaos", payload["workload"],
            payload["substrate"], self.scenario))
        self.threads = []
        self.recoveries = []
        self.violations = []
        self._breaker_seen = 0
        self.load_end = 0.0
        self.injector = None
        # Always-on observability: request-granularity recording
        # (REPRO_OBS=0 disables).
        self.obs = ObsRecorder.from_env(payload["substrate"],
                                        workload=payload["workload"])

    # -- tracing --------------------------------------------------------

    def chaos_instant(self, name, args=None):
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(tracer.last_ts, CAT_CHAOS, name,
                           track="chaos", args=args)
        if self.obs is not None:
            # Virtual timestamp of the latest serving progress — the
            # same instant a tracer would stamp, derived without one.
            ts = max((t.now for t in self.threads),
                     default=self.load_end)
            self.obs.event(ts, name, args)

    def degrade_instant(self, thread, name, client, args=None):
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(thread.now, CAT_DEGRADE, name,
                           track="client%d" % client, args=args)

    def drain_breaker_events(self):
        new = self.breaker.transitions[self._breaker_seen:]
        self._breaker_seen = len(self.breaker.transitions)
        tracer = self.machine.tracer
        if tracer is not None:
            for ts, state in new:
                tracer.instant(ts, CAT_DEGRADE,
                               "degrade.breaker_" + state,
                               track="degrade")
        if self.obs is not None:
            for ts, state in new:
                self.obs.event(ts, "breaker." + state)


# -- fault scheduling --------------------------------------------------------

def _triggers(scenario, ops):
    """Dispatch-index -> fault kind for one scenario (deterministic)."""
    if scenario == "power-fail":
        return {max(1, ops // 3): "crash",
                max(2, (2 * ops) // 3): "crash"}
    if scenario == "poison":
        return {max(1, ops // 2): "poison"}
    if scenario == "transient":
        return {max(1, ops // 4): "transient",
                max(2, ops // 2): "transient",
                max(3, (3 * ops) // 4): "transient"}
    if scenario == "thermal":
        return {max(1, ops // 3): "thermal"}
    raise ValueError("unknown scenario %r (choose from %s)"
                     % (scenario, ", ".join(SCENARIOS)))


def _fire(env, kind, at_op):
    """Inject one scheduled fault just before dispatching ``at_op``."""
    rng = env.chaos_rng
    if kind == "crash":
        # Arm the injector a seeded handful of persists ahead, so the
        # failure lands *inside* whichever request persists next.
        env.injector.crash_at = \
            env.injector.persists + 1 + rng.randrange(4)
        env.chaos_instant("chaos.crash_armed", {"at_op": at_op})
    elif kind == "poison":
        site = env.controller.poison_site(rng.randrange(1 << 16))
        env.chaos_instant("chaos.poison", {
            "at_op": at_op,
            "site": None if site is None else list(site)})
    elif kind == "transient":
        site = env.controller.transient_site(
            rng.randrange(1 << 16), errors=TRANSIENT_ERRORS)
        env.chaos_instant("chaos.transient", {
            "at_op": at_op,
            "site": None if site is None else list(site)})
    elif kind == "thermal":
        now = max(t.now for t in env.threads)
        env.controller.add_thermal_window(
            now, now + THERMAL_SPAN_NS, factor=THERMAL_FACTOR)
        env.chaos_instant("chaos.thermal", {
            "at_op": at_op, "span_ns": THERMAL_SPAN_NS,
            "factor": THERMAL_FACTOR})
    else:
        raise ValueError("unknown fault kind %r" % kind)


# -- one request through the degradation layer -------------------------------

def _apply(env, thread, client, req):
    """Perform one request, recording mutations in the history.

    The mutation is *begun* before the substrate call and *acked* only
    when the call returns — a power failure or media error in between
    leaves it un-acked (in flight), which is exactly the client's view.
    """
    service = env.service
    pmcheck = env.pmcheck
    history = env.history
    key = make_key(req.key_index)
    op = req.op
    if op == "read":
        service.get(thread, key)
        return
    if op == "scan":
        service.scan(thread, key, req.scan_len)
        return
    if op == "update" or op == "insert":
        mut = history.begin(client, PUT, req.key_index,
                            req.version, thread.now)
        if pmcheck is not None:
            pmcheck.op_begin(thread, op)
        service.put(thread, key,
                    make_value(env.spec, req.key_index, req.version))
        if pmcheck is not None:
            pmcheck.op_ack(thread)
        history.ack(mut, thread.now)
    elif op == "rmw":
        service.get(thread, key)
        mut = history.begin(client, PUT, req.key_index,
                            req.version, thread.now)
        if pmcheck is not None:
            pmcheck.op_begin(thread, op)
        service.put(thread, key,
                    make_value(env.spec, req.key_index, req.version))
        if pmcheck is not None:
            pmcheck.op_ack(thread)
        history.ack(mut, thread.now)
    elif op == "delete":
        mut = history.begin(client, DELETE, req.key_index, 0,
                            thread.now)
        if pmcheck is not None:
            pmcheck.op_begin(thread, op)
        service.delete(thread, key)
        if pmcheck is not None:
            pmcheck.op_ack(thread)
        history.ack(mut, thread.now)
    else:
        raise ValueError("unknown op %r" % op)


def _serve_one(env, thread, client, req, arrival_ns=None):
    """One request through breaker, retries and deadline accounting.

    Returns ``(disposition, latency_ns_or_None)``; latency is measured
    from ``arrival_ns`` when given (open loop), else from dispatch.
    A :class:`SimulatedPowerFailure` propagates to the caller.
    """
    cfg = env.config
    start = thread.now if arrival_ns is None else arrival_ns
    if not env.breaker.allow(thread.now):
        env.stats.breaker_rejects += 1
        thread.sleep(REJECT_NS)
        env.degrade_instant(thread, "degrade.reject", client)
        env.drain_breaker_events()
        return BROKEN, None
    attempts = env.policy.attempts()
    ok = False
    for attempt in range(1, attempts + 1):
        try:
            _apply(env, thread, client, req)
            ok = True
            if attempt > 1:
                env.stats.retry_successes += 1
            break
        except MediaError as exc:
            if not exc.transient or attempt == attempts:
                break
            env.stats.retries += 1
            env.degrade_instant(thread, "degrade.retry", client,
                                {"attempt": attempt, "op": req.op})
            thread.sleep(env.policy.backoff_ns(client, attempt))
    env.breaker.record(ok, thread.now)
    env.drain_breaker_events()
    if not ok:
        env.stats.failures += 1
        return FAILED, None
    latency = thread.now - start
    if cfg.enabled and latency > cfg.deadline_ns:
        env.stats.deadline_misses += 1
    return OK, latency


# -- crash, recovery and the oracle ------------------------------------------

def _recover_and_audit(env, at_op, final=False):
    """Power-fail the machine, recover the service, audit durability.

    The platform contributes its own :class:`RecoveryReport`: a torn
    final XPLine is hardware-reported damage (real media would fail the
    line's ECC), so its chunk count lands in ``truncated`` and the
    oracle can excuse the acknowledged writes the tear rolled back.
    """
    env.injector.crash_at = None
    interrupted = env.history.crash()
    start = max((t.now for t in env.threads), default=env.load_end)
    env.machine.power_fail()
    platform = RecoveryReport(component="platform")
    torn = env.controller.torn_lines
    if torn:
        platform.truncated += len(torn)
        platform.note("power loss tore %d chunk(s) off the final "
                      "XPLine" % len(torn))
    service, sub_report = env.service.recover()
    env.service = service
    report = platform.merge(sub_report)
    resume = start + RECOVERY_GAP_NS
    for t in env.threads:
        t.now = max(t.now, resume)
    audit = env.machine.thread()
    audit.now = resume
    note = "protections disabled (--naive)" if env.naive else None
    check = check_durability(
        env.history, service_read_fn(service, audit), env.spec, report,
        naive_note=note)
    env.violations.extend(check["violations"])
    env.recoveries.append({
        "at_op": at_op,
        "final": bool(final),
        "interrupted": len(interrupted),
        "report": report.to_dict(),
        "check": {k: v for k, v in check.items() if k != "violations"},
    })
    tracer = env.machine.tracer
    if tracer is not None:
        tracer.complete(start, CAT_CHAOS, "chaos.recovery",
                        RECOVERY_GAP_NS, track="chaos", args={
                            "recovered": report.recovered,
                            "truncated": report.truncated,
                            "lost": report.lost,
                            "violations": len(check["violations"]),
                        })
    if env.obs is not None:
        env.obs.event(start, "chaos.recovery", {
            "at_op": at_op,
            "final": bool(final),
            "recovered": report.recovered,
            "truncated": report.truncated,
            "lost": report.lost,
            "violations": len(check["violations"]),
        })


# -- serving loops -----------------------------------------------------------

def _closed_serve(env):
    """Closed loop: each client issues back-to-back, chaos included."""
    clients = env.clients
    threads = env.machine.threads(clients)
    env.threads = threads
    start_ns = env.load_end
    for t in threads:
        t.now = start_ns
    streams = [RequestStream(env.spec, env.records, seed=env.seed,
                             client=c) for c in range(clients)]
    budgets = [env.ops // clients + (1 if c < env.ops % clients else 0)
               for c in range(clients)]
    pending = [None] * clients
    triggers = _triggers(env.scenario, env.ops)
    dispatched = 0
    latencies = []
    ops_by_type = {}
    results = {}
    obs = env.obs
    obs_ts = None if obs is None else []
    ts_append = None if obs_ts is None else obs_ts.append
    # Each client's request sequence depends only on its own seeded
    # RNG (never on machine state or the other clients), so the whole
    # budget is materialized up front.  Dispatch order is a strict-<
    # scan of a live list kept in client order: lowest ``now`` wins,
    # first occurrence (= lowest client id) on ties.
    queues = [streams[c].next_requests(budgets[c])
              for c in range(clients)]
    qpos = [0] * clients
    triggers_pop = triggers.pop
    live = list(range(clients))
    while live:
        c = live[0]
        best_now = threads[c].now
        for i in live[1:]:
            now = threads[i].now
            if now < best_now:
                c = i
                best_now = now
        thread = threads[c]
        if pending[c] is not None:
            req, pending[c] = pending[c], None
        else:
            pos = qpos[c]
            queue = queues[c]
            if pos == len(queue):
                live.remove(c)
                continue
            qpos[c] = pos + 1
            req = queue[pos]
            dispatched += 1
            kind = triggers_pop(dispatched, None)
            if kind is not None:
                _fire(env, kind, dispatched)
        try:
            disp, latency = _serve_one(env, thread, c, req)
        except SimulatedPowerFailure:
            _recover_and_audit(env, dispatched)
            pending[c] = req      # the client retries the request
            continue
        results[disp] = results.get(disp, 0) + 1
        if disp == OK:
            ops_by_type[req.op] = ops_by_type.get(req.op, 0) + 1
            latencies.append(latency)
            if ts_append is not None:
                ts_append(thread.now)
        elif obs is not None and (disp == FAILED or disp == BROKEN):
            obs.error(req.op, thread.now)
    end_ns = max(t.now for t in threads)
    if obs is not None:
        obs.ingest(latencies, obs_ts)
        obs.ingest_ops(ops_by_type)
    report = _summarize(latencies, ops_by_type, start_ns, end_ns,
                        len(latencies))
    report["mode"] = "closed"
    report["clients"] = clients
    return report, results


def _open_serve(env):
    """Open loop: Poisson arrivals, admission control, chaos included.

    Latency counts from *arrival*, so queueing behind a fault window
    hits the deadline accounting; the in-flight bound sheds arrivals
    (counted ``shed``) instead of letting the backlog diverge.
    """
    workers = env.clients
    threads = env.machine.threads(workers)
    env.threads = threads
    start_ns = env.load_end
    for t in threads:
        t.now = start_ns
    streams = [RequestStream(env.spec, env.records, seed=env.seed,
                             client=w) for w in range(workers)]
    arrival_rng = Random(_mix(env.seed, "arrivals", env.spec.name))
    mean_gap_ns = _NS_PER_S / (env.rate_kops * 1e3)
    cfg = env.config
    triggers = _triggers(env.scenario, env.ops)
    clock = start_ns
    inflight = []                  # completion-time heap
    latencies = []
    ops_by_type = {}
    results = {}
    obs = env.obs
    obs_ts = None if obs is None else []
    ts_append = None if obs_ts is None else obs_ts.append
    # Workers are scanned strict-< in tid order (earliest free, ties
    # to the lowest id); the degrade config is loop-invariant.
    expovariate = arrival_rng.expovariate
    inv_gap = 1.0 / mean_gap_ns
    triggers_pop = triggers.pop
    heappop, heappush = heapq.heappop, heapq.heappush
    cfg_enabled = cfg.enabled
    max_inflight = cfg.max_inflight
    deadline_ns = cfg.deadline_ns
    stats = env.stats
    for i in range(1, env.ops + 1):
        clock += expovariate(inv_gap)
        kind = triggers_pop(i, None)
        if kind is not None:
            _fire(env, kind, i)
        while inflight and inflight[0] <= clock:
            heappop(inflight)
        if cfg_enabled and max_inflight \
                and len(inflight) >= max_inflight:
            stats.shed += 1
            results[SHED] = results.get(SHED, 0) + 1
            env.chaos_instant("degrade.shed", {"at_op": i})
            continue
        wi = 0
        worker = threads[0]
        best_now = worker.now
        for j, t in enumerate(threads):
            now = t.now
            if now < best_now:
                wi = j
                worker = t
                best_now = now
        if cfg_enabled and best_now - clock > deadline_ns:
            # The client gave up in the queue before dispatch.
            stats.deadline_misses += 1
            results[DEADLINE] = results.get(DEADLINE, 0) + 1
            continue
        req = streams[wi].next_request()
        if worker.now < clock:
            worker.now = clock
        while True:
            try:
                disp, latency = _serve_one(env, worker, wi, req,
                                           arrival_ns=clock)
                break
            except SimulatedPowerFailure:
                _recover_and_audit(env, i)
        results[disp] = results.get(disp, 0) + 1
        if disp == OK:
            ops_by_type[req.op] = ops_by_type.get(req.op, 0) + 1
            latencies.append(latency)
            if ts_append is not None:
                ts_append(worker.now)
        elif obs is not None and (disp == FAILED or disp == BROKEN):
            obs.error(req.op, worker.now)
        heappush(inflight, worker.now)
    end_ns = max(t.now for t in threads)
    if obs is not None:
        obs.ingest(latencies, obs_ts)
        obs.ingest_ops(ops_by_type)
    report = _summarize(latencies, ops_by_type, start_ns, end_ns,
                        len(latencies))
    report["mode"] = "open"
    report["workers"] = workers
    report["offered_kops"] = round(env.rate_kops, 3)
    return report, results


# -- the cell ----------------------------------------------------------------

def chaos_serve_cell(payload):
    """Run one chaos cell; module-level so workers can pickle it.

    ``trace_path`` in the payload — added by the matrix for traced
    runs, never part of the cache key — records the whole cell as one
    Chrome trace (serve spans, fault instants, degrade events and
    recovery spans together).
    """
    trace_path = payload.get("trace_path")
    if trace_path is not None:
        from repro.telemetry import recording, write_chrome_trace
        with recording() as tracer:
            record = _cell_inner(payload)
        write_chrome_trace(tracer, trace_path)
        record["trace"] = trace_path
        return record
    return _cell_inner(payload)


def _cell_inner(payload):
    env = _Env(payload)
    env.load_end = preload(env.service, env.machine, env.spec,
                           env.records, seed=env.seed)
    env.history.preload(env.records)
    env.injector = CrashInjector(env.machine)    # armed by _fire later
    try:
        if payload.get("mode") == "open":
            served, results = _open_serve(env)
        else:
            served, results = _closed_serve(env)
        _recover_and_audit(env, env.ops, final=True)
    finally:
        env.injector.uninstall()
    crashes = sum(1 for r in env.recoveries if not r["final"])
    obs = env.obs
    if obs is not None:
        # Fold the cell's terminal tallies into the obs counters so the
        # blob stands alone: degrade stats, breaker churn, dispositions
        # and audit outcomes, all next to the latency histogram.
        for k, v in sorted(env.stats.to_dict().items()):
            obs.count("degrade_" + k, v)
        for state, n in sorted(env.breaker.transition_counts().items()):
            obs.count("breaker_" + state, n)
        obs.count("recoveries", len(env.recoveries))
        obs.count("violations", len(env.violations))
        for disp in sorted(results):
            obs.count("result_" + disp, results[disp])
    record = {
        "workload": payload["workload"],
        "substrate": payload["substrate"],
        "scenario": env.scenario,
        "mode": payload.get("mode", "closed"),
        "naive": env.naive,
        "seed": env.seed,
        "records": env.records,
        "ops": env.ops,
        "served": served,
        "results": {k: results[k] for k in sorted(results)},
        "degrade": env.stats.to_dict(),
        "breaker": {"state": env.breaker.state,
                    "transitions": len(env.breaker.transitions)},
        "faults": {
            "crashes": crashes,
            "torn_chunks": env.controller.torn_chunks,
            "poison_reads": env.controller.poison_reads,
            "transient_reads": env.controller.transient_reads,
        },
        "recoveries": env.recoveries,
        "violations": env.violations,
        "service": env.service.stats(),
    }
    if env.pmcheck is not None:
        record["pmcheck"] = env.pmcheck.summary()
        env.pmcheck.uninstall()
    if obs is not None:
        record["obs"] = obs.to_dict()
    return record
