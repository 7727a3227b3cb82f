"""Chaos cells: traffic, faults and recovery, interleaved.

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

A cell has no serving loop of its own: it runs
:func:`~repro.workloads.loadloop.closed_loop` or
:func:`~repro.workloads.loadloop.open_loop`, the loops ``repro serve``
runs, with :class:`_Env` as their ``chaos`` hooks.  Faults fire at
their dispatch index; ``serve()`` wraps the one op dispatch in the
breaker, retries, deadline and the mutation history.  Requests run one
at a time in virtual-time order, so a power failure interrupts exactly
one request, whose mutation stays un-acked; the cell recovers, audits,
and the client re-issues the request.  Everything — arrivals, retry
jitter, fault sites, crash points — draws from seeded RNGs; a cell is
a pure function of its payload.

The degradation layer lives in ``serve()`` and ``admit()``, all on the
virtual clock: a per-request deadline, seeded exponential-backoff
retries of transient media errors (one RNG per client), a
per-substrate :class:`CircuitBreaker` that fails fast after
consecutive hard failures, and open-loop admission control that sheds
arrivals past a bounded in-flight depth.  Its tuning is the module
constants below; the payload's ``naive`` flag is the one switch, and
turns all four off.

Chaos cells only serve value-size-100 workloads: NOVA's slot stride is
``align_up(2 + value_size, 64)`` and must divide the 4 KiB page, or a
slot write straddles pages and becomes multiple log entries that can
tear *independently* — a substrate-layout artifact, not a durability
property this matrix is probing.
"""

from dataclasses import dataclass, field
from heapq import heappop, heappush
from random import Random

from repro.chaos_serve.history import History
from repro.chaos_serve.oracle import check_durability, service_read_fn
from repro.faults.model import (
    FaultController, MediaError, SimulatedPowerFailure, _mix,
)
from repro.faults.report import RecoveryReport
from repro.obs import ObsRecorder
from repro.sim.platform import Machine
from repro.telemetry.events import CAT_CHAOS, CAT_DEGRADE
from repro.workloads.generators import get_workload
from repro.workloads.loadloop import (
    OK, RETRY, closed_loop, execute_request, open_loop, preload,
)
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

#: The degradation layer (virtual ns).  ``naive`` cells switch it off:
#: one attempt, no breaker, no admission bound, no deadline.
DEADLINE_NS = 2_000_000.0       # per request
RETRY_ATTEMPTS = 4              # total tries per substrate call
BACKOFF_BASE_NS = 1_000.0       # first-retry sleep
BACKOFF_MULT = 4.0
BACKOFF_JITTER = 0.5            # +/- fraction of the backoff
BREAKER_THRESHOLD = 5           # consecutive hard failures
BREAKER_COOLDOWN_NS = 500_000.0
MAX_INFLIGHT = 64               # open-loop admission bound

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Request dispositions beyond plain success (``loadloop.OK``).
SHED = "shed"
DEADLINE = "deadline"
BROKEN = "breaker"
FAILED = "failed"


@dataclass
class CircuitBreaker:
    """Per-substrate breaker on the virtual clock.

    Counts *consecutive* hard failures; at ``threshold`` it opens and
    every request fails fast until ``cooldown_ns`` of virtual time has
    passed, then it half-opens: the next request is the probe, and its
    outcome closes or re-opens the breaker.
    """

    threshold: int
    cooldown_ns: float
    state: str = BREAKER_CLOSED
    failures: int = 0
    opened_ns: float = 0.0
    transitions: list = field(default_factory=list)

    def _move(self, state, now_ns):
        self.state = state
        self.transitions.append((round(now_ns, 1), state))

    def allow(self, now_ns):
        """Whether a request may proceed at virtual time ``now_ns``."""
        if self.threshold <= 0:
            return True
        if self.state == BREAKER_OPEN:
            if now_ns - self.opened_ns >= self.cooldown_ns:
                self._move(BREAKER_HALF_OPEN, now_ns)
                return True
            return False
        return True

    def transition_counts(self):
        """Transition tally by target state (for obs counters)."""
        counts = {}
        for _ts, state in self.transitions:
            counts[state] = counts.get(state, 0) + 1
        return counts

    def record(self, ok, now_ns):
        """Feed one request outcome back into the breaker."""
        if self.threshold <= 0:
            return
        if ok:
            if self.state != BREAKER_CLOSED:
                self._move(BREAKER_CLOSED, now_ns)
            self.failures = 0
            return
        self.failures += 1
        if self.state == BREAKER_HALF_OPEN or \
                self.failures >= self.threshold:
            if self.state != BREAKER_OPEN:
                self._move(BREAKER_OPEN, now_ns)
            self.opened_ns = now_ns
            self.failures = 0


def backoff_ns(rng, attempt):
    """Virtual sleep before retry ``attempt`` (1-based): exponential,
    jittered by one draw from the client's own ``rng``."""
    base = BACKOFF_BASE_NS * (BACKOFF_MULT ** (attempt - 1))
    jitter = (rng.random() * 2.0 - 1.0) * BACKOFF_JITTER
    return base * (1.0 + jitter)


class _Env:
    """One chaos cell's state, and the ``chaos`` hooks the serving
    loops call (``dispatch``, ``admit``, ``serve``, ``arrival_rng``,
    ``threads``)."""

    def __init__(self, payload):
        self.spec = get_workload(payload["workload"])
        self.seed = payload["seed"]
        self.naive = bool(payload.get("naive", False))
        self.scenario = payload["scenario"]
        self.ops = payload["ops"]
        self.records = payload["records"]
        self.clients = payload["clients"]
        self.open = payload.get("mode") == "open"
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
        self.service = make_service(
            payload["substrate"], self.machine, self.spec, self.records,
            ops=self.ops, seed=self.seed, naive=self.naive)
        self.history = History()
        self.breaker = CircuitBreaker(
            threshold=0 if self.naive else BREAKER_THRESHOLD,
            cooldown_ns=BREAKER_COOLDOWN_NS)
        self.attempts = 1 if self.naive else RETRY_ATTEMPTS
        # Retry jitter: one stream per client, so a client's backoffs
        # depend only on its own retries, never on the scheduler.
        self.retry_rngs = [Random(_mix(self.seed, "retry", client))
                           for client in range(self.clients)]
        self.stats = {"retries": 0, "retry_successes": 0, "shed": 0,
                      "deadline_misses": 0, "breaker_rejects": 0,
                      "failures": 0}
        # Fault scheduling draws from its own stream, independent of
        # the per-client retry RNGs.
        self.chaos_rng = Random(_mix(
            self.seed, "chaos", payload["workload"],
            payload["substrate"], self.scenario))
        self.arrival_rng = Random(_mix(self.seed, "arrivals",
                                       self.spec.name))
        self.triggers = _triggers(self.scenario, self.ops)
        self.dispatched = 0
        self.results = {}
        # Open loop only: completion times of admitted requests.
        self.inflight = [] if self.open else None
        self.threads = []
        self.recoveries = []
        self.violations = []
        self._breaker_seen = 0
        # Always-on observability: request-granularity recording.
        self.obs = ObsRecorder(payload["substrate"],
                               workload=payload["workload"])
        self.load_end = preload(self.service, self.machine, self.spec,
                                self.records, seed=self.seed)
        self.history.preload(self.records)

    # -- tracing --------------------------------------------------------

    def chaos_instant(self, name, args=None):
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(tracer.last_ts, CAT_CHAOS, name,
                           track="chaos", args=args)
        # Virtual timestamp of the latest serving progress — the same
        # instant a tracer would stamp, derived without one.
        ts = max((t.now for t in self.threads), default=self.load_end)
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
        for ts, state in new:
            self.obs.event(ts, "breaker." + state)

    # -- the serving-loop hooks -----------------------------------------

    def dispatch(self):
        """Closed loop: a fresh request is next; fire its fault."""
        self.dispatched += 1
        kind = self.triggers.pop(self.dispatched, None)
        if kind is not None:
            _fire(self, kind, self.dispatched)

    def admit(self, index, clock, best_now):
        """Open loop: fire arrival ``index``'s fault, then decide it.

        Returns False when the arrival is shed (the in-flight bound is
        reached) or dropped (it would wait past its deadline for the
        earliest-free worker, free at ``best_now``).
        """
        self.dispatched = index
        kind = self.triggers.pop(index, None)
        if kind is not None:
            _fire(self, kind, index)
        inflight = self.inflight
        while inflight and inflight[0] <= clock:
            heappop(inflight)
        if self.naive:
            return True
        if len(inflight) >= MAX_INFLIGHT:
            self.stats["shed"] += 1
            self.results[SHED] = self.results.get(SHED, 0) + 1
            self.chaos_instant("degrade.shed", {"at_op": index})
            return False
        if best_now - clock > DEADLINE_NS:
            # The client gave up in the queue before dispatch.
            self.stats["deadline_misses"] += 1
            self.results[DEADLINE] = self.results.get(DEADLINE, 0) + 1
            return False
        return True

    def serve(self, thread, client, req, start):
        """One request through breaker, retries and deadline accounting.

        Returns the counted disposition, or ``RETRY`` when a power
        failure interrupted the request: the machine has then been
        recovered and audited, and the client re-issues the request.
        ``start`` is the dispatch (closed) or arrival (open) time the
        deadline counts from.
        """
        if not self.breaker.allow(thread.now):
            self.stats["breaker_rejects"] += 1
            thread.sleep(REJECT_NS)
            self.degrade_instant(thread, "degrade.reject", client)
            disp = BROKEN
        else:
            disp = FAILED
            attempts = self.attempts
            for attempt in range(1, attempts + 1):
                try:
                    execute_request(self.service, thread, self.spec, req,
                                    self.history, client)
                except SimulatedPowerFailure:
                    _recover_and_audit(self, self.dispatched)
                    return RETRY
                except MediaError as exc:
                    if not exc.transient or attempt == attempts:
                        break
                    self.stats["retries"] += 1
                    self.degrade_instant(thread, "degrade.retry", client,
                                         {"attempt": attempt,
                                          "op": req.op})
                    thread.sleep(backoff_ns(self.retry_rngs[client],
                                            attempt))
                else:
                    disp = OK
                    if attempt > 1:
                        self.stats["retry_successes"] += 1
                    break
            self.breaker.record(disp == OK, thread.now)
            if disp == FAILED:
                self.stats["failures"] += 1
            elif not self.naive and thread.now - start > DEADLINE_NS:
                self.stats["deadline_misses"] += 1
        if len(self.breaker.transitions) != self._breaker_seen:
            self.drain_breaker_events()
        self.results[disp] = self.results.get(disp, 0) + 1
        if disp != OK:
            self.obs.error(req.op, thread.now)
        if self.inflight is not None:
            heappush(self.inflight, thread.now)
        return disp


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
        # Arm the controller a seeded handful of persists ahead, so
        # the failure lands *inside* whichever request persists next.
        env.controller.crash_at = \
            env.controller.persists + 1 + rng.randrange(4)
        env.chaos_instant("chaos.crash_armed", {"at_op": at_op})
    elif kind == "poison" or kind == "transient":
        draw = rng.randrange(1 << 16)
        site = env.controller.poison_site(draw) if kind == "poison" \
            else env.controller.transient_site(draw, errors=TRANSIENT_ERRORS)
        env.chaos_instant("chaos." + kind, {
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


# -- crash, recovery and the oracle ------------------------------------------

def _recover_and_audit(env, at_op, final=False):
    """Power-fail the machine, recover the service, audit durability.

    The platform contributes its own :class:`RecoveryReport`: a torn
    final XPLine is hardware-reported damage (real media would fail the
    line's ECC), so its chunk count lands in ``truncated`` and the
    oracle can excuse the acknowledged writes the tear rolled back.
    """
    env.controller.crash_at = None
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
    outcome = {"recovered": report.recovered,
               "truncated": report.truncated, "lost": report.lost,
               "violations": len(check["violations"])}
    tracer = env.machine.tracer
    if tracer is not None:
        tracer.complete(start, CAT_CHAOS, "chaos.recovery",
                        RECOVERY_GAP_NS, track="chaos", args=outcome)
    env.obs.event(start, "chaos.recovery", dict(
        {"at_op": at_op, "final": bool(final)}, **outcome))


# -- the cell ----------------------------------------------------------------

def chaos_serve_cell(payload):
    """Run one chaos cell; module-level so workers can pickle it.

    Traced through the harness, the cell's Chrome trace holds serve
    spans, fault instants, degrade events and recovery spans together.
    """
    env = _Env(payload)
    args = (env.machine, env.service, env.spec, env.records, env.ops)
    hooks = dict(seed=env.seed, load_end=env.load_end, obs=env.obs,
                 chaos=env)
    if env.open:
        served = open_loop(*args, payload["rate_kops"],
                           workers=env.clients, **hooks)
    else:
        served = closed_loop(*args, clients=env.clients, **hooks)
    _recover_and_audit(env, env.ops, final=True)
    results = env.results
    crashes = sum(1 for r in env.recoveries if not r["final"])
    obs = env.obs
    # Fold the cell's terminal tallies into the obs counters so the blob
    # stands alone: degrade stats, breaker churn, dispositions and audit
    # outcomes, all next to the latency histogram.
    for k, v in sorted(env.stats.items()):
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
        "degrade": env.stats,
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
    record["obs"] = obs.to_dict()
    return record
