"""Closed- and open-loop serving drivers.

Two ways of applying a workload to a service, with very different tail
behavior — the distinction the paper's latency-vs-load curves hinge on:

* **closed loop** — ``clients`` simulated threads each issue their
  request stream back-to-back: a slow request delays that client's
  *next* request, so the offered load self-throttles and latency stays
  near service time even at the throughput ceiling.  Clients are
  interleaved by the virtual-time scheduler, so contention on shared
  hardware (WPQ, XPBuffer, media banks) is captured deterministically.
* **open loop** — requests arrive by a deterministic Poisson process at
  a configured rate, whether or not earlier requests finished.  Past
  the saturation knee the queue grows without bound and p99 latency
  diverges — the behavior closed-loop measurement structurally cannot
  show (Schroeder et al.'s classic open-vs-closed distinction).

Both fold each request's latency and completion time into an
:class:`~repro.obs.recorder.ObsRecorder` and report its summary, so
reports are directly comparable.  Chaos cells run these same loops,
with faults, recovery and the degradation layer behind a ``chaos``
hook object (:mod:`repro.chaos_serve.driver`).  Everything runs on
virtual clocks from seeded generators: the same arguments produce a
byte-identical report on any host, serial or parallel.
"""

from random import Random

from repro.obs.recorder import ObsRecorder
from repro.sim.engine import run_interleaved
from repro.telemetry.events import CAT_SERVE
from repro.workloads.generators import (
    RequestStream, make_key, make_value,
)

_NS_PER_S = 1e9
_NS_PER_US = 1e3

#: Latency fractions reported by every serve run.
LATENCY_FRACTIONS = (0.50, 0.90, 0.99, 0.999)

#: What a chaos ``serve`` hook returns: ``OK`` (the loop records the
#: request), another disposition (already counted by the hook), or
#: ``RETRY`` (a power failure interrupted it; the client re-issues it).
OK = "ok"
RETRY = "retry"


def execute_request(service, thread, spec, req, history=None, client=0):
    """Apply one generated request to a service on a thread — the one
    op dispatch every serving loop, chaos included, goes through.

    Returns the op actually performed (rmw stays "rmw").  This is where
    the service acks: when a mutation returns, the client may act on
    it, so an installed persistency checker (:mod:`repro.pmcheck`)
    treats the return as the ack boundary — every PM line the mutation
    wrote must be fence-ordered durable by then.  Reads and scans
    promise nothing and are not windowed.

    ``history`` (a chaos :class:`~repro.chaos_serve.history.History`)
    records each mutation as ``client`` saw it: begun just before the
    substrate call (after an rmw's get) and acked only when the call
    returns, so a power failure or media error in between leaves it in
    flight.
    """
    key = b"user%012d" % req.key_index      # make_key, inlined
    op = req.op
    if op == "read":
        service.get(thread, key)
        return op
    if op != "update" and op != "insert":
        if op == "scan":
            service.scan(thread, key, req.scan_len)
            return op
        if op == "rmw":
            service.get(thread, key)
        elif op != "delete":
            raise ValueError("unknown op %r" % op)
    if history is not None:
        # The history's mutation kinds: "put", or "delete" at version 0.
        delete = op == "delete"
        mut = history.begin(client, "delete" if delete else "put",
                            req.key_index, 0 if delete else req.version,
                            thread.now)
    pmcheck = thread.machine.pmcheck
    if pmcheck is not None:
        pmcheck.op_begin(thread, op)
    if op == "delete":
        service.delete(thread, key)
    else:
        service.put(thread, key,
                    make_value(spec, req.key_index, req.version))
    if pmcheck is not None:
        pmcheck.op_ack(thread)
    if history is not None:
        history.ack(mut, thread.now)
    return op


def preload(service, machine, spec, records, seed=0):
    """Load the initial keyspace; returns the load-end virtual time.

    Every serve run starts from the same populated state: keys
    ``0..records-1`` at version 0, written by one loader thread.
    """
    thread = machine.thread()
    put = service.put
    for index in range(records):
        put(thread, make_key(index), make_value(spec, index, 0))
    return thread.now


def _recorder(obs, service, spec):
    """The run's recorder: the caller's, which must be empty, or a new
    one for ``(service.name, spec.name)``."""
    if obs is None:
        return ObsRecorder(service.name, workload=spec.name)
    if obs.hist.total():
        raise ValueError("obs recorder already holds %d requests"
                         % obs.hist.total())
    return obs


def _summarize(obs, latencies_ns, end_ts_ns, ops_by_type, start_ns,
               end_ns):
    """Fold the run's requests into ``obs``; the common report body.

    Percentiles are the histogram's; ``mean`` and ``max`` are exact
    over the per-request latencies.
    """
    obs.ingest(latencies_ns, end_ts_ns)
    obs.ingest_ops(ops_by_type)
    ops = obs.hist.total()
    elapsed_s = max(end_ns - start_ns, 1.0) / _NS_PER_S
    latency_us = obs.latency_us(LATENCY_FRACTIONS)
    latency_us["mean"] = round(
        sum(latencies_ns) / ops / _NS_PER_US, 3) if ops else 0.0
    latency_us["max"] = round(
        max(latencies_ns) / _NS_PER_US, 3) if ops else 0.0
    return {
        "ops": ops,
        "ops_by_type": dict(sorted(ops_by_type.items())),
        "sim_seconds": round(elapsed_s, 9),
        "achieved_kops": round(ops / elapsed_s / 1e3, 3),
        "latency_us": latency_us,
    }


#: Requests prefetched per client between executions.
#: Generation never reads machine state, so any chunking is safe; this
#: bounds the prefetch memory while amortizing the batch setup.
_CHUNK = 256


def _client_step(service, spec, thread, client, stream, budget,
                 ops_by_type, lists, chaos=None):
    """One-request step closure for the closed loop.

    Each call takes the client's next request (prefetched in chunks via
    the stream's batch API), applies it through :func:`execute_request`
    or the chaos hook's ``serve``, records the latency, traces, and
    counts.

    ``lists`` is a ``(latencies, ts)`` pair receiving each request's
    latency and completion time, the recorder's input; histogram and
    window folds happen in bulk after the loop.

    A chaos request a power failure interrupted returns ``False``
    unconsumed: :func:`run_interleaved` steps the client again when its
    clock is next the lowest, and it re-issues the request without a
    new dispatch.
    """
    tracer = thread.machine.tracer
    lat_append = lists[0].append
    ts_append = lists[1].append
    next_requests = stream.next_requests
    batch = []
    pos = 0
    left = budget
    reissue = False

    def step():
        nonlocal batch, pos, left, reissue
        if pos == len(batch):
            n = _CHUNK if left > _CHUNK else left
            batch = next_requests(n)
            left -= n
            pos = 0
        req = batch[pos]
        pos += 1
        begin = thread.now
        if chaos is None:
            op = execute_request(service, thread, spec, req)
        else:
            if not reissue:
                chaos.dispatch()
            op = chaos.serve(thread, client, req, begin)
            reissue = op is RETRY
            if reissue:
                pos -= 1
                return False
            if op != OK:
                return
            op = req.op
        end = thread.now
        lat_append(end - begin)
        ts_append(end)
        if tracer is not None:
            tracer.complete(begin, CAT_SERVE, op, end - begin,
                            track="client%d" % thread.tid)
        ops_by_type[op] = ops_by_type.get(op, 0) + 1

    return step


def closed_loop(machine, service, spec, records, ops, clients=2,
                seed=0, load_end=None, obs=None, chaos=None):
    """Serve ``ops`` requests from ``clients`` closed-loop clients.

    The op budget is split evenly (the remainder goes to the lowest
    client ids, keeping the split deterministic).  Returns the report
    dict.  ``load_end`` skips the internal preload when the caller
    already ran :func:`preload` (pass its return value) — the
    wall-clock benchmarks use this to time serving separately.

    ``obs`` is an optional, empty :class:`repro.obs.ObsRecorder` (a
    fresh one is made when it is ``None``): during the loop only
    per-request latencies and completion timestamps are collected (two
    list appends per request); latency histogram, SLO windows and
    per-op counts are folded in bulk once the loop finishes, and the
    report is the recorder's summary of them.

    ``chaos`` is an optional chaos cell's hooks: ``dispatch()`` before
    each fresh request, ``serve()`` in place of the plain dispatch, and
    ``threads`` set to the serving threads.  ``ops`` in a chaos report
    counts only requests served ``OK``.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    obs = _recorder(obs, service, spec)
    start_ns = preload(service, machine, spec, records, seed=seed) \
        if load_end is None else load_end
    threads = machine.threads(clients)
    if chaos is not None:
        chaos.threads = threads
    ops_by_type = {}
    per_client = [ops // clients + (1 if c < ops % clients else 0)
                  for c in range(clients)]
    lists = [([], []) for _ in threads]

    # Requests are prefetched in chunks and clients stepped in
    # min-clock order (ties to the lowest client id).
    entries = []
    for client, thread in enumerate(threads):
        thread.now = start_ns
        stream = RequestStream(spec, records, seed=seed, client=client)
        entries.append((thread, per_client[client],
                        _client_step(service, spec, thread, client,
                                     stream, per_client[client],
                                     ops_by_type, lists[client], chaos)))
    end_ns = run_interleaved(entries)
    req_lat = []
    req_ts = []
    for lat, ts in lists:
        req_lat.extend(lat)
        req_ts.extend(ts)
    report = _summarize(obs, req_lat, req_ts, ops_by_type, start_ns,
                        end_ns)
    report["mode"] = "closed"
    report["clients"] = clients
    return report


def open_loop(machine, service, spec, records, ops, rate_kops,
              workers=2, seed=0, load_end=None, obs=None, chaos=None):
    """Serve ``ops`` Poisson arrivals at ``rate_kops`` thousand ops/s.

    Arrival times come from a seeded exponential interarrival stream —
    deterministic, like everything else.  Requests are dispatched in
    arrival order to the earliest-free worker (ties to the lowest id);
    a request's latency is *completion minus arrival*, so queueing
    delay while every worker is busy counts against the SLO.  That is
    the open-loop property: past saturation the backlog — and p99 —
    grows without bound.  ``load_end``, ``obs`` and ``chaos`` work like
    :func:`closed_loop`'s; the chaos hooks add ``admit()`` after the
    worker scan (it may shed or deadline-drop the arrival) and their
    own ``arrival_rng``.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if rate_kops <= 0:
        raise ValueError("offered rate must be positive")
    obs = _recorder(obs, service, spec)
    start_ns = preload(service, machine, spec, records, seed=seed) \
        if load_end is None else load_end
    threads = machine.threads(workers)
    if chaos is not None:
        chaos.threads = threads
    streams = []
    for worker, thread in enumerate(threads):
        thread.now = start_ns
        streams.append(RequestStream(spec, records, seed=seed,
                                     client=worker))
    arrival_rng = Random((seed << 8) ^ 0xA221) if chaos is None \
        else chaos.arrival_rng
    mean_gap_ns = _NS_PER_S / (rate_kops * 1e3)
    ops_by_type = {}
    latencies = []
    end_ts = []
    clock = start_ns
    queue_peak = 0
    expovariate = arrival_rng.expovariate
    inv_gap = 1.0 / mean_gap_ns
    tracer = machine.tracer
    ops_get = ops_by_type.get
    append_latency = latencies.append
    ts_append = end_ts.append
    for index in range(1, ops + 1):
        clock += expovariate(inv_gap)
        # Earliest-free worker (ties to the lowest id: threads are in
        # tid order and the scan keeps the first minimum) and the count
        # of workers still busy past the arrival, in one pass.
        worker = 0
        thread = threads[0]
        best_now = thread.now
        waiting = 1 if best_now > clock else 0
        for wi in range(1, workers):
            t = threads[wi]
            now = t.now
            if now > clock:
                waiting += 1
            if now < best_now:
                worker = wi
                thread = t
                best_now = now
        if waiting > queue_peak:
            queue_peak = waiting
        if chaos is not None and not chaos.admit(index, clock, best_now):
            continue
        if best_now < clock:
            thread.now = clock
        req = streams[worker].next_request()
        begin = thread.now
        if chaos is None:
            op = execute_request(service, thread, spec, req)
        else:
            op = chaos.serve(thread, worker, req, clock)
            while op is RETRY:
                op = chaos.serve(thread, worker, req, clock)
            if op != OK:
                continue
            op = req.op
        end = thread.now
        if tracer is not None:
            tracer.complete(begin, CAT_SERVE, op, end - begin,
                            track="client%d" % thread.tid)
        ops_by_type[op] = ops_get(op, 0) + 1
        append_latency(end - clock)
        ts_append(end)
    end_ns = max(t.now for t in threads)
    report = _summarize(obs, latencies, end_ts, ops_by_type, start_ns,
                        end_ns)
    report["mode"] = "open"
    report["workers"] = workers
    report["offered_kops"] = round(rate_kops, 3)
    report["busy_workers_peak"] = queue_peak
    return report
