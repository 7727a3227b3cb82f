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

Both record per-request latency and produce the same report shape, so
reports are directly comparable.  Everything runs on virtual clocks
from seeded generators: the same arguments produce a byte-identical
report on any host, serial or parallel.
"""

from random import Random

from repro.lattester.stats import percentile
from repro.sim.engine import run_interleaved
from repro.telemetry.events import CAT_SERVE
from repro.workloads.generators import (
    RequestStream, make_key, make_value,
)

_NS_PER_S = 1e9
_NS_PER_US = 1e3

#: Latency fractions reported by every serve run.
LATENCY_FRACTIONS = (0.50, 0.90, 0.99, 0.999)


def execute_request(service, thread, spec, req):
    """Apply one generated request to a service on a thread.

    Returns the op actually performed (rmw stays "rmw").

    This is where the service acks: when a mutation returns, the client
    may act on it, so an installed persistency checker
    (:mod:`repro.pmcheck`) treats the return as the ack boundary —
    every PM line the mutation wrote must be fence-ordered durable by
    then.  Reads and scans promise nothing and are not windowed.
    """
    pmcheck = thread.machine.pmcheck
    key = make_key(req.key_index)
    op = req.op
    if op == "read":
        service.get(thread, key)
    elif op == "update" or op == "insert":
        if pmcheck is not None:
            pmcheck.op_begin(thread, op)
        service.put(thread, key,
                    make_value(spec, req.key_index, req.version))
        if pmcheck is not None:
            pmcheck.op_ack(thread)
    elif op == "scan":
        service.scan(thread, key, req.scan_len)
    elif op == "rmw":
        service.get(thread, key)
        if pmcheck is not None:
            pmcheck.op_begin(thread, op)
        service.put(thread, key,
                    make_value(spec, req.key_index, req.version))
        if pmcheck is not None:
            pmcheck.op_ack(thread)
    elif op == "delete":
        if pmcheck is not None:
            pmcheck.op_begin(thread, op)
        service.delete(thread, key)
        if pmcheck is not None:
            pmcheck.op_ack(thread)
    else:
        raise ValueError("unknown op %r" % op)
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


def _summarize(latencies_ns, ops_by_type, start_ns, end_ns, ops):
    """The common report body from recorded latencies."""
    elapsed_s = max(end_ns - start_ns, 1.0) / _NS_PER_S
    lat = sorted(latencies_ns)
    latency_us = {}
    for frac in LATENCY_FRACTIONS:
        name = "p" + ("%g" % (frac * 100)).replace(".", "")
        latency_us[name] = round(
            percentile(lat, frac) / _NS_PER_US, 3)
    latency_us["mean"] = round(
        (sum(lat) / len(lat)) / _NS_PER_US, 3) if lat else 0.0
    latency_us["max"] = round(lat[-1] / _NS_PER_US, 3) if lat else 0.0
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


def _client_step(service, machine, spec, thread, stream, budget,
                 ops_by_type, obs_lists=None):
    """One-request step closure for the closed loop.

    Each call takes the client's next request, applies it (the
    :func:`execute_request` dispatch inlined with the per-op attribute
    lookups hoisted), records the latency, traces, and counts.
    Requests are prefetched in chunks via the stream's batch API.

    ``obs_lists`` is the observability hook: a ``(latencies, ts)``
    pair of lists that receive each *request's* latency and completion
    time (``thread.latencies`` also carries per-cache-line entries
    from the namespace paths, so the recorder needs its own
    request-granularity series).  Two bound-method calls per request —
    the entire hot-loop cost of recording; histogram and window folds
    happen in bulk after the loop.
    """
    pmcheck = machine.pmcheck
    tracer = machine.tracer
    service_get = service.get
    service_put = service.put
    service_scan = service.scan
    service_delete = service.delete
    latencies = thread.latencies
    if obs_lists is None:
        obs_lat_append = obs_ts_append = None
    else:
        obs_lat_append = obs_lists[0].append
        obs_ts_append = obs_lists[1].append
    next_requests = stream.next_requests
    batch = []
    pos = 0
    left = budget

    def step():
        nonlocal batch, pos, left
        if pos == len(batch):
            n = _CHUNK if left > _CHUNK else left
            batch = next_requests(n)
            left -= n
            pos = 0
        req = batch[pos]
        pos += 1
        begin = thread.now
        op = req.op
        key = b"user%012d" % req.key_index
        if op == "read":
            service_get(thread, key)
        elif op == "update" or op == "insert":
            if pmcheck is not None:
                pmcheck.op_begin(thread, op)
            service_put(thread, key,
                        make_value(spec, req.key_index, req.version))
            if pmcheck is not None:
                pmcheck.op_ack(thread)
        elif op == "scan":
            service_scan(thread, key, req.scan_len)
        elif op == "rmw":
            service_get(thread, key)
            if pmcheck is not None:
                pmcheck.op_begin(thread, op)
            service_put(thread, key,
                        make_value(spec, req.key_index, req.version))
            if pmcheck is not None:
                pmcheck.op_ack(thread)
        elif op == "delete":
            if pmcheck is not None:
                pmcheck.op_begin(thread, op)
            service_delete(thread, key)
            if pmcheck is not None:
                pmcheck.op_ack(thread)
        else:
            raise ValueError("unknown op %r" % op)
        end = thread.now
        latencies.append(end - begin)
        if obs_ts_append is not None:
            obs_lat_append(end - begin)
            obs_ts_append(end)
        if tracer is not None:
            tracer.complete(begin, CAT_SERVE, op, end - begin,
                            track="client%d" % thread.tid)
        ops_by_type[op] = ops_by_type.get(op, 0) + 1

    return step


def closed_loop(machine, service, spec, records, ops, clients=2,
                seed=0, load_end=None, obs=None):
    """Serve ``ops`` requests from ``clients`` closed-loop clients.

    The op budget is split evenly (the remainder goes to the lowest
    client ids, keeping the split deterministic).  Returns the report
    dict.  ``load_end`` skips the internal preload when the caller
    already ran :func:`preload` (pass its return value) — the
    wall-clock benchmarks use this to time serving separately.

    ``obs`` is an optional :class:`repro.obs.ObsRecorder`: during the
    loop only per-request latencies and completion timestamps are
    collected (two list appends per request); latency histogram, SLO
    windows and per-op counts are folded in bulk once the loop
    finishes.  The recorder keeps its own
    request-granularity series because ``thread.latencies`` — which
    :func:`_summarize` reports on — also carries per-cache-line
    entries from the namespace paths.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    start_ns = preload(service, machine, spec, records, seed=seed) \
        if load_end is None else load_end
    threads = machine.threads(clients)
    ops_by_type = {}
    per_client = [ops // clients + (1 if c < ops % clients else 0)
                  for c in range(clients)]
    obs_lists = None if obs is None else [([], []) for _ in threads]

    # Requests are prefetched in chunks and clients stepped in
    # min-clock order (ties to the lowest client id).
    entries = []
    for client, thread in enumerate(threads):
        thread.now = start_ns
        thread.collect_latencies()
        stream = RequestStream(spec, records, seed=seed, client=client)
        entries.append((thread, per_client[client],
                        _client_step(service, machine, spec, thread,
                                     stream, per_client[client],
                                     ops_by_type,
                                     None if obs_lists is None
                                     else obs_lists[client])))
    end_ns = run_interleaved(entries)
    latencies = []
    for thread in threads:
        latencies.extend(thread.latencies)
    if obs is not None:
        obs_lat = []
        obs_ts = []
        for pair in obs_lists:
            obs_lat.extend(pair[0])
            obs_ts.extend(pair[1])
        obs.ingest(obs_lat, obs_ts)
        obs.ingest_ops(ops_by_type)
    report = _summarize(latencies, ops_by_type, start_ns, end_ns, ops)
    report["mode"] = "closed"
    report["clients"] = clients
    return report


def open_loop(machine, service, spec, records, ops, rate_kops,
              workers=2, seed=0, load_end=None, obs=None):
    """Serve ``ops`` Poisson arrivals at ``rate_kops`` thousand ops/s.

    Arrival times come from a seeded exponential interarrival stream —
    deterministic, like everything else.  Requests are dispatched in
    arrival order to the earliest-free worker (ties to the lowest id);
    a request's latency is *completion minus arrival*, so queueing
    delay while every worker is busy counts against the SLO.  That is
    the open-loop property: past saturation the backlog — and p99 —
    grows without bound.  ``load_end`` skips the internal preload like
    :func:`closed_loop`'s, and ``obs`` records like
    :func:`closed_loop`'s (one timestamp append per request in the
    loop, bulk ingest after).
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if rate_kops <= 0:
        raise ValueError("offered rate must be positive")
    start_ns = preload(service, machine, spec, records, seed=seed) \
        if load_end is None else load_end
    threads = machine.threads(workers)
    streams = []
    for worker, thread in enumerate(threads):
        thread.now = start_ns
        streams.append(RequestStream(spec, records, seed=seed,
                                     client=worker))
    arrival_rng = Random((seed << 8) ^ 0xA221)
    mean_gap_ns = _NS_PER_S / (rate_kops * 1e3)
    ops_by_type = {}
    latencies = []
    end_ts = None if obs is None else []
    clock = start_ns
    queue_peak = 0
    expovariate = arrival_rng.expovariate
    inv_gap = 1.0 / mean_gap_ns
    tracer = machine.tracer
    ops_get = ops_by_type.get
    append_latency = latencies.append
    ts_append = None if end_ts is None else end_ts.append
    for _ in range(ops):
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
        if best_now < clock:
            thread.now = clock
        req = streams[worker].next_request()
        begin = thread.now
        op = execute_request(service, thread, spec, req)
        if tracer is not None:
            tracer.complete(begin, CAT_SERVE, op, thread.now - begin,
                            track="client%d" % thread.tid)
        ops_by_type[op] = ops_get(op, 0) + 1
        append_latency(thread.now - clock)
        if ts_append is not None:
            ts_append(thread.now)
    end_ns = max(t.now for t in threads)
    if obs is not None:
        obs.ingest(latencies, end_ts)
        obs.ingest_ops(ops_by_type)
    report = _summarize(latencies, ops_by_type, start_ns, end_ns, ops)
    report["mode"] = "open"
    report["workers"] = workers
    report["offered_kops"] = round(rate_kops, 3)
    report["busy_workers_peak"] = queue_peak
    return report
