"""Benchmark-side ``Service`` implementations and the read-back model.

* :class:`NullService` — advances the caller's clock and nothing else,
  so a serve loop driving it costs only the loop and the generators;
* :class:`SpanService` — delegates to a real adapter and records one
  span per call.  It sits *above* the adapter, so no namespace leaves
  its fused fast path;
* :func:`expected_values` / :func:`read_back` — a dict model of the
  last acknowledged version per key per client stream, independent of
  the repo's own durability oracle.
"""

import time

from repro.workloads.generators import RequestStream, make_key, make_value
from repro.workloads.service import Service


class NullService(Service):
    """Every operation takes a fixed simulated time and does nothing."""

    name = "null"

    def __init__(self, op_ns=100.0):
        self.op_ns = op_ns

    def get(self, thread, key):
        thread.now += self.op_ns
        return None

    def put(self, thread, key, value):
        thread.now += self.op_ns

    def scan(self, thread, key, count):
        thread.now += self.op_ns
        return []

    def delete(self, thread, key):
        thread.now += self.op_ns
        return False

    def recover(self):
        return NullService(self.op_ns), None


class SpanService(Service):
    """Delegate to ``inner`` and record a span per call.

    ``calls`` receives ``(op, tid, host_start_ns, host_end_ns,
    sim_start_ns, sim_end_ns)`` tuples; request ids and parents are
    attached after the run (:func:`perfbench.spans.request_ids`), which
    keeps the per-call cost to two clock reads and one append.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = []

    def get(self, thread, key):
        sim_start = thread.now
        host_start = time.perf_counter_ns()
        value = self.inner.get(thread, key)
        self.calls.append(("get", thread.tid, host_start,
                           time.perf_counter_ns(), sim_start, thread.now))
        return value

    def put(self, thread, key, value):
        sim_start = thread.now
        host_start = time.perf_counter_ns()
        self.inner.put(thread, key, value)
        self.calls.append(("put", thread.tid, host_start,
                           time.perf_counter_ns(), sim_start, thread.now))

    def scan(self, thread, key, count):
        sim_start = thread.now
        host_start = time.perf_counter_ns()
        pairs = self.inner.scan(thread, key, count)
        self.calls.append(("scan", thread.tid, host_start,
                           time.perf_counter_ns(), sim_start, thread.now))
        return pairs

    def delete(self, thread, key):
        sim_start = thread.now
        host_start = time.perf_counter_ns()
        existed = self.inner.delete(thread, key)
        self.calls.append(("delete", thread.tid, host_start,
                           time.perf_counter_ns(), sim_start, thread.now))
        return existed

    def recover(self):
        service, report = self.inner.recover()
        return SpanService(service), report

    def stats(self):
        return self.inner.stats()


# -- the read-back model -----------------------------------------------------

def client_budgets(ops, clients):
    """``closed_loop``'s split of ``ops`` over ``clients``."""
    return [ops // clients + (1 if c < ops % clients else 0)
            for c in range(clients)]


def replay(spec, records, seed, clients, ops):
    """Each closed-loop client's request list, regenerated."""
    return [RequestStream(spec, records, seed=seed,
                          client=client).next_requests(budget)
            for client, budget in enumerate(client_budgets(ops, clients))]


def arrival_span_ns(seed, rate_kops, ops):
    """Simulated time from start to the last arrival of an open loop.

    Replays ``open_loop``'s seeded Poisson arrival process, so the
    realised offered rate (``ops`` over this span) is known exactly
    instead of to within the 1/sqrt(ops) scatter of the nominal rate.
    """
    from random import Random
    draw = Random((seed << 8) ^ 0xA221).expovariate
    inv_gap = 1.0 / (1e9 / (rate_kops * 1e3))     # as open_loop spells it
    clock = 0.0
    for _ in range(ops):
        clock += draw(inv_gap)
    return clock


def expected_values(spec, records, streams):
    """``{key_index: set(acceptable values)}`` after serving ``streams``.

    Every key starts at its preload value.  Clients interleave in
    simulated-time order, which this model does not know, so a key
    written by several clients may hold the *last* version of any one
    of them; an older version of any stream is a mismatch.
    """
    last = {}
    for client, requests in enumerate(streams):
        for req in requests:
            if req.op in ("update", "insert", "rmw"):
                last.setdefault(req.key_index, {})[client] = make_value(
                    spec, req.key_index, req.version)
            elif req.op == "delete":
                last.setdefault(req.key_index, {})[client] = None
    model = {index: {make_value(spec, index, 0)}
             for index in range(records)}
    for index, by_client in last.items():
        model[index] = set(by_client.values())
    return model


def read_back(service, machine, model, keys=None):
    """Key indices whose ``Service.get`` is not an acceptable value."""
    thread = machine.thread()
    get = service.get
    bad = []
    for index in (sorted(model) if keys is None else keys):
        if get(thread, make_key(index)) not in model[index]:
            bad.append(index)
    return bad
