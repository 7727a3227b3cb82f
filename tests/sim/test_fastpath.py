"""Fast-path equivalence: batching must be invisible in the results.

The batched kernels (``yield_every`` + the namespace run entry
points), the fused per-line bodies in ``namespace.py``, the
single-workload scheduler bypass and the ``measure_bandwidth`` point
memo are pure performance work.  Every test here runs the same
experiment twice — fast paths on (the default) and forced off via
``engine.set_fastpath(False)``, which is the ``REPRO_FASTPATH=0``
code path — and requires *exact* equality: per-operation latencies,
per-DIMM counter deltas, final thread clocks, and (with a tracer
installed) the serialized trace, byte for byte.
"""

import contextlib
import dataclasses
import hashlib
import json
import random

import pytest

from repro._units import CACHELINE, KIB
from repro.lattester.access import (
    BATCH_LINES, address_stream, auto_yield_every, make_kernel,
    staggered_base, stream_signature,
)
from repro.lattester.bandwidth import (
    _POINT_MEMO, clear_point_memo, measure_bandwidth,
)
from repro.sim import Machine, run_workloads
from repro.sim import engine
from repro.sim.config import CacheConfig, default_config
from repro.sim.engine import Scheduler, ThreadCtx
from repro.telemetry import chrome_trace, recording

SPAN = 8 * KIB
KERNELS = ("read", "ntstore", "clwb", "store")
PATTERNS = ("seq", "rand")
THREAD_COUNTS = (1, 4)


@contextlib.contextmanager
def fastpath(enabled):
    prior = engine.set_fastpath(enabled)
    try:
        yield
    finally:
        engine.set_fastpath(prior)


@pytest.fixture(autouse=True)
def _clean_memo():
    clear_point_memo()
    yield
    clear_point_memo()


def run_point(op, pattern, threads, kind="optane", access=256,
              yield_every=None):
    """One experiment on a fresh machine; returns every observable.

    Counter deltas are frozen dataclasses and latencies are plain
    floats, so the returned dict compares exactly with ``==``.
    """
    machine = Machine()
    ns = machine.namespace(kind)
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


class TestKernelEquivalence:
    """Batched execution vs the per-line reference, for every kernel."""

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("op", KERNELS)
    def test_batched_matches_reference(self, op, pattern, threads):
        with fastpath(True):
            fast = run_point(op, pattern, threads)
        with fastpath(False):
            ref = run_point(op, pattern, threads)
        assert fast == ref

    @pytest.mark.parametrize("kind", ("optane-ni", "dram"))
    def test_other_kinds_match_reference(self, kind):
        with fastpath(True):
            fast = run_point("ntstore", "seq", 1, kind=kind)
        with fastpath(False):
            ref = run_point("ntstore", "seq", 1, kind=kind)
        assert fast == ref

    @pytest.mark.parametrize("access", (64, 1024))
    def test_access_sizes_match_reference(self, access):
        with fastpath(True):
            fast = run_point("clwb", "rand", 1, access=access)
        with fastpath(False):
            ref = run_point("clwb", "rand", 1, access=access)
        assert fast == ref

    def test_explicit_batch_matches_per_line(self):
        # Same fast-path setting, only the batch size differs: the run
        # entry points must book exactly the per-line loop's events.
        batched = run_point("ntstore", "seq", 1, yield_every=BATCH_LINES)
        per_line = run_point("ntstore", "seq", 1, yield_every=1)
        assert batched == per_line


class TestAutoYieldEvery:
    def test_single_thread_batches(self):
        with fastpath(True):
            assert auto_yield_every(1) == BATCH_LINES

    def test_multi_thread_forces_per_line(self):
        # Concurrent threads must interleave per beat or contention
        # modelling would coarsen.
        with fastpath(True):
            for threads in (2, 4, 16):
                assert auto_yield_every(threads) == 1

    def test_disabled_fastpath_forces_per_line(self):
        with fastpath(False):
            assert auto_yield_every(1) == 1


class TestTraceIdentity:
    """The tracer still sees every per-line event, in the same order."""

    def _trace(self, enabled):
        with fastpath(enabled):
            with recording() as tracer:
                run_point("clwb", "seq", 1)
            return chrome_trace(tracer)

    def test_fastpath_trace_matches_reference(self):
        fast = json.dumps(self._trace(True), sort_keys=True)
        ref = json.dumps(self._trace(False), sort_keys=True)
        assert fast == ref

    def test_same_seed_traces_are_byte_identical(self):
        first = json.dumps(self._trace(True), sort_keys=True)
        second = json.dumps(self._trace(True), sort_keys=True)
        assert first == second


class TestPointMemo:
    """The same-simulation memo replays only provably identical points."""

    POINT = dict(kind="optane", op="ntstore", threads=1, access=256,
                 pattern="seq", per_thread=SPAN)

    def _numbers(self, res):
        return (res.gbps, res.elapsed_ns, res.total_bytes, res.ewr)

    def test_hit_equals_fresh_compute(self):
        with fastpath(True):
            first = measure_bandwidth(**self.POINT)
            assert _POINT_MEMO
            hit = measure_bandwidth(**self.POINT)
            clear_point_memo()
            fresh = measure_bandwidth(**self.POINT)
        assert self._numbers(hit) == self._numbers(first)
        assert self._numbers(fresh) == self._numbers(first)

    def test_seq_access_sizes_collapse_to_one_point(self):
        # A line-aligned sequential stream expands to the same per-line
        # sequence whatever the access size, so the sweep's seq rows
        # share one simulation.
        with fastpath(True):
            small = measure_bandwidth(**dict(self.POINT, access=64))
            assert len(_POINT_MEMO) == 1
            large = measure_bandwidth(**dict(self.POINT, access=4096))
            assert len(_POINT_MEMO) == 1
        assert self._numbers(small) == self._numbers(large)
        # The echo fields still reflect what the caller asked for.
        assert small.access == 64 and large.access == 4096

    def test_rand_points_do_not_collapse(self):
        with fastpath(True):
            measure_bandwidth(**dict(self.POINT, pattern="rand",
                                     access=64))
            measure_bandwidth(**dict(self.POINT, pattern="rand",
                                     access=256))
        assert len(_POINT_MEMO) == 2

    def test_disabled_when_fastpath_off(self):
        with fastpath(False):
            measure_bandwidth(**self.POINT)
        assert not _POINT_MEMO

    def test_disabled_with_tracer(self):
        with fastpath(True), recording():
            measure_bandwidth(**self.POINT)
        assert not _POINT_MEMO

    def test_disabled_with_supplied_machine(self):
        with fastpath(True):
            measure_bandwidth(machine=Machine(), **self.POINT)
        assert not _POINT_MEMO

    def test_disabled_with_custom_kernel_kwargs(self):
        with fastpath(True):
            measure_bandwidth(fence_every=256, **self.POINT)
        assert not _POINT_MEMO


class TestStreamSignature:
    def test_seq_drops_access_size(self):
        assert stream_signature(0, SPAN, 64, "seq") == \
            stream_signature(0, SPAN, 4096, "seq")

    def test_seq_keeps_truncated_span(self):
        # 10 KiB holds 160 lines but only two whole 4 KiB accesses:
        # the expanded streams differ, so the signatures must too.
        span = 10 * KIB
        assert stream_signature(0, span, 64, "seq") != \
            stream_signature(0, span, 4096, "seq")

    def test_unaligned_access_is_not_collapsed(self):
        assert stream_signature(0, SPAN, 96, "seq") != \
            stream_signature(0, SPAN, 192, "seq")

    def test_rand_keeps_every_parameter(self):
        base = stream_signature(0, SPAN, 64, "rand", seed=1)
        assert base != stream_signature(0, SPAN, 64, "rand", seed=2)
        assert base != stream_signature(0, SPAN, 256, "rand", seed=1)
        assert base != stream_signature(64, SPAN, 64, "rand", seed=1)

    def test_equal_signatures_mean_equal_line_streams(self):
        reference = list(range(0, SPAN, CACHELINE))
        for access in (64, 256, 4096):
            addrs = address_stream(0, SPAN, access, "seq")
            lines = [a + off for a in addrs
                     for off in range(0, access, CACHELINE)]
            assert lines == reference


class TestSchedulerReuse:
    """``reset`` lets one scheduler be reused without stale entries."""

    @staticmethod
    def _thread():
        return ThreadCtx(None, tid=0, socket=0, load_window=4,
                         store_window=4)

    @staticmethod
    def _workload(thread, steps):
        def gen():
            for _ in range(steps):
                thread.sleep(10.0)
                yield
        return gen()

    def test_reset_forgets_finished_workloads(self):
        sched = Scheduler()
        t1 = self._thread()
        sched.spawn(t1, self._workload(t1, 3))
        assert sched.run() == 30.0
        sched.reset()
        assert sched.threads == []
        t2 = self._thread()
        sched.spawn(t2, self._workload(t2, 2))
        assert sched.run() == 20.0
        assert sched.threads == [t2]

    def test_run_workloads_leaves_no_references(self):
        t = self._thread()
        assert run_workloads([(t, self._workload(t, 5))]) == 50.0

    def test_single_workload_bypass_matches_heap_path(self):
        with fastpath(True):
            fast = run_point("read", "seq", 1, yield_every=1)
        with fastpath(False):
            ref = run_point("read", "seq", 1, yield_every=1)
        assert fast == ref


# -- over-capacity golden ----------------------------------------------------

def run_over_capacity():
    """A seeded access mix over 4x a 64 KiB cache; every observable.

    Single- and multi-line ``load``/``store``/``store``+``clwb``/
    ``ntstore`` plus the run entry points, so each hit path in
    ``namespace.py`` (fused, per-line, and the composed bodies when the
    fast path is off) refreshes recency on lines that later compete for
    eviction.
    """
    machine = Machine(default_config().with_overrides(
        cache=CacheConfig(capacity_bytes=64 * KIB)))
    ns = machine.namespace("optane")
    t = machine.thread()
    snaps = ns.counter_snapshots()
    victims = []
    evict = machine._evict_writeback

    def spy(key, now):
        victims.append(key[1])
        evict(key, now)

    machine._evict_writeback = spy
    rng = random.Random(1313)
    region = 256 * KIB
    for i in range(4000):
        op = rng.randrange(7)
        size = rng.choice((CACHELINE, CACHELINE, 256, 200))
        line = rng.randrange(0, region - 512, CACHELINE)
        addr = line + 8 if size == 200 else line  # unaligned, straddles
        if op == 0:
            ns.load(t, addr, size)
        elif op == 1:
            ns.store(t, addr, size)
        elif op == 2:
            ns.store(t, addr, size)
            ns.clwb(t, addr, size)
        elif op == 3:
            ns.ntstore(t, addr, size)
        elif op == 4:
            ns.store_run(t, line, 3, clwb=True)
        elif op == 5:
            ns.load_run(t, line, 3)
        else:
            ns.store_run(t, line, 2)
        if not i % 64:
            t.sfence()
    t.sfence()
    cache = machine.caches[0]
    return {
        "now": t.now,
        "hits": cache.hits,
        "misses": cache.misses,
        "occupancy": cache.occupancy(),
        "dirty": len(cache.dirty_keys()),
        "victims": len(victims),
        "victims_head": victims[:8],
        "victims_sha": hashlib.sha256(
            repr(victims).encode()).hexdigest()[:16],
        "counters": [dataclasses.astuple(d)
                     for d in ns.counter_deltas(snaps)],
    }


OVER_CAPACITY_GOLDEN = {
    "now": 279204.4000000011,
    "hits": 706,
    "misses": 2313,
    "occupancy": 1023,
    "dirty": 325,
    "victims": 1726,
    "victims_head": [138624, 8512, 50688, 218432, 123584, 27968, 63616,
                     121344],
    "victims_sha": "d6b144b7f5e4a41d",
    # Per DIMM: iMC read, iMC write, media read, media write bytes,
    # migrations.
    "counters": [
        (76288, 70976, 202496, 140288, 0),
        (72832, 64192, 183552, 124928, 0),
        (75776, 75200, 201472, 143872, 0),
        (75712, 71360, 196864, 139008, 0),
        (66432, 62912, 159744, 118784, 0),
        (69248, 63104, 164608, 120320, 0),
    ],
}


@pytest.mark.parametrize("enabled", (True, False))
def test_over_capacity_matches_stamp_lru_golden(enabled):
    # Recorded with the per-entry-stamp cache (min-stamp victim scan)
    # that preceded recency-in-set-order.  A hit path in namespace.py
    # that forgets to move its line to the end of the set changes which
    # dirty lines are evicted, and in what order.
    with fastpath(enabled):
        assert run_over_capacity() == OVER_CAPACITY_GOLDEN
