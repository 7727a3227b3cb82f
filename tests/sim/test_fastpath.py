"""Batching is invisible in the results, and so are the hooks.

There is one execution path: every simulated instruction has one body
in ``namespace.py``, the kernels batch by thread count
(``auto_yield_every``), a lone workload bypasses the scheduler heap and
``measure_bandwidth`` memoizes provably identical points.  The goldens
in ``tests/golden/single_path.json`` were recorded from the per-line /
composed / heap-scheduled reference execution before it was deleted
(on the parent commit, fast-path switch off); every case here must
reproduce them *exactly* — per-operation latencies, per-DIMM counter
deltas, final thread clocks, and (with a tracer installed) the
serialized trace, byte for byte.
"""

import contextlib
import dataclasses
import hashlib
import json
import random
import sys

import pytest

from repro._units import CACHELINE, KIB
from repro.chaos_serve import chaos_serve_cell
from repro.lattester.access import (
    BATCH_LINES, address_stream, auto_yield_every, make_kernel,
    stream_signature,
)
from repro.lattester.bandwidth import (
    _POINT_MEMO, clear_point_memo, measure_bandwidth,
)
from repro.pmcheck import PmCheck
from repro.sim import Machine, run_workloads
from repro.sim.cache import unpack
from repro.sim.config import CacheConfig, default_config
from repro.sim.engine import ThreadCtx
from repro.sim.namespace import Namespace
from repro.telemetry import recording
from repro.workloads import loadloop
from tests.golden.cases import (
    KERNELS, PATTERNS, SPAN, THREAD_COUNTS, check, names, run_case,
    run_point,
)


@pytest.fixture(autouse=True)
def _clean_memo():
    clear_point_memo()
    yield
    clear_point_memo()


class TestKernelEquivalence:
    """Batched execution vs the recorded per-line reference."""

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("op", KERNELS)
    def test_batched_matches_reference(self, op, pattern, threads):
        check("kernel/%s/%s/%dt" % (op, pattern, threads))

    @pytest.mark.parametrize("kind", ("optane-ni", "dram"))
    def test_other_kinds_match_reference(self, kind):
        check("kernel/ntstore/seq/1t/" + kind)

    @pytest.mark.parametrize("access", (64, 1024))
    def test_access_sizes_match_reference(self, access):
        check("kernel/clwb/rand/1t/%dB" % access)

    @pytest.mark.parametrize("kind", ("pmep", "memory-mode"))
    def test_emulated_kinds_match_reference(self, kind):
        # PMEP used to be diverted to the composed bodies by a no-op
        # override; Memory Mode still composes its own.
        for name in names("kernel/"):
            if name.endswith("/" + kind):
                check(name)

    def test_explicit_batch_matches_per_line(self):
        # Only the batch size differs: it moves the kernel's yields,
        # never a booking.
        batched = run_point("ntstore", "seq", 1, yield_every=BATCH_LINES)
        per_line = run_point("ntstore", "seq", 1, yield_every=1)
        assert batched == per_line


def run_shape(op, pattern, yield_every, **kwargs):
    """One single-thread kernel with non-default arguments; observables."""
    machine = Machine()
    ns = machine.namespace("optane")
    t = machine.thread().collect_latencies()
    snaps = ns.counter_snapshots()
    addrs = address_stream(0, 16 * KIB, 1 * KIB, pattern, seed=5)
    elapsed = run_workloads([(t, make_kernel(
        op, ns, t, addrs, 1 * KIB, yield_every=yield_every, **kwargs))])
    return {"elapsed": elapsed, "latencies": t.latencies,
            "bytes_written": t.bytes_written,
            "counters": ns.counter_deltas(snaps)}


class TestKernelShapes:
    """Fences and delays land between the same lines whatever the
    batch size (the goldens pin only the default kernel arguments)."""

    SHAPES = [
        ("read", {"delay_ns": 50.0}),
        ("ntstore", {"fence_every": 256}),
        ("ntstore", {"delay_ns": 50.0}),
        ("ntstore", {"fence_every": 256, "delay_ns": 50.0}),
        ("clwb", {"fence_every": 256}),
        ("clwb", {"delay_ns": 50.0}),
        ("clwb", {"fence_every": 256, "delay_ns": 50.0}),
        ("store", {"fence_every": 256}),
        ("store", {"delay_ns": 50.0}),
    ]

    @pytest.mark.parametrize("pattern", ("seq", "rand"))
    @pytest.mark.parametrize(
        "op,kwargs", SHAPES,
        ids=["%s-%s" % (op, "-".join(sorted(kw))) for op, kw in SHAPES])
    def test_batch_size_is_invisible(self, op, kwargs, pattern):
        per_line = run_shape(op, pattern, 1, **kwargs)
        assert per_line["elapsed"] > 0
        for yield_every in (7, BATCH_LINES):
            assert run_shape(op, pattern, yield_every, **kwargs) == per_line


class TestInstrumentedGoldens:
    """Tracer and checker ride the same bodies and see the same events.

    The goldens come from the composed bodies the instrumented runs used
    to be diverted to; the event stream / checker summary is part of
    each observable.
    """

    @pytest.mark.parametrize(
        "name", names("ntstore_run/") + names("store_clwb_run/"))
    def test_instrumented_run_matches_golden(self, name):
        check(name)

    def test_hooks_do_not_swap_code_objects(self):
        """Plain, traced and checked runs execute the same four bodies."""
        bodies = {getattr(Namespace, attr).__code__: attr for attr in (
            "_load_line", "_store_line", "_ntstore_line",
            "_store_clwb_line")}

        def executed(hook):
            seen = set()

            def profiler(frame, event, arg):
                if event == "call" and frame.f_code in bodies:
                    seen.add(bodies[frame.f_code])

            machine = Machine()
            ns = machine.namespace("optane")
            t = machine.thread()
            checker = PmCheck(machine).install() if hook == "pmcheck" \
                else None
            sys.setprofile(profiler)
            try:
                ns.load_run(t, 0, 4)
                ns.store_run(t, 0, 4)
                ns.ntstore(t, 4 * KIB, 256)
                ns.store_run(t, 8 * KIB, 4, clwb=True)
                t.sfence()
            finally:
                sys.setprofile(None)
            if checker is not None:
                checker.uninstall()
            return seen

        plain = executed(None)
        assert plain == set(bodies.values())
        with recording():
            assert executed("traced") == plain
        assert executed("pmcheck") == plain

    def test_chaos_runs_the_serving_loops(self):
        """A chaos cell executes the loop and dispatch ``repro serve``
        runs, not a copy of them."""
        step = next(c for c in loadloop._client_step.__code__.co_consts
                    if getattr(c, "co_name", None) == "step")
        bodies = {step: "step"}
        for name in ("closed_loop", "open_loop", "execute_request"):
            bodies[getattr(loadloop, name).__code__] = name

        def executed(**overrides):
            seen = set()

            def profiler(frame, event, arg):
                if event == "call" and frame.f_code in bodies:
                    seen.add(bodies[frame.f_code])

            payload = dict({
                "workload": "ycsb-a", "substrate": "lsm",
                "scenario": "power-fail", "mode": "closed",
                "naive": False, "seed": 0, "records": 64, "ops": 60,
                "clients": 2}, **overrides)
            sys.setprofile(profiler)
            try:
                record = chaos_serve_cell(payload)
            finally:
                sys.setprofile(None)
            assert record["faults"]["crashes"] == 2
            return seen

        assert executed() == {"closed_loop", "step", "execute_request"}
        assert executed(mode="open", rate_kops=400.0) == {
            "open_loop", "execute_request"}


class TestAutoYieldEvery:
    def test_single_thread_batches(self):
        assert auto_yield_every(1) == BATCH_LINES

    def test_multi_thread_forces_per_line(self):
        # Concurrent threads must interleave per beat or contention
        # modelling would coarsen.
        for threads in (2, 4, 16):
            assert auto_yield_every(threads) == 1


class TestTraceIdentity:
    """The tracer still sees every per-line event, in the same order."""

    def test_fastpath_trace_matches_reference(self):
        check("trace/clwb/seq/1t")

    def test_same_seed_traces_are_byte_identical(self):
        first = json.dumps(run_case("trace/clwb/seq/1t"), sort_keys=True)
        second = json.dumps(run_case("trace/clwb/seq/1t"), sort_keys=True)
        assert first == second


class TestPointMemo:
    """The same-simulation memo replays only provably identical points."""

    POINT = dict(kind="optane", op="ntstore", threads=1, access=256,
                 pattern="seq", per_thread=SPAN)

    def _numbers(self, res):
        return (res.gbps, res.elapsed_ns, res.total_bytes, res.ewr)

    def test_hit_equals_fresh_compute(self):
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
        small = measure_bandwidth(**dict(self.POINT, access=64))
        assert len(_POINT_MEMO) == 1
        large = measure_bandwidth(**dict(self.POINT, access=4096))
        assert len(_POINT_MEMO) == 1
        assert self._numbers(small) == self._numbers(large)
        # The echo fields still reflect what the caller asked for.
        assert small.access == 64 and large.access == 4096

    def test_rand_points_do_not_collapse(self):
        measure_bandwidth(**dict(self.POINT, pattern="rand", access=64))
        measure_bandwidth(**dict(self.POINT, pattern="rand", access=256))
        assert len(_POINT_MEMO) == 2

    def test_disabled_with_tracer(self):
        with recording():
            measure_bandwidth(**self.POINT)
        assert not _POINT_MEMO

    def test_disabled_with_supplied_machine(self):
        measure_bandwidth(machine=Machine(), **self.POINT)
        assert not _POINT_MEMO

    def test_disabled_with_custom_kernel_kwargs(self):
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
    """``run_workloads`` keeps no state between calls."""

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

    def test_run_workloads_leaves_no_references(self):
        t = self._thread()
        assert run_workloads([(t, self._workload(t, 5))]) == 50.0

    def test_single_workload_bypass_matches_heap_path(self):
        # The golden was scheduled through the heap, one beat per step.
        check("kernel/read/seq/1t",
              run_point("read", "seq", 1, yield_every=1))


# -- over-capacity golden ----------------------------------------------------

def run_over_capacity():
    """A seeded access mix over 4x a 64 KiB cache; every observable.

    Single- and multi-line ``load``/``store``/``store``+``clwb``/
    ``ntstore`` plus the run entry points, so each hit path in
    ``namespace.py`` refreshes recency on lines that later compete for
    eviction.
    """
    machine = Machine(default_config().with_overrides(
        cache=CacheConfig(capacity_bytes=64 * KIB)))
    ns = machine.namespace("optane")
    t = machine.thread()
    snaps = ns.counter_snapshots()
    victims = []
    evict = machine._evict_writeback

    def spy(tag, now):
        victims.append(unpack(tag)[1])
        evict(tag, now)

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


@pytest.mark.parametrize("traced", (True, False))
def test_over_capacity_matches_stamp_lru_golden(traced):
    # Recorded with the per-entry-stamp cache (min-stamp victim scan)
    # that preceded recency-in-set-order.  A hit path in namespace.py
    # that forgets to move its line to the end of the set changes which
    # dirty lines are evicted, and in what order — with or without a
    # tracer watching.
    with recording() if traced else contextlib.nullcontext():
        assert run_over_capacity() == OVER_CAPACITY_GOLDEN
