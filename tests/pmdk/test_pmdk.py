"""Tests for the PMDK-like pool, allocator, transactions, micro-buffering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import MIB
from repro.pmdk import (
    Heap, MicroBufferTx, PmemPool, Transaction, TransactionError,
    class_bytes, recover, recover_microbuffer, size_class,
)
from repro.pmdk.study import figure15, noop_tx_latency
from repro.sim import Machine


def make_pool():
    m = Machine()
    t = m.thread()
    return m, t, PmemPool.create(m, t)


class TestHeap:
    def test_size_classes(self):
        assert size_class(1) == 0
        assert size_class(64) == 0
        assert size_class(65) == 1
        assert class_bytes(1) == 128

    def test_alloc_free_recycles(self):
        h = Heap(0, 1 << 20)
        a = h.alloc(100)
        h.free(a, 100)
        assert h.alloc(100) == a

    def test_distinct_allocations(self):
        h = Heap(0, 1 << 20)
        addrs = {h.alloc(64) for _ in range(100)}
        assert len(addrs) == 100

    def test_exhaustion(self):
        h = Heap(0, 256)
        h.alloc(128)
        with pytest.raises(MemoryError):
            h.alloc(256)

    def test_alignment(self):
        h = Heap(0, 1 << 20)
        for _ in range(10):
            assert h.alloc(33) % 64 == 0

    @given(st.lists(st.integers(1, 4096), min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_no_overlaps(self, sizes):
        h = Heap(0, 1 << 22)
        spans = []
        for n in sizes:
            a = h.alloc(n)
            for b, m in spans:
                assert a + n <= b or b + m <= a
            spans.append((a, n))


class TestPool:
    def test_create_open_roundtrip(self):
        m, t, pool = make_pool()
        pool.set_root(t, 4242)
        m.power_fail()
        reopened = PmemPool.open(m)
        assert reopened.root() == 4242

    def test_open_sizes_heap_from_persisted_header(self):
        # open() used to build the heap from the default 64 MiB / lane
        # count before reading the header, so recovery of a larger pool
        # could not reserve past 64 MiB.
        m = Machine()
        t = m.thread()
        pool = PmemPool.create(m, t, size=96 * MIB, lanes=2)
        pool.heap.reserve_to(pool.base + 64 * MIB)
        high = pool.heap.alloc(4096)
        assert high >= pool.base + 64 * MIB
        pool.set_root(t, high - pool.base)
        m.power_fail()
        reopened = PmemPool.open(m)
        assert (reopened.size, reopened.lanes) == (96 * MIB, 2)
        assert reopened.root() == high - pool.base
        assert (reopened.heap.base, reopened.heap.span) == (
            pool.heap.base, pool.heap.span)
        reopened.heap.reserve_to(high + 4096)
        assert reopened.heap.alloc(64) >= high + 4096

    def test_open_without_pool_fails(self):
        m = Machine()
        with pytest.raises(ValueError):
            PmemPool.open(m)

    def test_lane_bases_distinct(self):
        _, _, pool = make_pool()
        bases = {pool.lane_base(i) for i in range(pool.lanes)}
        assert len(bases) == pool.lanes

    def test_bad_lane(self):
        _, _, pool = make_pool()
        with pytest.raises(ValueError):
            pool.lane_base(99)


class TestTransaction:
    def test_commit_persists(self):
        m, t, pool = make_pool()
        obj = pool.heap.alloc(128) - pool.base
        with Transaction(pool, t) as tx:
            tx.store(obj, b"A" * 128)
        m.power_fail()
        assert pool.read_persistent(obj, 128) == b"A" * 128

    def test_abort_rolls_back(self):
        m, t, pool = make_pool()
        obj = pool.heap.alloc(64) - pool.base
        pool.write(t, obj, b"0" * 64)
        tx = Transaction(pool, t)
        tx.begin()
        tx.store(obj, b"1" * 64)
        tx.abort()
        assert pool.read_volatile(obj, 64) == b"0" * 64

    def test_exception_aborts(self):
        m, t, pool = make_pool()
        obj = pool.heap.alloc(64) - pool.base
        pool.write(t, obj, b"0" * 64)
        with pytest.raises(RuntimeError):
            with Transaction(pool, t) as tx:
                tx.store(obj, b"1" * 64)
                raise RuntimeError("boom")
        assert pool.read_volatile(obj, 64) == b"0" * 64

    def test_crash_mid_tx_recovers_old_state(self):
        m, t, pool = make_pool()
        obj = pool.heap.alloc(64) - pool.base
        pool.write(t, obj, b"old" + b"\x00" * 61)
        tx = Transaction(pool, t)
        tx.begin()
        tx.store(obj, b"new" + b"\xff" * 61)
        # make the in-place damage durable, then crash before commit
        pool.ns.clwb(t, pool.addr(obj), 64)
        t.sfence()
        m.power_fail()
        pool2 = PmemPool.open(m)
        t2 = m.thread()
        assert recover(pool2, t2) == 1
        assert pool2.read_persistent(obj, 3) == b"old"

    def test_crash_after_commit_keeps_new_state(self):
        m, t, pool = make_pool()
        obj = pool.heap.alloc(64) - pool.base
        with Transaction(pool, t) as tx:
            tx.store(obj, b"new" + b"\x00" * 61)
        m.power_fail()
        pool2 = PmemPool.open(m)
        assert recover(pool2, m.thread()) == 0
        assert pool2.read_persistent(obj, 3) == b"new"

    def test_multiple_ranges(self):
        m, t, pool = make_pool()
        a = pool.heap.alloc(64) - pool.base
        b = pool.heap.alloc(64) - pool.base
        with Transaction(pool, t) as tx:
            tx.store(a, b"A" * 64)
            tx.store(b, b"B" * 64)
        m.power_fail()
        assert pool.read_persistent(a, 1) == b"A"
        assert pool.read_persistent(b, 1) == b"B"

    def test_nesting_rejected(self):
        m, t, pool = make_pool()
        tx = Transaction(pool, t)
        tx.begin()
        with pytest.raises(TransactionError):
            tx.begin()

    def test_commit_without_begin_rejected(self):
        m, t, pool = make_pool()
        with pytest.raises(TransactionError):
            Transaction(pool, t).commit()


class TestMicroBuffer:
    def test_commit_persists(self):
        m, t, pool = make_pool()
        obj = pool.heap.alloc(256) - pool.base
        tx = MicroBufferTx(pool, t)
        buf = tx.open(obj, 256)
        buf[:] = b"Z" * 256
        tx.commit()
        m.power_fail()
        assert pool.read_persistent(obj, 256) == b"Z" * 256

    def test_redo_mode_replays_after_crash(self):
        m, t, pool = make_pool()
        obj = pool.heap.alloc(128) - pool.base
        tx = MicroBufferTx(pool, t, writeback="clwb", redo=True)
        buf = tx.open(obj, 128)
        buf[:] = b"R" * 128
        # Crash after the redo append but before any write-back: simulate
        # by appending the redo image manually and crashing.
        tx._append_redo(bytes(buf))
        m.power_fail()
        pool2 = PmemPool.open(m)
        assert recover_microbuffer(pool2, m.thread()) == 1
        assert pool2.read_persistent(obj, 128) == b"R" * 128

    def test_discard_leaves_object_untouched(self):
        m, t, pool = make_pool()
        obj = pool.heap.alloc(64) - pool.base
        pool.write(t, obj, b"0" * 64)
        tx = MicroBufferTx(pool, t)
        buf = tx.open(obj, 64)
        buf[:] = b"X" * 64
        tx.discard()
        assert pool.read_volatile(obj, 64) == b"0" * 64

    def test_double_open_rejected(self):
        m, t, pool = make_pool()
        tx = MicroBufferTx(pool, t)
        tx.open(0, 64)
        with pytest.raises(RuntimeError):
            tx.open(64, 64)

    def test_bad_writeback_mode(self):
        m, t, pool = make_pool()
        with pytest.raises(ValueError):
            MicroBufferTx(pool, t, writeback="movnti")


class TestFigure15:
    def test_clwb_faster_for_tiny_objects(self):
        nt = noop_tx_latency("ntstore", 64, reps=30).mean_ns
        clwb = noop_tx_latency("clwb", 64, reps=30).mean_ns
        assert clwb < nt

    def test_ntstore_faster_for_large_objects(self):
        nt = noop_tx_latency("ntstore", 8192, reps=15).mean_ns
        clwb = noop_tx_latency("clwb", 8192, reps=15).mean_ns
        assert nt < 0.97 * clwb

    def test_crossover_in_paper_regime(self):
        curves = figure15(sizes=(64, 256, 1024, 4096), reps=20)
        nt = dict(curves["PGL-NT"])
        clwb = dict(curves["PGL-CLWB"])
        assert clwb[64] < nt[64]
        assert nt[4096] < clwb[4096]
