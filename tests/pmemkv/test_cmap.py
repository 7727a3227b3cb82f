"""Tests for the PMemKV cmap engine and the Figure 19 study."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import CACHELINE, KIB
from repro.core.guidelines import NTSTORE_CROSSOVER_BYTES
from repro.pmcheck import checking
from repro.pmcheck.state import V_ACK_BEFORE_FENCE, V_UNORDERED
from repro.pmdk import PmemPool
from repro.pmemkv import CMap, overwrite_benchmark
from repro.sim import Machine, run_workloads
from repro.sim.engine import ThreadCtx

#: Value sizes either side of the guideline-2 crossover: every YCSB,
#: chaos and pmcheck cell stores 100 B values; Figure 19 and the
#: serving preload store 1 KiB ones.
SMALL, LARGE = 100, KIB


def make_kv(buckets=512):
    m = Machine()
    t = m.thread()
    pool = PmemPool.create(m, t)
    return m, t, pool, CMap(pool, buckets=buckets)


class TestCMapFunctional:
    def test_put_get(self):
        _, t, _, kv = make_kv()
        kv.put(t, b"alpha", b"1")
        assert kv.get(t, b"alpha") == b"1"
        assert kv.get(t, b"beta") is None

    def test_same_size_overwrite(self):
        _, t, _, kv = make_kv()
        kv.put(t, b"k", b"aaaa")
        kv.put(t, b"k", b"bbbb")
        assert kv.get(t, b"k") == b"bbbb"
        assert len(kv) == 1

    def test_resize_overwrite(self):
        _, t, _, kv = make_kv()
        kv.put(t, b"k", b"small")
        kv.put(t, b"k", b"considerably-larger-value")
        assert kv.get(t, b"k") == b"considerably-larger-value"

    def test_collisions_resolved(self):
        _, t, _, kv = make_kv(buckets=8)
        for i in range(6):
            kv.put(t, b"key-%d" % i, b"v%d" % i)
        for i in range(6):
            assert kv.get(t, b"key-%d" % i) == b"v%d" % i

    @given(st.dictionaries(st.binary(min_size=1, max_size=10),
                           st.binary(min_size=1, max_size=24),
                           max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_matches_dict(self, model):
        _, t, _, kv = make_kv()
        for k, v in model.items():
            kv.put(t, k, v)
        for k, v in model.items():
            assert kv.get(t, k) == v
        assert len(kv) == len(model)


def reopen(m, table, buckets=512):
    m.power_fail()
    return CMap.open_report(PmemPool.open(m), table, buckets=buckets)


class TestCMapCrash:
    def test_inserts_survive_crash(self):
        m, t, pool, kv = make_kv()
        for i in range(60):
            kv.put(t, b"k%02d" % i, b"v%02d" % i)
        kv2, _ = reopen(m, kv.table_offset)
        t2 = m.thread()
        for i in range(60):
            assert kv2.get(t2, b"k%02d" % i) == b"v%02d" % i

    def test_publish_is_atomic(self):
        # Object persisted before the bucket pointer: a crash between
        # the two leaves the old mapping intact, never a dangling one.
        m, t, pool, kv = make_kv()
        kv.put(t, b"k", b"1111")
        kv2, _ = reopen(m, kv.table_offset)
        assert kv2.get(m.thread(), b"k") == b"1111"


class TestReopen:
    def test_put_after_reopen_survives_second_crash(self):
        # The deleted ``CMap.open`` rebuilt the index but not the heap,
        # so the first put after it was allocated at the heap base, on
        # top of the bucket table; a second crash then read a garbage
        # bucket pointer.  ``open_report`` is the one reopen path.
        assert not hasattr(CMap, "open")
        m, t, _, kv = make_kv(buckets=64)
        for i in range(10):
            kv.put(t, b"k%d" % i, b"v" * SMALL)
        table = kv.table_offset
        kv2, _ = reopen(m, table, buckets=64)
        kv2.put(m.thread(), b"after", b"a" * SMALL)
        kv3, report = reopen(m, table, buckets=64)
        assert (report.recovered, report.lost) == (11, 0)
        t3 = m.thread()
        for i in range(10):
            assert kv3.get(t3, b"k%d" % i) == b"v" * SMALL
        assert kv3.get(t3, b"after") == b"a" * SMALL

    @pytest.mark.parametrize("garbage", [64, 1 << 40])
    def test_pointer_outside_heap_is_a_reported_loss(self, garbage):
        # One pointer into the pool header, one far past the pool end.
        m, t, pool, kv = make_kv(buckets=64)
        kv.put(t, b"good", b"g" * SMALL)
        free = next(i for i in range(64) if kv._vtable[i] == 0)
        pool.ns.data.write_persistent(
            pool.addr(kv._bucket_addr(free)), garbage.to_bytes(8, "little"))
        kv2, report = reopen(m, kv.table_offset, buckets=64)
        assert (report.recovered, report.lost) == (1, 1)
        assert any("outside the pool heap" in n for n in report.details)
        assert kv2.get(m.thread(), b"good") == b"g" * SMALL
        kv2.put(m.thread(), b"next", b"n" * SMALL)

    def test_object_running_past_heap_is_a_reported_loss(self):
        m, t, pool, kv = make_kv(buckets=64)
        kv.put(t, b"good", b"g" * SMALL)
        kv.put(t, b"bad", b"b" * SMALL)
        _, obj_off = kv._vindex[b"bad"]
        # vlen = the whole pool: past the heap end, yet small enough
        # that a scan reading the value before checking stays cheap.
        header = (3).to_bytes(4, "little") + pool.size.to_bytes(4, "little")
        pool.ns.data.write_persistent(pool.addr(obj_off), header)
        kv2, report = reopen(m, kv.table_offset, buckets=64)
        assert (report.recovered, report.lost) == (1, 1)
        assert any("runs past the pool heap" in n for n in report.details)
        assert kv2.get(m.thread(), b"bad") is None
        kv2.put(m.thread(), b"next", b"n" * SMALL)


def record_instructions(monkeypatch, ns):
    """Log ``(instruction, size)`` for every store/flush on ``ns``."""
    calls = []
    for name in ("store", "clflushopt", "ntstore"):
        def spy(thread, addr, size, *rest, _name=name,
                _real=getattr(ns, name), **kw):
            calls.append((_name, size))
            return _real(thread, addr, size, *rest, **kw)
        monkeypatch.setattr(ns, name, spy)
    return calls


def dimm_reads(ns, snaps):
    deltas = ns.counter_deltas(snaps)
    return (sum(d.imc_read_bytes for d in deltas),
            sum(d.media_read_bytes for d in deltas))


class TestPersistInstruction:
    """Guideline 2: objects at or above the crossover go out with
    ntstore, smaller ones with store + clflushopt."""

    def test_large_insert_uses_ntstore(self, monkeypatch):
        _, t, pool, kv = make_kv()
        calls = record_instructions(monkeypatch, pool.ns)
        kv.put(t, b"key", b"x" * LARGE)
        obj = 8 + 3 + LARGE
        assert obj >= NTSTORE_CROSSOVER_BYTES
        assert calls == [("ntstore", obj), ("store", 8), ("clflushopt", 8)]

    def test_small_insert_keeps_store_and_clflushopt(self, monkeypatch):
        _, t, pool, kv = make_kv()
        calls = record_instructions(monkeypatch, pool.ns)
        kv.put(t, b"key", b"x" * SMALL)
        obj = 8 + 3 + SMALL
        assert calls == [("store", obj), ("clflushopt", obj),
                         ("store", 8), ("clflushopt", 8)]

    def test_large_object_persist_reads_nothing(self):
        _, t, pool, kv = make_kv()
        obj = kv._encode_obj(b"key", b"x" * LARGE)
        off = pool.heap.alloc(len(obj)) - pool.base
        snaps = pool.ns.counter_snapshots()
        kv._persist(t, off, obj)
        assert dimm_reads(pool.ns, snaps) == (0, 0)

    @pytest.mark.parametrize("vlen, rfo_lines", [
        (SMALL, 2 + 1),            # object lines + the bucket line
        (LARGE, 1),                # the bucket line only
    ])
    def test_insert_write_allocates(self, vlen, rfo_lines):
        _, t, pool, kv = make_kv()
        snaps = pool.ns.counter_snapshots()
        kv.put(t, b"key", b"x" * vlen)
        imc_read, _ = dimm_reads(pool.ns, snaps)
        assert imc_read == rfo_lines * CACHELINE

    @pytest.mark.parametrize("atomic_updates", [False, True])
    def test_large_values_survive_crash(self, atomic_updates):
        m, t, pool, _ = make_kv()
        kv = CMap(pool, buckets=512, atomic_updates=atomic_updates)
        for i in range(8):
            kv.put(t, b"k%d" % i, bytes([i]) * LARGE)
        for i in range(0, 8, 2):                   # same-size updates
            kv.put(t, b"k%d" % i, bytes([0x80 | i]) * LARGE)
        kv.put(t, b"k1", b"\xff" * (2 * LARGE))    # resized update
        kv2, report = reopen(m, kv.table_offset)
        assert (report.recovered, report.lost) == (8, 0)
        t2 = m.thread()
        for i in range(8):
            want = bytes([0x80 | i if i % 2 == 0 else i]) * LARGE
            if i == 1:
                want = b"\xff" * (2 * LARGE)
            assert kv2.get(t2, b"k%d" % i) == want


class TestEveryFenceIsLoadBearing:
    """Skip exactly one ``sfence`` of a cmap put, on both instruction
    paths: the persistency checker must catch each."""

    @staticmethod
    def checked_put(monkeypatch, vlen, skip, update):
        m, t, _, kv = make_kv()
        if update:
            kv.put(t, b"key", b"a" * vlen)
        real = ThreadCtx.sfence
        fences = []

        def sfence(thread):
            fences.append(thread)
            if len(fences) != skip:
                real(thread)

        with checking(m) as checker:
            monkeypatch.setattr(ThreadCtx, "sfence", sfence)
            checker.op_begin(t, "put")
            kv.put(t, b"key", b"b" * vlen)
            checker.op_ack(t)
            monkeypatch.undo()
            return fences, checker.summary()["violations"]

    @pytest.mark.parametrize("vlen", [SMALL, LARGE])
    @pytest.mark.parametrize("update, skip, kind, note", [
        (False, None, None, None),
        (False, 1, V_UNORDERED, "cmap publish"),   # object -> bucket
        (False, 2, V_ACK_BEFORE_FENCE, None),      # bucket -> ack
        (True, None, None, None),
        (True, 1, V_ACK_BEFORE_FENCE, None),       # in place -> ack
    ])
    def test_skipped_fence_is_caught(self, monkeypatch, vlen, update, skip,
                                     kind, note):
        fences, violations = self.checked_put(monkeypatch, vlen, skip,
                                              update)
        assert len(fences) == (1 if update else 2)
        if kind is None:
            assert violations == []
            return
        assert kind in {v["kind"] for v in violations}, violations
        if note is not None:
            assert any(v["kind"] == kind and v["note"].startswith(note)
                       for v in violations), violations


class TestConcurrency:
    def test_concurrent_writers_all_land(self):
        m, t, pool, kv = make_kv()
        ts = m.threads(4)

        def worker(t):
            for i in range(40):
                kv.put(t, b"t%d-%02d" % (t.tid, i), b"x" * 32)
                yield

        run_workloads([(w, worker(w)) for w in ts])
        checker = m.thread()
        for w in ts:
            for i in range(40):
                assert kv.get(checker, b"t%d-%02d" % (w.tid, i)) == b"x" * 32

    def test_stripe_lock_serializes_time(self):
        _, t, _, kv = make_kv(buckets=2)   # both keys on stripe 0/1
        other = kv.pool.machine.thread()
        kv.put(t, b"a", b"1")
        unlock_times = list(kv._lock_free_at[:2])
        held = max(unlock_times)
        # A second thread hitting the same stripe at an earlier clock
        # is pushed past the first writer's unlock point.
        stripe = max(range(2), key=lambda i: kv._lock_free_at[i])
        kv._lock(other, stripe)
        assert other.now >= held


class TestFigure19Shape:
    def test_remote_optane_collapses_more_than_dram(self):
        local_o = overwrite_benchmark("optane", threads=4,
                                      ops_per_thread=80).bandwidth_gbps
        remote_o = overwrite_benchmark("optane-remote", threads=4,
                                       ops_per_thread=80).bandwidth_gbps
        local_d = overwrite_benchmark("dram", threads=4,
                                      ops_per_thread=80).bandwidth_gbps
        remote_d = overwrite_benchmark("dram-remote", threads=4,
                                       ops_per_thread=80).bandwidth_gbps
        opt_loss = local_o / remote_o
        dram_loss = local_d / remote_d
        assert opt_loss > 1.3
        assert dram_loss < opt_loss

    def test_local_scales_with_threads(self):
        one = overwrite_benchmark("optane", threads=1,
                                  ops_per_thread=80).bandwidth_gbps
        four = overwrite_benchmark("optane", threads=4,
                                   ops_per_thread=80).bandwidth_gbps
        assert four > 2 * one

