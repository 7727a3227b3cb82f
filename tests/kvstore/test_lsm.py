"""Integration and crash tests for the LSM store."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import FaultController
from repro.kvstore import LSMStore, PersistentSkipList, SSTable
from repro.kvstore.wal import WalFlex, WalPosix
from repro.pmcheck import checking
from repro.pmcheck.state import V_ACK_BEFORE_FENCE, V_UNORDERED
from repro.sim import Machine
from repro.sim.engine import ThreadCtx

MODES = ("wal-posix", "wal-flex", "persistent-memtable")


def kv(i):
    return b"%019d" % i, b"v%010d" % i


class TestWAL:
    @pytest.mark.parametrize("wal_cls", [WalPosix, WalFlex])
    def test_append_replay(self, wal_cls):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        wal = wal_cls(ns, 0, 1 << 20)
        for i in range(50):
            wal.append(t, *kv(i))
        m.power_fail()
        replayed = wal_cls(ns, 0, 1 << 20).replay()
        assert replayed == [kv(i) for i in range(50)]

    def test_unsynced_posix_tail_may_be_lost(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        wal = WalPosix(ns, 0, 1 << 20)
        wal.append(t, *kv(0), sync=True)
        wal.append(t, *kv(1), sync=False)   # cached, never flushed
        m.power_fail()
        replayed = WalPosix(ns, 0, 1 << 20).replay()
        assert replayed[0] == kv(0)
        assert len(replayed) <= 2

    def test_flex_appends_are_line_aligned(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        wal = WalFlex(ns, 0, 1 << 20)
        wal.append(t, *kv(0))
        assert wal.tail % 64 == 0

    def test_wal_full(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        wal = WalFlex(ns, 0, 256)
        wal.append(t, *kv(0))
        with pytest.raises(RuntimeError):
            for i in range(10):
                wal.append(t, *kv(i))


class TestSSTable:
    def _pairs(self, n=64):
        return [kv(i) for i in range(n)]

    def test_build_and_get(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        table = SSTable.build(ns, t, 1 << 20, self._pairs())
        assert table.get(t, kv(10)[0]) == kv(10)[1]
        assert table.get(t, b"absent-key-000000000") is None

    def test_open_after_crash(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        table = SSTable.build(ns, t, 1 << 20, self._pairs())
        m.power_fail()
        reopened = SSTable.open(ns, 1 << 20, table.size)
        assert reopened.get(t, kv(33)[0]) == kv(33)[1]

    def test_items_in_order(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        table = SSTable.build(ns, t, 1 << 20, self._pairs(20))
        assert table.items() == self._pairs(20)

    def test_bloom_short_circuits(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        table = SSTable.build(ns, t, 1 << 20, self._pairs(16))
        assert not table.may_contain(b"zzzzzzzzzzzzzzzzzzzz")


class TestPersistentSkipList:
    def test_put_get(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        psl = PersistentSkipList(ns, 0, 1 << 20)
        psl.put(t, b"alpha", b"1")
        psl.put(t, b"beta", b"2")
        assert psl.get(t, b"alpha") == b"1"
        assert psl.get(t, b"missing") is None

    def test_recover_after_crash(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        psl = PersistentSkipList(ns, 0, 1 << 20)
        pairs = {b"k%04d" % i: b"v%04d" % i for i in range(150)}
        for k, v in pairs.items():
            psl.put(t, k, v)
        m.power_fail()
        rec = PersistentSkipList.recover(ns, 0, 1 << 20)
        assert len(rec) == len(pairs)
        assert dict(rec.items()) == pairs

    def test_recovered_order(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        psl = PersistentSkipList(ns, 0, 1 << 20)
        for k in (b"m", b"c", b"x", b"a"):
            psl.put(t, k, k)
        m.power_fail()
        rec = PersistentSkipList.recover(ns, 0, 1 << 20)
        assert [k for k, _ in rec.items()] == [b"a", b"c", b"m", b"x"]

    def test_same_size_update_in_place(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        psl = PersistentSkipList(ns, 0, 1 << 20)
        psl.put(t, b"k", b"old!")
        psl.put(t, b"k", b"new!")
        m.power_fail()
        rec = PersistentSkipList.recover(ns, 0, 1 << 20)
        assert dict(rec.items())[b"k"] == b"new!"

    def test_resize_update(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        psl = PersistentSkipList(ns, 0, 1 << 20)
        psl.put(t, b"k", b"short")
        psl.put(t, b"k", b"a-much-longer-value")
        assert psl.get(t, b"k") == b"a-much-longer-value"
        assert len(psl) == 1


class TestLSMStore:
    @pytest.mark.parametrize("mode", MODES)
    def test_put_get_roundtrip(self, mode):
        m = Machine()
        db = LSMStore(m, mode=mode)
        t = m.thread()
        for i in range(500):
            db.put(t, *kv(i))
        for i in (0, 123, 499):
            assert db.get(t, kv(i)[0]) == kv(i)[1]
        assert db.get(t, b"nope-nope-nope-nope!") is None

    @pytest.mark.parametrize("mode", MODES)
    def test_crash_recovery_full(self, mode):
        m = Machine()
        db = LSMStore(m, mode=mode)
        t = m.thread()
        n = 2500                     # enough to force flushes
        for i in range(n):
            db.put(t, *kv(i))
        m.power_fail()
        db2 = LSMStore.recover(m, mode=mode)
        misses = [i for i in range(n)
                  if db2.get(t, kv(i)[0]) != kv(i)[1]]
        assert not misses

    def test_flush_creates_tables(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex", memtable_bytes=4096)
        t = m.thread()
        for i in range(400):
            db.put(t, *kv(i))
        assert db.tables

    def test_compaction_bounds_table_count(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex", memtable_bytes=2048)
        t = m.thread()
        for i in range(1200):
            db.put(t, *kv(i))
        l0 = sum(1 for lvl, _ in db.tables if lvl == 0)
        assert l0 < 8

    def test_overwrites_newest_wins_across_flushes(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex", memtable_bytes=4096)
        t = m.thread()
        for rnd in range(3):
            for i in range(120):
                db.put(t, kv(i)[0], b"r%d-%010d" % (rnd, i))
            db.flush(t)
        assert db.get(t, kv(7)[0]) == b"r2-%010d" % 7

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            LSMStore(Machine(), mode="chaos")

    @given(st.lists(st.tuples(st.integers(0, 40),
                              st.binary(min_size=1, max_size=30)),
                    min_size=1, max_size=60))
    @settings(max_examples=15, deadline=None)
    def test_model_based_random_ops(self, ops):
        m = Machine()
        db = LSMStore(m, mode="wal-flex", memtable_bytes=2048)
        t = m.thread()
        model = {}
        for idx, value in ops:
            key = b"%019d" % idx
            db.put(t, key, value)
            model[key] = value
        for key, value in model.items():
            assert db.get(t, key) == value

    def test_crash_mid_stream_loses_nothing_synced(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        rng = random.Random(0)
        written = {}
        for i in range(300):
            k, v = kv(rng.randrange(100))
            db.put(t, k, v, sync=True)
            written[k] = v
        m.power_fail()
        db2 = LSMStore.recover(m, mode="wal-flex")
        for k, v in written.items():
            assert db2.get(t, k) == v


class TestFlushRetiresWalGeneration:
    """A flush leaves the old WAL generation on media under a retired
    epoch; replay must end at it, never return its values."""

    @pytest.mark.parametrize("mode", ["wal-flex", "wal-posix"])
    def test_overwrite_after_flush_survives_power_fail(self, mode):
        m = Machine()
        db = LSMStore(m, mode=mode)
        t = m.thread()
        for i in range(6):
            db.put(t, b"k%d" % i, b"A")
        db.flush(t)
        db.put(t, b"k3", b"B")
        m.power_fail()
        db2 = LSMStore.recover(m, mode=mode)
        assert db2.get(t, b"k3") == b"B"
        report = db2.recovery_report
        assert report.clean
        assert report.recovered == 6 + 1      # the table + one live record

    @pytest.mark.parametrize("keep, truncated", [(0, 0), (1, 1)])
    def test_torn_append_after_flush(self, keep, truncated):
        """Two 128 B records per XPLine: the third append after the
        flush opens a fresh XPLine, and the tear keeps ``keep`` of its
        two lines.  Keeping none leaves a retired-epoch record in the
        slot (a quiet end); keeping one leaves a torn record."""
        m = Machine()
        FaultController(m, seed=1, tear=True, tear_keep=keep)
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        keys = [b"key%02d" % i for i in range(6)]
        for key in keys:
            db.put(t, key, b"A" * 96)
        db.flush(t)
        db.put(t, keys[5], b"B" * 96)
        db.put(t, keys[4], b"B" * 96)
        db.put(t, keys[3], b"C" * 96)       # in flight at the crash
        m.power_fail()
        db2 = LSMStore.recover(m, mode="wal-flex")
        report = db2.recovery_report
        assert (report.truncated, report.lost) == (truncated, 0)
        assert [db2.get(t, k)[:1] for k in keys] == [b"A"] * 4 + [b"B"] * 2

    @pytest.mark.parametrize("mode", ["wal-flex", "wal-posix"])
    @given(ops=st.lists(
        st.tuples(st.integers(0, 63),
                  st.none() | st.binary(min_size=16, max_size=35)),
        min_size=100, max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_model_survives_power_fail_across_flushes(self, mode, ops):
        """About 45 live keys fill the memtable, so the ops flush a few
        times; values of at most 35 B keep every FLEX record in one
        64 B line, so a new generation's end meets an old record
        head-on."""
        m = Machine()
        db = LSMStore(m, mode=mode, memtable_bytes=2048)
        t = m.thread()
        model = {}
        for idx, value in ops:
            key = b"%019d" % idx
            if value is None:
                db.delete(t, key)
            else:
                db.put(t, key, value)
            model[key] = value
        m.power_fail()
        db2 = LSMStore.recover(m, mode=mode)
        for idx in range(64):
            key = b"%019d" % idx
            assert db2.get(t, key) == model.get(key)


class TestEveryWalFenceIsLoadBearing:
    """Skip exactly one ``sfence`` of a FLEX put -> flush -> put."""

    @pytest.mark.parametrize("skip, kind, note", [
        (None, None, None),
        (1, V_ACK_BEFORE_FENCE, None),          # append
        (2, V_UNORDERED, "lsm manifest"),       # flush: table -> manifest
        (3, V_UNORDERED, "lsm flush"),          # flush: epoch -> next record
        (4, V_ACK_BEFORE_FENCE, None),          # append
    ])
    def test_skipped_fence_is_caught(self, monkeypatch, skip, kind, note):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        real = ThreadCtx.sfence
        fences = []

        def sfence(thread):
            fences.append(thread)
            if len(fences) != skip:
                real(thread)

        with checking(m) as checker:
            monkeypatch.setattr(ThreadCtx, "sfence", sfence)
            checker.op_begin(t, "put")
            db.put(t, b"k", b"A" * 96)
            checker.op_ack(t)
            db.flush(t)
            checker.op_begin(t, "put")
            db.put(t, b"k", b"B" * 96)
            checker.op_ack(t)
            monkeypatch.undo()
            violations = checker.summary()["violations"]
        assert len(fences) == 4
        if kind is None:
            assert violations == []
            return
        assert kind in {v["kind"] for v in violations}, violations
        if note is not None:
            assert any(v["kind"] == kind and v["note"].startswith(note)
                       for v in violations), violations
