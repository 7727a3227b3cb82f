"""Tests for the extended application features: deletes, scans,
truncate/unlink — including their crash-recovery behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import NovaFS, PAGE
from repro.kvstore import LSMStore, PersistentSkipList, records
from repro.pmdk import PmemPool
from repro.pmemkv import CMap
from repro.sim import Machine


class TestTombstoneRecords:
    def test_tombstone_roundtrip(self):
        blob = records.encode(b"key", None)
        key, value, _ = records.decode(blob)
        assert key == b"key" and value is None

    def test_tombstone_distinct_from_empty_value(self):
        dead = records.encode(b"k", None)
        empty = records.encode(b"k", b"")
        assert records.decode(dead)[1] is None
        assert records.decode(empty)[1] == b""


class TestLSMDelete:
    @pytest.mark.parametrize("mode", ["wal-flex", "wal-posix",
                                      "persistent-memtable"])
    def test_delete_hides_key(self, mode):
        m = Machine()
        db = LSMStore(m, mode=mode)
        t = m.thread()
        db.put(t, b"k1", b"v1")
        db.put(t, b"k2", b"v2")
        db.delete(t, b"k1")
        assert db.get(t, b"k1") is None
        assert db.get(t, b"k2") == b"v2"

    def test_delete_shadows_flushed_value(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        db.put(t, b"k", b"old")
        db.flush(t)                       # value now lives in an SSTable
        db.delete(t, b"k")
        assert db.get(t, b"k") is None

    def test_tombstone_survives_flush(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        db.put(t, b"k", b"old")
        db.flush(t)
        db.delete(t, b"k")
        db.flush(t)                       # tombstone now in a newer table
        assert db.get(t, b"k") is None

    @pytest.mark.parametrize("mode", ["wal-flex", "persistent-memtable"])
    def test_delete_survives_crash(self, mode):
        m = Machine()
        db = LSMStore(m, mode=mode)
        t = m.thread()
        db.put(t, b"gone", b"x")
        db.put(t, b"kept", b"y")
        db.delete(t, b"gone")
        m.power_fail()
        db2 = LSMStore.recover(m, mode=mode)
        assert db2.get(t, b"gone") is None
        assert db2.get(t, b"kept") == b"y"

    def test_compaction_drops_tombstones(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        db.put(t, b"k", b"v")
        db.flush(t)
        db.delete(t, b"k")
        db.flush(t)
        db.compact(t)
        (_, table), = db.tables
        assert all(k != b"k" for k, _ in table.items())

    def test_reinsert_after_delete(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        db.put(t, b"k", b"first")
        db.delete(t, b"k")
        db.put(t, b"k", b"second")
        assert db.get(t, b"k") == b"second"


class TestLSMScan:
    def test_scan_ordered(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        for k in (b"c", b"a", b"d", b"b"):
            db.put(t, k, k.upper())
        assert db.scan(t) == [(b"a", b"A"), (b"b", b"B"),
                              (b"c", b"C"), (b"d", b"D")]

    def test_scan_range(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        for i in range(10):
            db.put(t, b"%02d" % i, b"x")
        got = db.scan(t, start=b"03", end=b"07")
        assert [k for k, _ in got] == [b"03", b"04", b"05", b"06"]

    def test_scan_merges_tables_and_memtable(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        db.put(t, b"a", b"old")
        db.flush(t)
        db.put(t, b"a", b"new")
        db.put(t, b"b", b"2")
        assert dict(db.scan(t)) == {b"a": b"new", b"b": b"2"}

    def test_scan_excludes_tombstones(self):
        m = Machine()
        db = LSMStore(m, mode="wal-flex")
        t = m.thread()
        db.put(t, b"a", b"1")
        db.put(t, b"b", b"2")
        db.delete(t, b"a")
        assert db.scan(t) == [(b"b", b"2")]

    @given(st.dictionaries(st.binary(min_size=1, max_size=8),
                           st.one_of(st.none(),
                                     st.binary(min_size=1, max_size=16)),
                           max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_scan_matches_model(self, model):
        m = Machine()
        db = LSMStore(m, mode="wal-flex", memtable_bytes=512)
        t = m.thread()
        for key, value in model.items():
            if value is None:
                db.put(t, key, b"temp")
                db.delete(t, key)
            else:
                db.put(t, key, value)
        live = sorted((k, v) for k, v in model.items() if v is not None)
        assert db.scan(t) == live


class TestPersistentSkiplistDelete:
    def test_tombstone_recovers(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        psl = PersistentSkipList(ns, 0, 1 << 20)
        psl.put(t, b"a", b"1")
        psl.put(t, b"b", b"2")
        psl.delete(t, b"a")
        m.power_fail()
        rec = PersistentSkipList.recover(ns, 0, 1 << 20)
        items = dict(rec.items())
        assert items[b"a"] is None         # tombstone, durably
        assert items[b"b"] == b"2"


class TestCMapDelete:
    def make(self):
        m = Machine()
        t = m.thread()
        pool = PmemPool.create(m, t)
        return m, t, pool, CMap(pool, buckets=64)

    def test_delete_removes(self):
        _, t, _, kv = self.make()
        kv.put(t, b"k", b"v")
        assert kv.delete(t, b"k")
        assert kv.get(t, b"k") is None
        assert not kv.delete(t, b"k")

    def test_probe_chain_survives_middle_delete(self):
        _, t, _, kv = self.make()
        # Force a probe chain by filling colliding buckets.
        keys = [b"key-%d" % i for i in range(20)]
        for k in keys:
            kv.put(t, k, b"v")
        kv.delete(t, keys[3])
        for k in keys:
            expected = None if k == keys[3] else b"v"
            assert kv.get(t, k) == expected

    def test_delete_survives_crash(self):
        m, t, pool, kv = self.make()
        kv.put(t, b"dead", b"1")
        kv.put(t, b"live", b"2")
        kv.delete(t, b"dead")
        table = kv.table_offset
        m.power_fail()
        kv2, _ = CMap.open_report(PmemPool.open(m), table, buckets=64)
        t2 = m.thread()
        assert kv2.get(t2, b"dead") is None
        assert kv2.get(t2, b"live") == b"2"

    def test_slot_reuse_after_delete(self):
        _, t, _, kv = self.make()
        kv.put(t, b"a", b"1")
        kv.delete(t, b"a")
        kv.put(t, b"a", b"2")
        assert kv.get(t, b"a") == b"2"
        assert len(kv) == 1

    def test_keys(self, monkeypatch):
        _, t, pool, kv = self.make()
        kv.put(t, b"b", b"2")
        kv.put(t, b"a", b"1")
        kv.delete(t, b"b")
        assert kv.get(t, b"a") == b"1"
        monkeypatch.setattr(pool, "read_volatile", None)   # no pool reads
        assert list(kv.keys()) == [b"a"]


class TestNovaTruncateUnlink:
    def test_truncate_shrinks(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"A" * (2 * PAGE))
        fs.truncate(t, inode, 100)
        assert fs.stat_size(inode) == 100
        assert fs.read(t, inode, 0, 200) == b"A" * 100

    def test_truncate_zeroes_tail_on_regrow(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"B" * PAGE)
        fs.truncate(t, inode, 10)
        fs.truncate(t, inode, PAGE)        # regrow: tail must be zero
        data = fs.read(t, inode, 0, PAGE)
        assert data[:10] == b"B" * 10
        assert data[10:] == b"\x00" * (PAGE - 10)

    def test_truncate_survives_crash(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"C" * PAGE)
        fs.truncate(t, inode, 64)
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        assert fs2.stat_size(inode) == 64
        assert fs2.read_persistent_file(inode, 0, PAGE) == b"C" * 64

    def test_truncate_frees_pages(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"D" * (4 * PAGE))
        free_before = fs.policy.allocators[0].free_pages
        fs.truncate(t, inode, PAGE)
        assert fs.policy.allocators[0].free_pages > free_before

    def test_unlink_removes_file_durably(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"E" * PAGE)
        keep = fs.create(t)
        fs.write(t, keep, 0, b"keep")
        fs.unlink(t, inode)
        m.power_fail()
        fs2 = NovaFS.mount(m)
        assert inode not in fs2._files
        assert fs2.read_persistent_file(keep, 0, 4) == b"keep"

    def test_unlink_reclaims_pages(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"F" * (4 * PAGE))
        free_before = fs.policy.allocators[0].free_pages
        fs.unlink(t, inode)
        assert fs.policy.allocators[0].free_pages > free_before
