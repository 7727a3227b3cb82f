"""Unit tests for the KV store building blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import scan_log
from repro.faults.report import RecoveryReport
from repro.kvstore import records
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.manifest import Manifest
from repro.kvstore.skiplist import SkipList
from repro.sim import Machine


class TestSkipList:
    def test_put_get(self):
        sl = SkipList()
        sl.put(b"b", b"2")
        sl.put(b"a", b"1")
        assert sl.get(b"a") == b"1"
        assert sl.get(b"b") == b"2"
        assert sl.get(b"c") is None

    def test_overwrite(self):
        sl = SkipList()
        sl.put(b"k", b"old")
        sl.put(b"k", b"new")
        assert sl.get(b"k") == b"new"
        assert len(sl) == 1

    def test_items_sorted(self):
        sl = SkipList()
        for k in (b"d", b"a", b"c", b"b"):
            sl.put(k, k)
        assert [k for k, _ in sl.items()] == [b"a", b"b", b"c", b"d"]

    def test_size_accounting(self):
        sl = SkipList()
        sl.put(b"key", b"value")
        assert sl.approximate_bytes == 8
        sl.put(b"key", b"longer-value")
        assert sl.approximate_bytes == 15

    def test_deterministic_structure(self):
        a, b = SkipList(seed=7), SkipList(seed=7)
        for i in range(200):
            a.put(b"%05d" % i, b"x")
            b.put(b"%05d" % i, b"x")
        assert a.seek_lookup(b"00150") == b.seek_lookup(b"00150")

    @given(st.dictionaries(st.binary(min_size=1, max_size=12),
                           st.binary(max_size=24), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_semantics(self, model):
        sl = SkipList()
        for k, v in model.items():
            sl.put(k, v)
        assert len(sl) == len(model)
        for k, v in model.items():
            assert sl.get(k) == v
        assert [k for k, _ in sl.items()] == sorted(model)


class TestRecords:
    def test_roundtrip(self):
        blob = records.encode(b"key", b"value")
        key, value, consumed = records.decode(blob)
        assert (key, value) == (b"key", b"value")
        assert consumed == len(blob)

    def test_torn_record_rejected(self):
        blob = records.encode(b"key", b"value")
        assert records.decode(blob[:-2]) is None

    def test_corruption_rejected(self):
        blob = bytearray(records.encode(b"key", b"value"))
        blob[-1] ^= 0xFF
        assert records.decode(bytes(blob)) is None

    def test_scan_stops_at_garbage(self):
        stream = records.encode(b"a", b"1") + records.encode(b"b", b"2") \
            + b"\x00" * 32

        def decode(pos):
            rec = records.decode(stream, pos)
            return None if rec is None else (rec[:2], rec[2])
        report = RecoveryReport()
        items, end = scan_log(stream, [], decode, report, align=1)
        assert items == [(b"a", b"1"), (b"b", b"2")]
        assert end == len(stream) - 32 and report.clean

    @given(st.binary(min_size=1, max_size=40), st.binary(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, key, value):
        key2, value2, _ = records.decode(records.encode(key, value))
        assert (key2, value2) == (key, value)


class TestBloom:
    def test_no_false_negatives(self):
        bf = BloomFilter(capacity=100)
        keys = [b"k%d" % i for i in range(100)]
        for k in keys:
            bf.add(k)
        assert all(bf.may_contain(k) for k in keys)

    def test_low_false_positive_rate(self):
        bf = BloomFilter(capacity=200)
        for i in range(200):
            bf.add(b"in-%d" % i)
        fp = sum(bf.may_contain(b"out-%d" % i) for i in range(2000))
        assert fp / 2000 < 0.03

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)


class TestManifest:
    def test_commit_load_roundtrip(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        man = Manifest(ns, 0)
        man.commit(t, [(100, 200, 0), (300, 400, 1)])
        seq, entries = Manifest(ns, 0).load()
        assert seq == 1
        assert entries == [(100, 200, 0), (300, 400, 1)]

    def test_latest_slot_wins(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        man = Manifest(ns, 0)
        man.commit(t, [(1, 1, 0)])
        man.commit(t, [(2, 2, 0)])
        man.commit(t, [(3, 3, 0)])
        _, entries = Manifest(ns, 0).load()
        assert entries == [(3, 3, 0)]

    def test_survives_crash(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        Manifest(ns, 0).commit(t, [(7, 8, 0)])
        m.power_fail()
        _, entries = Manifest(ns, 0).load()
        assert entries == [(7, 8, 0)]

    def test_empty_manifest(self):
        m = Machine()
        ns = m.namespace("optane")
        seq, entries = Manifest(ns, 0).load()
        assert seq == 0 and entries == []
