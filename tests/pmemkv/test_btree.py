"""Tests for the FPTree-style persistent B+-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmdk import PmemPool
from repro.pmemkv.btree import BPlusTree
from repro.sim import Machine


def make_tree(leaf_bytes=256):
    m = Machine()
    t = m.thread()
    pool = PmemPool.create(m, t)
    tree = BPlusTree(pool, leaf_bytes=leaf_bytes)
    tree.format(t)
    return m, t, pool, tree


class TestBasics:
    def test_put_get(self):
        _, t, _, tree = make_tree()
        tree.put(t, 42, 4200)
        assert tree.get(t, 42) == 4200
        assert tree.get(t, 43) is None

    def test_update_in_place(self):
        _, t, _, tree = make_tree()
        tree.put(t, 1, 10)
        tree.put(t, 1, 20)
        assert tree.get(t, 1) == 20
        assert tree.count == 1

    def test_delete(self):
        _, t, _, tree = make_tree()
        tree.put(t, 5, 50)
        assert tree.delete(t, 5)
        assert tree.get(t, 5) is None
        assert not tree.delete(t, 5)

    def test_many_inserts_with_splits(self):
        _, t, _, tree = make_tree()
        n = 200                       # far beyond one leaf
        for i in range(n):
            tree.put(t, i * 7 % n, i * 7 % n + 1000)
        for i in range(n):
            assert tree.get(t, i) == i + 1000
        assert len(tree._inners) > 1   # splits happened

    def test_scan_ordered(self):
        _, t, _, tree = make_tree()
        keys = random.Random(3).sample(range(1000), 80)
        for k in keys:
            tree.put(t, k, k + 1)
        got = tree.scan(t)
        assert got == sorted((k, k + 1) for k in keys)

    def test_scan_range(self):
        _, t, _, tree = make_tree()
        for k in range(100):
            tree.put(t, k, k)
        got = tree.scan(t, start=20, end=30)
        assert [k for k, _ in got] == list(range(20, 30))

    def test_tiny_leaf_rejected(self):
        m = Machine()
        t = m.thread()
        pool = PmemPool.create(m, t)
        with pytest.raises(ValueError):
            BPlusTree(pool, leaf_bytes=32)


class TestCrashRecovery:
    def test_inserts_survive(self):
        m, t, pool, tree = make_tree()
        for k in range(150):
            tree.put(t, k, k * 2)
        head = tree.head
        m.power_fail()
        pool2 = PmemPool.open(m)
        rec = BPlusTree.recover(pool2, head)
        t2 = m.thread()
        for k in range(150):
            assert rec.get(t2, k) == k * 2
        assert rec.count == 150

    def test_deletes_survive(self):
        m, t, pool, tree = make_tree()
        for k in range(60):
            tree.put(t, k, k)
        tree.delete(t, 30)
        head = tree.head
        m.power_fail()
        rec = BPlusTree.recover(PmemPool.open(m), head)
        t2 = m.thread()
        assert rec.get(t2, 30) is None
        assert rec.get(t2, 31) == 31

    def test_crash_mid_put_is_atomic(self):
        # The slot is persisted before the bitmap flips: crash between
        # the two leaves the key absent, never half-present.
        from repro.faults.model import (
            FaultController, SimulatedPowerFailure,
        )
        baseline_m, bt, bpool, btree = make_tree()
        btree.put(bt, 1, 11)
        head = btree.head

        for crash_at in range(1, 12):
            m = Machine()
            t = m.thread()
            pool = PmemPool.create(m, t)
            tree = BPlusTree(pool, leaf_bytes=256)
            tree.format(t)
            tree.put(t, 1, 11)
            fc = FaultController(m, crash_at=crash_at)
            try:
                tree.put(t, 2, 22)
            except SimulatedPowerFailure:
                pass
            fc.crash_at = None
            m.power_fail()
            rec = BPlusTree.recover(PmemPool.open(m), tree.head)
            t2 = m.thread()
            assert rec.get(t2, 1) == 11          # old key intact
            assert rec.get(t2, 2) in (None, 22)  # new key atomic

    @given(st.dictionaries(st.integers(0, 500), st.integers(0, 1 << 32),
                           min_size=1, max_size=60))
    @settings(max_examples=15, deadline=None)
    def test_recovery_matches_model(self, model):
        m, t, pool, tree = make_tree()
        for k, v in model.items():
            tree.put(t, k, v)
        head = tree.head
        m.power_fail()
        rec = BPlusTree.recover(PmemPool.open(m), head)
        t2 = m.thread()
        for k, v in model.items():
            assert rec.get(t2, k) == v
        assert rec.scan(t2) == sorted(model.items())


class TestGuidelineCaseStudy:
    def test_xpline_sized_leaves_minimise_media_traffic(self):
        """Guideline #1 applied to index design: a 256 B leaf keeps each
        insert's stores inside one XPLine; an XPLine-misaligned leaf
        spreads them over two."""
        def media_writes_per_insert(leaf_bytes, n=120):
            m = Machine()
            t = m.thread()
            pool = PmemPool.create(m, t)
            tree = BPlusTree(pool, leaf_bytes=leaf_bytes)
            tree.format(t)
            ns = pool.ns
            snaps = ns.counter_snapshots()
            for k in range(n):
                tree.put(t, k, k)
            for dimm in ns.dimms:
                dimm.drain(t.now)
            from repro.sim import aggregate
            delta = aggregate(ns.counter_deltas(snaps))
            return delta.media_write_bytes / n

        aligned = media_writes_per_insert(256)
        oversized = media_writes_per_insert(384)    # spans 2 XPLines
        assert aligned <= oversized
