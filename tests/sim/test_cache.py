"""Unit tests for the CPU cache model."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._units import CACHELINE, MIB
from repro.sim import Machine
from repro.sim.cache import CacheModel, pack, unpack
from repro.sim.config import CacheConfig, default_config


def make_cache(capacity_lines=64, ways=4):
    cfg = CacheConfig(capacity_bytes=capacity_lines * 64, ways=ways)
    return CacheModel(cfg)


KEY = (0, 0)
KEY2 = (0, 64)


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.lookup(KEY)
        c.fill(KEY)
        assert c.lookup(KEY)

    def test_fill_dirty(self):
        c = make_cache()
        c.fill(KEY, dirty=True)
        assert c.is_dirty(KEY)

    def test_mark_dirty_requires_presence(self):
        c = make_cache()
        assert not c.mark_dirty(KEY)
        c.fill(KEY)
        assert c.mark_dirty(KEY)
        assert c.is_dirty(KEY)

    def test_clean_keeps_line_resident(self):
        c = make_cache()
        c.fill(KEY, dirty=True)
        assert c.clean(KEY)
        assert c.lookup(KEY)
        assert not c.is_dirty(KEY)

    def test_clean_on_clean_line_reports_no_writeback(self):
        c = make_cache()
        c.fill(KEY)
        assert not c.clean(KEY)

    def test_invalidate_reports_dirtiness(self):
        c = make_cache()
        c.fill(KEY, dirty=True)
        assert c.invalidate(KEY)
        assert not c.lookup(KEY)
        assert not c.invalidate(KEY)

    def test_refill_existing_updates_dirty(self):
        c = make_cache()
        c.fill(KEY)
        assert c.fill(KEY, dirty=True) is None
        assert c.is_dirty(KEY)

    def test_drop_all(self):
        c = make_cache()
        c.fill(KEY, dirty=True)
        c.fill(KEY2)
        c.drop_all()
        assert not c.lookup(KEY)
        assert c.occupancy() == 0


class TestEvictions:
    def test_capacity_eviction_returns_victim(self):
        c = make_cache(capacity_lines=4, ways=4)
        victims = []
        for i in range(8):
            v = c.fill((0, i * 64), dirty=True)
            if v is not None:
                victims.append(v)
        assert victims, "filling past capacity must evict"
        assert all(dirty for _, dirty in victims)

    def test_lru_within_set(self):
        c = make_cache(capacity_lines=2, ways=2)
        # Single set: whichever was touched least recently goes.
        c.fill((0, 0))
        c.fill((0, 64))
        c.lookup((0, 0))                 # refresh line 0
        victim = c.fill((0, 128))
        assert victim is not None
        assert victim[0] == (0, 64)

    def test_sequential_stream_evicts_out_of_order(self):
        # The multiplicative hash scrambles set placement, so victims of
        # a sequential fill do not come out in address order — the
        # mechanism behind the paper's "cache evictions scramble the
        # write stream" observation (Section 5.2).
        c = make_cache(capacity_lines=256, ways=4)
        victims = []
        for i in range(1024):
            v = c.fill((0, i * 64), dirty=True)
            if v is not None:
                victims.append(v[0][1])
        assert victims
        sorted_fraction = sum(
            1 for a, b in zip(victims, victims[1:]) if b > a
        ) / (len(victims) - 1)
        assert sorted_fraction < 0.9

    def test_dirty_keys(self):
        c = make_cache()
        c.fill(KEY, dirty=True)
        c.fill(KEY2)
        assert sorted(c.dirty_keys()) == [KEY]

    @pytest.mark.parametrize("clean", ("clean", "clean_ready"))
    def test_clean_does_not_refresh_recency(self, clean):
        c = make_cache(capacity_lines=2, ways=2)
        c.fill((0, 0), dirty=True)
        c.fill((0, 64))
        assert getattr(c, clean)((0, 0))
        assert c.fill((0, 128)) == ((0, 0), False)

    def test_refill_of_resident_line_refreshes_recency(self):
        c = make_cache(capacity_lines=2, ways=2)
        c.fill((0, 0))
        c.fill((0, 64))
        assert c.fill((0, 0)) is None
        assert c.fill((0, 128)) == ((0, 64), False)

    def test_invalidate_then_refill_makes_line_youngest(self):
        c = make_cache(capacity_lines=2, ways=2)
        c.fill((0, 0))
        c.fill((0, 64))
        c.invalidate((0, 0))
        c.fill((0, 0))
        assert c.fill((0, 128)) == ((0, 64), False)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 127)),
                min_size=1, max_size=500))
@settings(max_examples=50, deadline=None)
def test_occupancy_never_exceeds_capacity(ops):
    c = make_cache(capacity_lines=16, ways=4)
    for ns_id, line in ops:
        c.fill((ns_id, line * 64), dirty=bool(line % 2))
        assert c.occupancy() <= 16


@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
@example(lines=[37, 23, 47, 57, 58, 37])
@settings(max_examples=50, deadline=None)
def test_resident_line_always_hits(lines):
    # One fully-associative set holding all 64 candidate lines:
    # placement is hashed, so only this geometry cannot evict (the
    # example's five lines share a set and evicted 37 at 4 ways).
    c = make_cache(capacity_lines=64, ways=64)
    seen = set()
    for line in lines:
        key = (0, line * 64)
        assert c.lookup(key) == (key in seen)
        c.fill(key)
        seen.add(key)


class StampLRU:
    """Reference model: the cache as it was before recency moved into
    set order — one global stamp, refreshed on every access, and a
    ``min`` over the set to find the victim."""

    def __init__(self, model):
        self._index, self._ways = model._index, model._ways
        self._sets = {}
        self._stamp = 0
        self.hits = self.misses = 0

    def _touch(self, key, dirty=False):
        entry = self._sets.setdefault(self._index(key), {}).get(key)
        if entry is not None:
            self._stamp += 1
            entry[0] = self._stamp
            entry[1] = entry[1] or dirty
        return entry is not None

    def lookup(self, key):
        hit = self._touch(key)
        self.hits += hit
        self.misses += not hit
        return hit

    def mark_dirty(self, key):
        return self._touch(key, dirty=True)

    def fill(self, key, dirty=False, ready_ns=0.0):
        if self._touch(key, dirty):
            return None
        table = self._sets[self._index(key)]
        victim = None
        if len(table) >= self._ways:
            vkey = min(table, key=lambda k: table[k][0])
            victim = (vkey, table.pop(vkey)[1])
        self._stamp += 1
        table[key] = [self._stamp, dirty, ready_ns]
        return victim

    def clean_ready(self, key):
        entry = self._sets.get(self._index(key), {}).get(key)
        if entry is None or not entry[1]:
            return False, 0.0
        entry[1] = False
        return True, entry[2]

    def invalidate(self, key):
        entry = self._sets.get(self._index(key), {}).pop(key, None)
        return bool(entry and entry[1])

    def drop_all(self):
        self._sets.clear()

    def occupancy(self):
        return sum(len(table) for table in self._sets.values())

    def dirty_keys(self):
        return [key for table in self._sets.values()
                for key, entry in table.items() if entry[1]]


def _colliding_keys():
    """Five lines in each of two sets of the 8-set, 4-way test cache:
    few enough keys that a random trace keeps evicting among them."""
    index = make_cache(capacity_lines=32, ways=4)._index
    lines = [(n % 2, n * 64) for n in range(4096)]
    return [key for s in (0, 1)
            for key in [k for k in lines if index(k) == s][:5]]


# Fills dominate so the sets stay full and recency decides victims;
# drop_all is rare or no trace would ever reach capacity.
_OPS = st.tuples(
    st.sampled_from(("fill", "fill_in") * 4
                    + ("lookup", "probe", "store_probe", "mark_dirty",
                       "clean", "clean_ready") * 2
                    + ("invalidate", "drop_all")),
    st.sampled_from(_colliding_keys()), st.booleans(),
    st.integers(0, 9).map(float))


@given(st.lists(_OPS, min_size=100, max_size=400))
@settings(max_examples=50, deadline=None)
def test_set_order_lru_is_the_stamp_lru(trace):
    new = make_cache(capacity_lines=32, ways=4)
    ref = StampLRU(new)
    for op, key, dirty, ready in trace:
        if op in ("lookup", "mark_dirty", "invalidate"):
            assert getattr(new, op)(key) == getattr(ref, op)(key)
        elif op == "probe":
            assert new.probe(key)[0] == ref.lookup(key)
        elif op == "store_probe":
            assert new.store_probe(key)[0] == ref.mark_dirty(key)
        elif op == "fill":
            assert new.fill(key, dirty, ready) == ref.fill(key, dirty, ready)
        elif op == "fill_in":
            # fill_in's contract: the caller has just probed and missed.
            hit, table = new.probe(key)
            assert hit == ref.lookup(key)
            if not hit:
                assert (new.fill_in(table, key, dirty, ready)
                        == ref.fill(key, dirty, ready))
        elif op == "clean":
            assert new.clean(key) == ref.clean_ready(key)[0]
        elif op == "clean_ready":
            assert new.clean_ready(key) == ref.clean_ready(key)
        else:
            new.drop_all()
            ref.drop_all()
        assert (new.hits, new.misses) == (ref.hits, ref.misses)
        assert new.occupancy() == ref.occupancy()
        assert sorted(new.dirty_keys()) == sorted(ref.dirty_keys())
        assert_representation(new)


def assert_representation(cache):
    """Each tag sits in the set its key hashes to, and is dirty only
    while resident."""
    resident = set()
    for index, table in cache._sets.items():
        assert len(table) <= cache._ways
        for tag, ready in table.items():
            assert cache._index(unpack(tag)) == index
            assert type(ready) is float
        resident.update(table)
    assert cache._dirty <= resident


@pytest.mark.parametrize("key", ((0, 0), (1, 64), (63, 1 << 40)))
def test_pack_round_trips(key):
    assert unpack(pack(key)) == key


def test_namespace_bodies_keep_the_representation():
    # The per-line bodies in namespace.py edit the set tables and the
    # dirty set directly; a seeded mix over 4x a 16 KiB cache, two
    # namespaces sharing it.
    machine = Machine(default_config().with_overrides(
        cache=CacheConfig(capacity_bytes=16 * 1024)))
    spaces = [machine.namespace("optane"), machine.namespace("optane-ni")]
    thread = machine.thread()
    cache = machine.caches[0]
    rng = random.Random(7)
    for _ in range(3000):
        ns = rng.choice(spaces)
        line = rng.randrange(1024) * CACHELINE
        op = rng.randrange(6)
        if op == 0:
            ns.load(thread, line)
        elif op == 1:
            ns.store(thread, line)
        elif op == 2:
            ns.store_run(thread, line, 2, clwb=True)
            assert not cache.is_dirty((ns.ns_id, line))
        elif op == 3:
            ns.ntstore(thread, line)
            assert not cache.is_dirty((ns.ns_id, line))
        elif op == 4:
            ns.clwb(thread, line, 128)
            assert not cache.is_dirty((ns.ns_id, line))
        else:
            ns.clflushopt(thread, line, 128)
            assert not cache.lookup((ns.ns_id, line))
        assert_representation(cache)
    assert cache.dirty_keys()


def test_resident_line_footprint():
    # A resident line is one int tag and one float ready time in its
    # set dict: ~138 B of host memory here, where a (ns_id, line) key
    # and a [dirty, ready] list cost ~265 B.  Loading twice the LLC
    # fills every way, so the delta is the full cache plus what the
    # device models keep per load.
    capacity = 1 * MIB
    machine = Machine(default_config().with_overrides(
        cache=CacheConfig(capacity_bytes=capacity)))
    ns = machine.namespace("optane")
    thread = machine.thread()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for addr in range(0, 2 * capacity, CACHELINE):
            ns.load(thread, addr)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    resident = machine.caches[0].occupancy()
    assert resident == capacity // CACHELINE
    assert grown / resident < 200
