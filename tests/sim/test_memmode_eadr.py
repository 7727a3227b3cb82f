"""Tests for Memory Mode and the extended-ADR (Section 6) options."""

from repro._units import CACHELINE, KIB, MIB
from repro.sim import Machine, MachineConfig, make_memory_mode_namespace
from repro.sim.config import CacheConfig, default_config


def tiny_near_cache(per_dimm=64 * KIB):
    cfg = MachineConfig()
    cfg.dram_capacity = per_dimm
    return Machine(cfg)


class TestMemoryMode:
    def test_data_roundtrip(self):
        m = Machine()
        ns = make_memory_mode_namespace(m)
        t = m.thread()
        ns.pwrite(t, 100, b"big volatile memory", instr="clwb")
        assert ns.pread(t, 100, 19) == b"big volatile memory"

    def test_nothing_survives_power_failure(self):
        m = Machine()
        ns = make_memory_mode_namespace(m)
        t = m.thread()
        ns.pwrite(t, 0, b"gone", instr="ntstore")
        t.sfence()
        m.power_fail()
        assert ns.read_persistent(0, 4) == b"\x00" * 4

    def test_near_hit_much_faster_than_far_miss(self):
        m = tiny_near_cache()
        ns = make_memory_mode_namespace(m)
        t = m.thread().collect_latencies()
        ns.load(t, 0)
        t.mfence()
        far = t.latencies[-1]
        for cache in m.caches:
            cache.drop_all()                 # defeat the CPU cache only
        ns.load(t, 0)
        t.mfence()
        near = t.latencies[-1]
        assert far > 250                     # Optane-media latency
        assert near < 0.5 * far              # DRAM-cache latency

    def test_working_set_beyond_cache_degrades(self):
        m = tiny_near_cache(per_dimm=16 * KIB)
        ns = make_memory_mode_namespace(m)
        t = m.thread().collect_latencies()
        span = 6 * 1 * MIB                   # far beyond 6 x 16 KB
        # Two passes over a large set: second pass still misses.
        for _ in range(2):
            for addr in range(0, span, 4 * KIB):
                ns.load(t, addr)
            for cache in m.caches:
                cache.drop_all()
        assert ns.hit_rate() < 0.5

    def test_cache_resident_set_behaves_like_dram(self):
        m = tiny_near_cache(per_dimm=64 * KIB)
        ns = make_memory_mode_namespace(m)
        t = m.thread()
        lines = 64                           # 4 KB: resident everywhere
        for _ in range(4):
            for i in range(lines):
                ns.load(t, i * CACHELINE)
            for cache in m.caches:
                cache.drop_all()
        assert ns.hit_rate() > 0.6

    def test_dirty_victim_writes_back_to_far_memory(self):
        m = tiny_near_cache(per_dimm=16 * KIB)
        ns = make_memory_mode_namespace(m)
        t = m.thread()
        xp = ns.dimms[0]
        before = xp.counters.imc_write_bytes
        # Dirty a block, then collide with it (same direct-mapped slot).
        ns.pwrite(t, 0, b"x" * CACHELINE, instr="clwb")
        collide = 16 * KIB * 6               # same index, different tag
        ns.load(t, collide)
        assert sum(c.writebacks for c in ns._near) >= 1
        assert xp.counters.imc_write_bytes > before

    def test_own_llc_victim_reaches_far_memory(self):
        # A dirty Memory Mode line evicted from the LLC is written into
        # its near-memory block, and that block goes to the 3D XPoint
        # DIMM when a colliding fill evicts it.
        cfg = default_config().with_overrides(
            cache=CacheConfig(capacity_bytes=16 * KIB))
        cfg.dram_capacity = 16 * KIB
        m = Machine(cfg)
        ns = make_memory_mode_namespace(m)
        t = m.thread()
        near, xp = ns._near[0], ns.dimms[0]
        ns.store(t, 0, CACHELINE, data=b"v" * CACHELINE)
        assert near._tags[0] == (0, False)   # filled clean by the RFO
        ns.load(t, CACHELINE, 64 * KIB)      # evicts line 0 from the LLC
        assert not m.caches[0].is_dirty((ns.ns_id, 0))
        assert near._tags[0] == (0, True)
        before = xp.counters.imc_write_bytes
        ns.load(t, 16 * KIB * 6)             # same near block, new tag
        assert near.writebacks == 1
        assert xp.counters.imc_write_bytes == before + CACHELINE

    def test_victims_of_other_namespaces_go_home(self):
        # The LLC is shared: a Memory Mode fill that evicts an App
        # Direct line must persist it in its own namespace.
        m = Machine(default_config().with_overrides(
            cache=CacheConfig(capacity_bytes=16 * KIB)))
        optane = m.namespace("optane")
        ns = make_memory_mode_namespace(m)
        t = m.thread()
        optane.store(t, 0, 16 * KIB, data=b"d" * (16 * KIB))
        ns.load(t, 0, 64 * KIB)
        assert not any(k[0] == optane.ns_id
                       for k in m.caches[0].dirty_keys())
        assert not optane.data._undo         # every evicted line durable

    def test_warm_stores_land_in_dram(self):
        def rewrite_cost(ns, machine):
            t = machine.thread()
            ns.pwrite(t, 0, b"y" * 4096, instr="clwb")   # warm the blocks
            for cache in machine.caches:
                cache.drop_all()        # drop the CPU cache, keep near
            start = t.now
            ns.pwrite(t, 0, b"z" * 4096, instr="clwb")
            return t.now - start

        m = Machine()
        mem_mode = rewrite_cost(make_memory_mode_namespace(m), m)
        m2 = Machine()
        app_direct = rewrite_cost(m2.namespace("optane"), m2)
        # Memory Mode RFOs hit the DRAM near-cache; App Direct's RFOs
        # and write-backs reach the 3D XPoint media.
        assert mem_mode < app_direct


class TestExtendedADR:
    def test_plain_stores_become_durable(self):
        cfg = MachineConfig()
        cfg.cache.eadr = True
        m = Machine(cfg)
        ns = m.namespace("optane")
        t = m.thread()
        ns.store(t, 0, 64, data=b"E" * 64)   # no flush, no fence
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"E" * 64

    def test_without_eadr_same_store_is_lost(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        ns.store(t, 0, 64, data=b"L" * 64)
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"\x00" * 64

    def test_eadr_does_not_persist_dram_namespaces(self):
        cfg = MachineConfig()
        cfg.cache.eadr = True
        m = Machine(cfg)
        dram = m.namespace("dram")
        t = m.thread()
        dram.store(t, 0, 64, data=b"D" * 64)
        m.power_fail()
        assert dram.read_persistent(0, 64) == b"\x00" * 64

    def test_eadr_with_memory_mode_stays_volatile(self):
        cfg = MachineConfig()
        cfg.cache.eadr = True
        m = Machine(cfg)
        ns = make_memory_mode_namespace(m)
        t = m.thread()
        ns.store(t, 0, 64, data=b"V" * 64)
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"\x00" * 64

    def test_kvstore_without_flushes_on_eadr(self):
        # With eADR, even the "store" persistence path is crash-safe.
        cfg = MachineConfig()
        cfg.cache.eadr = True
        m = Machine(cfg)
        ns = m.namespace("optane")
        t = m.thread()
        ns.pwrite(t, 0, b"no flushes needed", instr="store")
        m.power_fail()
        assert ns.read_persistent(0, 17) == b"no flushes needed"
