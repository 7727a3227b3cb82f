"""Integration tests: namespace memory operations and persistence."""

import pytest

from repro._units import CACHELINE, KIB
from repro.sim import Machine


def fresh():
    m = Machine()
    return m, m.namespace("optane"), m.thread()


class TestLoads:
    def test_load_advances_time(self):
        m, ns, t = fresh()
        ns.load(t, 0)
        t.mfence()
        assert t.now > 300.0                     # one cold Optane miss

    def test_cache_hit_is_cheap(self):
        m, ns, t = fresh()
        ns.load(t, 0)
        t.mfence()
        before = t.now
        ns.load(t, 0)
        assert t.now - before < 30.0

    def test_multi_line_load(self):
        m, ns, t = fresh()
        t.collect_latencies()
        ns.load(t, 0, 256)
        assert len(t.latencies) == 4

    def test_unaligned_runs_raise(self):
        # The cache names a line by line | ns_id, so a run must start
        # on a line boundary.
        m, ns, t = fresh()
        for run in (ns.load_run, ns.store_run, ns.ntstore_run):
            with pytest.raises(ValueError):
                run(t, 8, 2)
        assert m.caches[0].occupancy() == 0

    def test_pread_returns_written_data(self):
        m, ns, t = fresh()
        ns.pwrite(t, 100, b"payload", instr="ntstore")
        assert ns.pread(t, 100, 7) == b"payload"


class TestPersistenceSemantics:
    def test_ntstore_persists_after_fence(self):
        m, ns, t = fresh()
        ns.ntstore(t, 0, 64, data=b"N" * 64)
        t.sfence()
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"N" * 64

    def test_plain_store_lost_on_crash(self):
        m, ns, t = fresh()
        ns.store(t, 0, 64, data=b"S" * 64)
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"\x00" * 64

    def test_store_clwb_persists(self):
        m, ns, t = fresh()
        ns.store(t, 0, 64, data=b"C" * 64)
        ns.clwb(t, 0, 64)
        t.sfence()
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"C" * 64

    def test_clflushopt_persists_and_invalidates(self):
        m, ns, t = fresh()
        ns.store(t, 0, 64, data=b"F" * 64)
        ns.clflushopt(t, 0, 64)
        t.sfence()
        key = (ns.ns_id, 0)
        assert not m.caches[0].lookup(key)
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"F" * 64

    def test_volatile_view_survives_until_crash(self):
        m, ns, t = fresh()
        ns.store(t, 0, 64, data=b"V" * 64)
        assert ns.read_volatile(0, 64) == b"V" * 64
        m.power_fail()
        assert ns.read_volatile(0, 64) == b"\x00" * 64

    def test_flush_persists_latest_value(self):
        m, ns, t = fresh()
        ns.store(t, 0, 64, data=b"1" * 64)
        ns.store(t, 0, 64, data=b"2" * 64)
        ns.clwb(t, 0, 64)
        t.sfence()
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"2" * 64

    def test_natural_eviction_persists(self):
        m, ns, t = fresh()
        ns.store(t, 0, 64, data=b"E" * 64)
        # Stream enough dirty lines through the cache to evict line 0.
        cap = m.config.cache.capacity_bytes
        for i in range(1, 2 * cap // CACHELINE):
            ns.store(t, i * CACHELINE)
        m.power_fail()
        assert ns.read_persistent(0, 64) == b"E" * 64

    def test_pwrite_clwb_path(self):
        m, ns, t = fresh()
        ns.pwrite(t, 64, b"x" * 128, instr="clwb")
        m.power_fail()
        assert ns.read_persistent(64, 128) == b"x" * 128

    def test_pwrite_store_not_durable(self):
        m, ns, t = fresh()
        ns.pwrite(t, 64, b"y" * 128, instr="store")
        m.power_fail()
        assert ns.read_persistent(64, 128) == b"\x00" * 128

    def test_pwrite_rejects_unknown_instr(self):
        m, ns, t = fresh()
        try:
            ns.pwrite(t, 0, b"z", instr="wombat")
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestWriteTiming:
    def test_ntstore_faster_than_clwb_for_large(self):
        m = Machine()
        ns = m.namespace("optane")
        t1, t2 = m.thread(), m.thread()
        size = 4 * KIB
        ns.ntstore(t1, 0, size)
        t1.sfence()
        base2 = 1 << 20
        ns.store(t2, base2, size)
        ns.clwb(t2, base2, size)
        t2.sfence()
        assert t1.now < t2.now

    def test_clwb_cheaper_for_single_line(self):
        m = Machine()
        ns = m.namespace("optane")
        t1, t2 = m.thread(), m.thread()
        ns.load(t1, 0)
        t1.mfence()
        start1 = t1.now
        ns.store(t1, 0)
        ns.clwb(t1, 0)
        t1.sfence()
        lat_clwb = t1.now - start1
        t2.mfence()
        start2 = t2.now
        ns.ntstore(t2, 1 << 20)
        t2.sfence()
        lat_nt = t2.now - start2
        assert lat_clwb < lat_nt

    def test_store_rfo_reads_the_device(self):
        m = Machine()
        ns = m.namespace("optane-ni")
        t = m.thread()
        before = ns.dimms[0].counters.media_read_bytes
        ns.store(t, 0, 256)
        assert ns.dimms[0].counters.media_read_bytes > before


class TestRemoteAccess:
    def test_remote_read_slower(self):
        m = Machine()
        local = m.namespace("optane")
        remote = m.namespace("optane-remote")
        t1 = m.thread(socket=0).collect_latencies()
        t2 = m.thread(socket=0).collect_latencies()
        local.load(t1, 0)
        remote.load(t2, 0)
        assert t2.latencies[0] > t1.latencies[0]

    def test_remote_write_persists(self):
        m = Machine()
        remote = m.namespace("optane-remote")
        t = m.thread(socket=0)
        remote.pwrite(t, 0, b"far", instr="ntstore")
        m.power_fail()
        assert remote.read_persistent(0, 3) == b"far"
