"""Tests for machine assembly, namespace kinds, crash simulation and
object lifetimes."""

import gc
import weakref

import pytest

from repro.lattester.bandwidth import measure_bandwidth
from repro.sim import Machine, MachineConfig
from repro.workloads import closed_loop, get_workload, make_service


class TestNamespaceKinds:
    def setup_method(self):
        self.m = Machine()

    def test_optane_interleaved_six_dimms(self):
        ns = self.m.namespace("optane")
        assert len(ns.dimms) == 6
        assert ns.is_optane

    def test_optane_ni_single_dimm(self):
        ns = self.m.namespace("optane-ni")
        assert len(ns.dimms) == 1

    def test_ni_selects_requested_dimm(self):
        ns0 = self.m.namespace("optane-ni", dimm=0)
        ns3 = self.m.namespace("optane-ni", dimm=3)
        assert ns0.dimms[0] is not ns3.dimms[0]

    def test_remote_lives_on_socket_1(self):
        ns = self.m.namespace("optane-remote")
        assert ns.socket == 1

    def test_dram_kinds(self):
        assert not self.m.namespace("dram").is_optane
        assert self.m.namespace("dram-ni").dimms[0] is not None
        assert self.m.namespace("dram-remote").socket == 1

    def test_namespace_identity_cached(self):
        assert self.m.namespace("optane") is self.m.namespace("optane")

    def test_distinct_namespaces_distinct_ids(self):
        a = self.m.namespace("optane")
        b = self.m.namespace("dram")
        assert a.ns_id != b.ns_id

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            self.m.namespace("nvme")
        with pytest.raises(ValueError):
            self.m.namespace("optane-weird")

    def test_ns_ids_fit_the_cache_tag(self):
        # The cache packs ns_id into the six free low bits of a line.
        while len(self.m.namespaces()) < 64:
            self.m._register_namespace(None)
        with pytest.raises(ValueError):
            self.m._register_namespace(None)


class TestThreads:
    def test_thread_socket_pinning(self):
        m = Machine()
        t = m.thread(socket=1)
        assert t.socket == 1

    def test_threads_batch(self):
        m = Machine()
        ts = m.threads(4)
        assert len(ts) == 4
        assert len({t.tid for t in ts}) == 4

    def test_windows_from_config(self):
        cfg = MachineConfig()
        cfg.cache.load_window = 7
        cfg.wpq.per_thread_lines = 3
        m = Machine(cfg)
        t = m.thread()
        assert t.load_window == 7
        assert t.store_window == 3


class TestPowerFail:
    def test_crash_isolates_namespaces_correctly(self):
        m = Machine()
        a = m.namespace("optane")
        b = m.namespace("optane-ni")
        t = m.thread()
        a.pwrite(t, 0, b"AAAA", instr="ntstore")
        b.store(t, 0, 64, data=b"BBBB")
        m.power_fail()
        assert a.read_persistent(0, 4) == b"AAAA"
        assert b.read_persistent(0, 4) == b"\x00" * 4

    def test_crash_clears_caches(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        ns.load(t, 0)
        m.power_fail()
        assert m.caches[0].occupancy() == 0

    def test_crash_clears_pending_persists(self):
        m = Machine()
        ns = m.namespace("optane")
        t = m.thread()
        ns.ntstore(t, 0)
        m.power_fail()
        assert not t.pending_persists


class TestIntrospection:
    def test_migration_counters_start_zero(self):
        m = Machine()
        assert m.total_migrations() == 0
        assert m.total_thermal_stalls() == 0

    def test_config_override_helper(self):
        cfg = MachineConfig().with_overrides(sockets=1)
        assert cfg.sockets == 1
        assert MachineConfig().sockets == 2


@pytest.fixture
def no_cyclic_gc():
    """Run with the cyclic collector off, as perfbench's windows do:
    whatever is freed here is freed by refcount alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.usefixtures("no_cyclic_gc")
class TestLifetime:
    def test_machine_freed_after_bandwidth_point(self):
        m = Machine()
        ref = weakref.ref(m)
        measure_bandwidth("optane", "clwb", threads=4, per_thread=4096,
                          machine=m)
        del m
        assert ref() is None

    @pytest.mark.parametrize("substrate", ["lsm", "pmemkv", "nova", "pmdk"])
    def test_machine_freed_after_closed_loop(self, substrate):
        spec = get_workload("ycsb-a")
        m = Machine()
        ref = weakref.ref(m)
        service = make_service(substrate, m, spec, records=32, ops=64)
        report = closed_loop(m, service, spec, records=32, ops=64)
        assert report["ops"] == 64
        del m, service
        assert ref() is None

    def test_a_thread_keeps_its_machine_usable(self):
        m = Machine()
        ref = weakref.ref(m)
        ns = m.namespace("optane")
        t = m.thread()
        del m
        ns.pwrite(t, 0, b"kept", instr="clwb")
        assert ns.read_persistent(0, 4) == b"kept"
        assert ref() is t.machine
        del t
        assert ref() is None

    def test_the_machine_keeps_its_namespaces_and_bytes(self):
        m = Machine()
        ns = m.namespace("optane")
        ns_ref = weakref.ref(ns)
        ns.pwrite(m.thread(), 128, b"bytes", instr="ntstore")
        del ns
        m.power_fail()
        again = m.namespace("optane")
        assert again is ns_ref()
        assert again.read_persistent(128, 5) == b"bytes"

    def test_tids_count_up(self):
        m = Machine()
        first = m.thread()
        assert [t.tid for t in [first] + m.threads(3)] == [0, 1, 2, 3]
        assert m.thread().tid == 4

    def test_power_fail_clears_every_live_thread(self):
        m = Machine()
        ns = m.namespace("optane")
        threads = m.threads(3)
        m.thread()                   # dropped at once: not tracked
        for i, t in enumerate(threads):
            ns.ntstore(t, i * 64)
        m.power_fail()
        assert all(not t.pending_persists for t in threads)

    def test_namespace_without_its_machine_says_so(self):
        ns = Machine().namespace("optane")
        for read in (ns.read_volatile, ns.read_persistent):
            with pytest.raises(ReferenceError, match="outlived its machine"):
                read(0, 8)
