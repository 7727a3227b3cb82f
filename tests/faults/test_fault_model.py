"""The fault injector itself: tears, poison, transients, throttling."""

import pytest

from repro._units import CACHELINE, XPLINE
from repro.faults.model import (
    FaultController, MediaError, overlaps_lost, tolerant_read,
)
from repro.sim.crashpoints import (
    CrashInjector, SimulatedPowerFailure, count_persists,
)
from repro.sim.platform import Machine


def _write_xpline(machine, addr=0, data=None):
    """ntstore one full XPLine (4 persist chunks) and fence."""
    thread = machine.thread()
    ns = machine.namespace("optane")
    data = data if data is not None else bytes(range(1, 5)) * 64
    ns.ntstore(thread, addr, len(data), data=data)
    thread.sfence()
    return ns, data


class TestTornWrites:
    def test_no_tear_without_flag(self):
        machine = Machine()
        FaultController(machine, seed=1, tear=False)
        ns, data = _write_xpline(machine)
        machine.power_fail()
        assert ns.read_persistent(0, XPLINE) == data

    def test_prefix_keep_is_exact(self):
        for keep in range(5):
            machine = Machine()
            fc = FaultController(machine, seed=1, tear=True,
                                 tear_keep=keep)
            ns, data = _write_xpline(machine)
            machine.power_fail()
            got = ns.read_persistent(0, XPLINE)
            cut = keep * CACHELINE
            assert got[:cut] == data[:cut]
            assert got[cut:] == b"\x00" * (XPLINE - cut)
            assert fc.torn_chunks == 4 - keep

    def test_seeded_tear_is_deterministic(self):
        def run(seed):
            machine = Machine()
            FaultController(machine, seed=seed, tear=True)
            ns, _ = _write_xpline(machine)
            machine.power_fail()
            return ns.read_persistent(0, XPLINE)

        assert run(7) == run(7)
        # Different seeds explore different prefixes across the space;
        # at least one of these seeds must differ from seed 7.
        assert any(run(s) != run(7) for s in range(8, 16))

    def test_only_final_xpline_tears(self):
        machine = Machine()
        FaultController(machine, seed=1, tear=True, tear_keep=0)
        thread = machine.thread()
        ns = machine.namespace("optane")
        first = b"\x11" * XPLINE
        second = b"\x22" * XPLINE
        ns.ntstore(thread, 0, XPLINE, data=first)
        ns.ntstore(thread, XPLINE, XPLINE, data=second)
        thread.sfence()
        machine.power_fail()
        # The earlier XPLine is fully on media; only the tail tore.
        assert ns.read_persistent(0, XPLINE) == first
        assert ns.read_persistent(XPLINE, XPLINE) == b"\x00" * XPLINE

    def test_rollback_restores_pre_persist_bytes(self):
        machine = Machine()
        thread = machine.thread()
        ns = machine.namespace("optane")
        old = b"\x55" * XPLINE
        ns.ntstore(thread, 0, XPLINE, data=old)
        thread.sfence()
        FaultController(machine, seed=1, tear=True, tear_keep=0)
        ns.ntstore(thread, 0, XPLINE, data=b"\x66" * XPLINE)
        thread.sfence()
        machine.power_fail()
        assert ns.read_persistent(0, XPLINE) == old


class TestPoison:
    def test_poisoned_line_raises_on_every_read_path(self):
        machine = Machine()
        fc = FaultController(machine)
        ns, _ = _write_xpline(machine)
        thread = machine.thread()
        fc.poison(ns, 0, 1)
        with pytest.raises(MediaError):
            ns.pread(thread, 0, 64)
        with pytest.raises(MediaError):
            ns.read_volatile(0, 64)
        with pytest.raises(MediaError):
            ns.read_persistent(0, 64)
        # The neighbouring XPLine is unaffected.
        ns.read_persistent(XPLINE, 64)

    def test_poison_site_follows_persist_order(self):
        machine = Machine()
        fc = FaultController(machine)
        thread = machine.thread()
        ns = machine.namespace("optane")
        ns.ntstore(thread, 4096, 64, data=b"\x01" * 64)
        ns.ntstore(thread, 8192, 64, data=b"\x02" * 64)
        thread.sfence()
        site = fc.poison_site(0)
        assert site == (ns.ns_id, 4096 // XPLINE)
        assert fc.poison_site(1) == (ns.ns_id, 8192 // XPLINE)
        # Indexing wraps so any site integer is valid.
        assert fc.poison_site(2) == site

    def test_tolerant_read_zero_fills_and_reports(self):
        machine = Machine()
        fc = FaultController(machine)
        ns, data = _write_xpline(machine)
        fc.poison(ns, 0, 1)
        got, lost = tolerant_read(ns, 0, 2 * XPLINE)
        assert got[:XPLINE] == b"\x00" * XPLINE
        assert got[XPLINE:] == b"\x00" * XPLINE  # never written: zeros
        assert lost == [(0, XPLINE)]
        assert overlaps_lost(lost, 0, 1)
        assert not overlaps_lost(lost, XPLINE, 64)

    def test_clear_poison_restores_reads(self):
        machine = Machine()
        fc = FaultController(machine)
        ns, data = _write_xpline(machine)
        fc.poison(ns, 0, 1)
        fc.clear_poison(ns, 0, 1)
        assert ns.read_persistent(0, XPLINE) == data


class TestTransient:
    def test_fails_n_timed_reads_then_recovers(self):
        machine = Machine()
        fc = FaultController(machine)
        ns, data = _write_xpline(machine)
        thread = machine.thread()
        fc.add_transient(ns, 0, 1, errors=2)
        for _ in range(2):
            with pytest.raises(MediaError) as exc_info:
                ns.pread(thread, 0, 64)
            assert exc_info.value.transient
        assert ns.pread(thread, 0, 64) == data[:64]

    def test_untimed_reads_never_see_transients(self):
        machine = Machine()
        fc = FaultController(machine)
        ns, data = _write_xpline(machine)
        fc.add_transient(ns, 0, 1, errors=5)
        assert ns.read_persistent(0, 64) == data[:64]


class TestThermalThrottle:
    def test_window_slows_timed_reads(self):
        def read_time(throttled):
            machine = Machine()
            fc = FaultController(machine)
            if throttled:
                fc.add_thermal_window(0.0, 1e15, factor=8.0)
            ns = machine.namespace("optane")
            thread = machine.thread()
            for off in range(0, 64 * 1024, 4096):
                ns.pread(thread, off, 4096)
            thread.drain()
            return thread.now

        assert read_time(True) > 2.0 * read_time(False)

    def test_factor_composes_and_expires(self):
        machine = Machine()
        fc = FaultController(machine)
        fc.add_thermal_window(100.0, 200.0, factor=2.0)
        fc.add_thermal_window(150.0, 300.0, factor=3.0)
        assert fc.throttle_factor(50.0) == 1.0
        assert fc.throttle_factor(120.0) == 2.0
        assert fc.throttle_factor(175.0) == 6.0
        assert fc.throttle_factor(250.0) == 3.0
        assert fc.throttle_factor(400.0) == 1.0

    def test_rejects_nonpositive_factor(self):
        fc = FaultController(Machine())
        with pytest.raises(ValueError):
            fc.add_thermal_window(0, 1, factor=0.0)


class TestCrashInjectorComposition:
    def test_injector_chains_fault_hook(self):
        machine = Machine()
        fc = FaultController(machine, seed=1, tear=True, tear_keep=1)
        injector = CrashInjector(machine, crash_at=3)
        thread = machine.thread()
        ns = machine.namespace("optane")
        with pytest.raises(SimulatedPowerFailure):
            ns.ntstore(thread, 0, XPLINE, data=b"\x77" * XPLINE)
        injector.uninstall()
        machine.power_fail()
        # The fault hook saw every persist the injector counted: the
        # tear still applies to the chunks that reached ADR.
        got = ns.read_persistent(0, XPLINE)
        assert got[:CACHELINE] == b"\x77" * CACHELINE
        assert got[CACHELINE:3 * CACHELINE] == b"\x00" * (2 * CACHELINE)
        assert fc.persist_order  # before_persist ran under the injector

    def test_uninstall_restores_previous_hook(self):
        machine = Machine()
        fc = FaultController(machine, seed=1)
        injector = CrashInjector(machine)
        injector.uninstall()
        _write_xpline(machine)
        # After uninstall the fault hook still sees persists.
        assert fc.persist_order

    def test_count_persists_unaffected_by_faults(self):
        def workload(machine):
            _write_xpline(machine)

        baseline = count_persists(workload)

        def workload_with_faults(machine):
            FaultController(machine, seed=1, tear=True)
            _write_xpline(machine)

        assert count_persists(workload_with_faults) == baseline
