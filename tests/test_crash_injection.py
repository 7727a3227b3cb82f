"""Exhaustive crash-point injection across the application substrates.

For each workload we crash at (a sampling of) every point where a line
reaches the ADR domain, recover, and assert the substrate's documented
invariants.  Determinism makes these tests exact, not probabilistic.
"""

import pytest

from repro.fs import NovaFS, PAGE
from repro.kvstore import LSMStore
from repro.pmdk import PmemPool, Transaction, recover
from repro.pmemkv import CMap
from repro.faults import (
    FaultController, SimulatedPowerFailure, count_persists,
    exhaustive_crash_test,
)
from repro.sim.platform import Machine


class TestInjectorMechanics:
    def test_count_persists(self):
        def workload(machine):
            ns = machine.namespace("optane")
            t = machine.thread()
            ns.pwrite(t, 0, b"x" * 256, instr="ntstore")   # 4 lines

        assert count_persists(workload) == 4

    def test_crash_fires_at_requested_point(self):
        machine = Machine()
        FaultController(machine, crash_at=2)
        ns = machine.namespace("optane")
        t = machine.thread()
        ns.ntstore(t, 0)
        with pytest.raises(SimulatedPowerFailure):
            ns.ntstore(t, 64)

    def test_determinism_of_persist_counts(self):
        def workload(machine):
            db = LSMStore(machine, mode="wal-flex")
            t = machine.thread()
            for i in range(20):
                db.put(t, b"k%02d" % i, b"v%02d" % i)

        assert count_persists(workload) == count_persists(workload)


class TestCrashInsideOneRange:
    """A crash partway through one ntstore keeps the old durable bytes."""

    @pytest.mark.parametrize("crash_at", [1, 7, 16])
    def test_unpersisted_lines_keep_old_durable_bytes(self, crash_at):
        machine = Machine()
        ns = machine.namespace("optane")
        t = machine.thread()
        ns.pwrite(t, 0, b"O" * 1024, instr="ntstore")      # 16 lines
        fc = FaultController(machine, crash_at=crash_at)
        with pytest.raises(SimulatedPowerFailure):
            ns.ntstore(t, 0, 1024, data=b"N" * 1024)
        fc.crash_at = None
        machine.power_fail()
        want = b"N" * (64 * crash_at) + b"O" * (1024 - 64 * crash_at)
        assert ns.read_persistent(0, 1024) == want
        assert ns.read_volatile(0, 1024) == want

    def test_power_fail_with_nothing_pending_keeps_every_page(self):
        machine = Machine()
        ns = machine.namespace("optane")
        t = machine.thread()
        ns.pwrite(t, 0, b"D" * 3 * PAGE, instr="ntstore")
        pages = dict(ns.data._volatile)
        machine.power_fail()
        assert ns.data._volatile.keys() == pages.keys()
        assert all(ns.data._volatile[p] is buf for p, buf in pages.items())
        assert ns.read_volatile(0, 3 * PAGE) == b"D" * 3 * PAGE


class TestLSMCrashEverywhere:
    @pytest.mark.parametrize("mode", ["wal-flex", "persistent-memtable"])
    def test_prefix_of_synced_puts_recovers(self, mode):
        keys = [b"key-%02d" % i for i in range(12)]

        def workload(machine):
            db = LSMStore(machine, mode=mode)
            t = machine.thread()
            for i, key in enumerate(keys):
                db.put(t, key, b"val-%02d" % i)

        def check(machine, crashed_at):
            db = LSMStore.recover(machine, mode=mode)
            t = machine.thread()
            # Values must form a prefix: once key i is missing, no
            # later key may be present (puts were synced in order).
            present = [db.get(t, k) is not None for k in keys]
            if False in present:
                first_missing = present.index(False)
                assert not any(present[first_missing:]), (
                    "crash@%d left a gap: %s" % (crashed_at, present))
            # Every recovered value is intact, never torn.
            for i, key in enumerate(keys):
                value = db.get(t, key)
                assert value in (None, b"val-%02d" % i)

        exercised = exhaustive_crash_test(workload, check, stride=2)
        assert exercised >= 5

    @pytest.mark.parametrize("mode", ["wal-flex", "wal-posix"])
    def test_overwrite_after_flush_reads_acked_or_in_flight(self, mode):
        """put, flush, overwrite in reverse order: the old generation's
        records sit behind the new one's live end in the log."""
        keys = [b"key-%02d" % i for i in range(6)]
        state = {}

        def workload(machine):
            db = LSMStore(machine, mode=mode)
            t = machine.thread()
            state.clear()

            def put(key, value):
                state["in_flight"] = (key, value)
                db.put(t, key, value)
                state[key] = value          # acknowledged
                del state["in_flight"]

            for key in keys:
                put(key, b"old")
            db.flush(t)
            for key in reversed(keys):
                put(key, b"new")

        def check(machine, crashed_at):
            db = LSMStore.recover(machine, mode=mode)
            t = machine.thread()
            in_flight = state.get("in_flight", (None, None))
            for key in keys:
                allowed = {state.get(key)}
                if in_flight[0] == key:
                    allowed.add(in_flight[1])
                got = db.get(t, key)
                assert got in allowed, (
                    "crash@%d: %r read %r, allowed %r"
                    % (crashed_at, key, got, allowed))

        exercised = exhaustive_crash_test(workload, check)
        assert exercised >= 16

    def test_delete_crash_is_atomic(self):
        def workload(machine):
            db = LSMStore(machine, mode="wal-flex")
            t = machine.thread()
            db.put(t, b"target", b"value")
            db.delete(t, b"target")

        def check(machine, crashed_at):
            db = LSMStore.recover(machine, mode="wal-flex")
            t = machine.thread()
            assert db.get(t, b"target") in (None, b"value")

        exhaustive_crash_test(workload, check, stride=2)


class TestNovaCrashEverywhere:
    def test_overwrite_is_old_or_new(self):
        def workload(machine):
            fs = NovaFS(machine, datalog=True)
            t = machine.thread()
            inode = fs.create(t)
            fs.write(t, inode, 0, b"1" * PAGE)
            fs.write(t, inode, 100, b"NEWDATA!")

        def check(machine, crashed_at):
            fs = NovaFS.mount(machine, datalog=True)
            if 1 not in fs._files:
                return                       # crashed before create
            got = fs.read_persistent_file(1, 100, 8)
            assert got in (b"", b"1" * 8, b"NEWDATA!"), (
                "torn write at crash point %d: %r" % (crashed_at, got))

        exercised = exhaustive_crash_test(workload, check, stride=9)
        assert exercised >= 8

    def test_truncate_is_atomic(self):
        def workload(machine):
            fs = NovaFS(machine)
            t = machine.thread()
            inode = fs.create(t)
            fs.write(t, inode, 0, b"2" * PAGE)
            fs.truncate(t, inode, 64)

        def check(machine, crashed_at):
            fs = NovaFS.mount(machine)
            if 1 not in fs._files:
                return
            size = fs.stat_size(1)
            assert size in (0, PAGE, 64)

        exhaustive_crash_test(workload, check, stride=31)


class TestTransactionCrashEverywhere:
    def test_committed_or_rolled_back_never_mixed(self):
        def workload(machine):
            t = machine.thread()
            pool = PmemPool.create(machine, t)
            a = pool.heap.alloc(64) - pool.base
            b = pool.heap.alloc(64) - pool.base
            pool.write(t, a, b"A" * 64, instr="ntstore")
            pool.write(t, b, b"B" * 64, instr="ntstore")
            with Transaction(pool, t) as tx:
                tx.store(a, b"X" * 64)
                tx.store(b, b"Y" * 64)

        def check(machine, crashed_at):
            try:
                pool = PmemPool.open(machine)
            except ValueError:
                return                       # crashed before the header
            t = machine.thread()
            recover(pool, t)
            # Both objects live right after the lanes in the heap.
            a = pool.heap.alloc(64) - pool.base - 128
            b = a + 64
            va = pool.read_persistent(a, 64)
            vb = pool.read_persistent(b, 64)
            assert va in (b"\x00" * 64, b"A" * 64, b"X" * 64)
            assert vb in (b"\x00" * 64, b"B" * 64, b"Y" * 64)
            # The atomicity invariant: after recovery, never one old
            # and one new.
            if va == b"X" * 64 or vb == b"Y" * 64:
                committed = va == b"X" * 64 and vb == b"Y" * 64
                rolled = va == b"A" * 64 and vb == b"B" * 64
                assert committed or rolled, (
                    "mixed state at crash %d: %r/%r"
                    % (crashed_at, va[:1], vb[:1]))

        exhaustive_crash_test(workload, check, stride=5)


class TestCMapCrashEverywhere:
    def test_publish_atomicity(self):
        def workload(machine):
            t = machine.thread()
            pool = PmemPool.create(machine, t)
            kv = CMap(pool, buckets=64)
            machine._cmap_table = kv.table_offset
            kv.put(t, b"alpha", b"1111")
            kv.put(t, b"beta", b"2222")

        def check(machine, crashed_at):
            try:
                pool = PmemPool.open(machine)
            except ValueError:
                return
            table = getattr(machine, "_cmap_table", None)
            if table is None:
                return
            kv, _ = CMap.open_report(pool, table, buckets=64)
            t = machine.thread()
            assert kv.get(t, b"alpha") in (None, b"1111")
            assert kv.get(t, b"beta") in (None, b"2222")
            # Publication order: beta present implies alpha present.
            if kv.get(t, b"beta") is not None:
                assert kv.get(t, b"alpha") is not None

        exhaustive_crash_test(workload, check, stride=3)
