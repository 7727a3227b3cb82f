"""Graceful degradation in the kvstore: WAL replay, SSTables, scrub."""

import pytest

from repro._units import XPLINE
from repro.faults.model import FaultController, SimulatedPowerFailure
from repro.kvstore.lsm import WAL_BASE, LSMStore
from repro.kvstore.sstable import SSTable
from repro.kvstore.wal import WalFlex, WalPosix
from repro.sim.platform import Machine

#: Values span multiple 64 B tear chunks, so a torn record is partially
#: stale bytes — exactly what CRCs exist to catch.
PAIRS = [(b"key%02d" % i, bytes([0x41 + i]) * 96) for i in range(6)]


def _populate(machine, mode="wal-flex"):
    store = LSMStore(machine, mode=mode, seed=1)
    thread = machine.thread()
    for key, value in PAIRS:
        store.put(thread, key, value, sync=True)
    return store, thread


class TestWalTornTail:
    @pytest.mark.parametrize("keep", [0, 1, 2, 3])
    @pytest.mark.parametrize("wal_cls", [WalFlex, WalPosix])
    def test_torn_tail_truncates_never_corrupts(self, wal_cls, keep):
        machine = Machine()
        FaultController(machine, seed=1, tear=True, tear_keep=keep)
        ns = machine.namespace("optane")
        thread = machine.thread()
        wal = wal_cls(ns, WAL_BASE, 1 << 20)
        for key, value in PAIRS:
            wal.append(thread, key, value, sync=True)
        machine.power_fail()
        replayed, report = wal_cls(ns, WAL_BASE, 1 << 20).replay_report()
        expected = dict(PAIRS)
        for key, value in replayed:
            assert expected[key] == value       # correct or absent
        # Replay recovers a prefix of the append order.
        keys = [k for k, _ in PAIRS]
        got = [k for k, _ in replayed]
        assert got == keys[:len(got)]
        assert report.lost == 0
        assert report.recovered == len(replayed)

    def test_seeded_tear_same_seed_same_outcome(self):
        def replay(seed):
            machine = Machine()
            FaultController(machine, seed=seed, tear=True)
            ns = machine.namespace("optane")
            thread = machine.thread()
            wal = WalFlex(ns, WAL_BASE, 1 << 20)
            for key, value in PAIRS:
                wal.append(thread, key, value, sync=True)
            machine.power_fail()
            return WalFlex(ns, WAL_BASE, 1 << 20).replay()

        assert replay(3) == replay(3)


class TestWalPoison:
    def test_flex_resyncs_past_hole_and_reports_loss(self):
        machine = Machine()
        fc = FaultController(machine)
        ns = machine.namespace("optane")
        thread = machine.thread()
        wal = WalFlex(ns, WAL_BASE, 1 << 20)
        for key, value in PAIRS:
            wal.append(thread, key, value, sync=True)
        # Poison the first WAL XPLine: records 0/1 live there.
        fc.poison(ns, WAL_BASE, 1)
        replayed, report = WalFlex(ns, WAL_BASE, 1 << 20).replay_report()
        assert report.lost > 0
        got = [k for k, _ in replayed]
        assert got                               # resynced past the hole
        assert b"key05" in got
        assert b"key00" not in got
        for key, value in replayed:
            assert dict(PAIRS)[key] == value

    def test_posix_abandons_log_after_hole(self):
        machine = Machine()
        fc = FaultController(machine)
        ns = machine.namespace("optane")
        thread = machine.thread()
        wal = WalPosix(ns, WAL_BASE, 1 << 20)
        for key, value in PAIRS:
            wal.append(thread, key, value, sync=True)
        fc.poison(ns, WAL_BASE, 1)
        replayed, report = WalPosix(ns, WAL_BASE, 1 << 20).replay_report()
        # Unaligned records cannot resync: everything after is lost,
        # but the loss is *reported*, not silent.
        assert replayed == []
        assert report.lost > 0


class TestNaiveModeDemo:
    def test_crcless_replay_returns_corrupt_values(self):
        """The demonstration the matrix relies on: without CRCs a torn
        record decodes into garbage instead of being truncated."""
        machine = Machine()
        FaultController(machine, seed=1, tear=True, tear_keep=1)
        ns = machine.namespace("optane")
        thread = machine.thread()
        wal = WalFlex(ns, WAL_BASE, 1 << 20)
        for key, value in PAIRS:
            wal.append(thread, key, value, sync=True)
        machine.power_fail()
        honest = WalFlex(ns, WAL_BASE, 1 << 20).replay()
        naive = WalFlex(ns, WAL_BASE, 1 << 20, naive=True).replay()
        expected = dict(PAIRS)
        assert all(expected[k] == v for k, v in honest)
        assert len(naive) > len(honest)
        corrupt = [(k, v) for k, v in naive if expected.get(k) != v]
        assert corrupt                  # the torn record came back wrong


class TestLSMRecovery:
    @pytest.mark.parametrize("mode",
                             ["wal-flex", "wal-posix",
                              "persistent-memtable"])
    def test_clean_crash_recovery_reports_clean(self, mode):
        machine = Machine()
        _populate(machine, mode=mode)
        machine.power_fail()
        store = LSMStore.recover(machine, mode=mode, seed=1)
        thread = machine.thread()
        assert store.recovery_report is not None
        assert not store.recovery_report.data_loss
        for key, value in PAIRS:
            assert store.get(thread, key) == value

    def test_poisoned_manifest_slot_falls_back_to_other(self):
        machine = Machine()
        fc = FaultController(machine)
        store, thread = _populate(machine)
        store.flush(thread)
        store.put(thread, b"late", b"L" * 96, sync=True)
        store.flush(thread)           # both manifest slots now written
        assert store.manifest._seq >= 2
        ns = store.ns
        # Poison the newest slot; recovery must use the older one.
        newest = store.manifest.base + (store.manifest._seq % 2) * 4096
        fc.poison(ns, newest, 1)
        recovered = LSMStore.recover(machine, seed=1)
        assert recovered.tables        # older slot still names tables

    def test_poisoned_sstable_degrades_reads_and_reports(self):
        machine = Machine()
        fc = FaultController(machine)
        store, thread = _populate(machine)
        store.flush(thread)
        level, table = store.tables[0]
        fc.poison(ns=store.ns, addr=table.base, size=1)
        recovered = LSMStore.recover(machine, seed=1)
        report = recovered.recovery_report
        assert report.data_loss
        t2 = machine.thread()
        expected = dict(PAIRS)
        for key, value in PAIRS:
            got = recovered.get(t2, key)
            assert got is None or got == expected[key]

    def test_get_degrades_over_media_errors(self):
        machine = Machine()
        fc = FaultController(machine)
        store, thread = _populate(machine)
        store.flush(thread)
        # Poison the whole table region: gets fall through to nothing
        # instead of raising.
        _, table = store.tables[0]
        fc.poison(store.ns, table.base, table.size)
        fresh = LSMStore.recover(machine, seed=1)
        t2 = machine.thread()
        for key, _ in PAIRS:
            fresh.get(t2, key)         # must not raise
        assert fresh.recovery_report.data_loss


class TestScrubRepair:
    def test_scrub_reports_poisoned_records(self):
        machine = Machine()
        fc = FaultController(machine)
        store, thread = _populate(machine)
        store.flush(thread)
        _, table = store.tables[0]
        fc.poison(store.ns, table.base, 1)
        report = store.scrub(thread, repair=False)
        assert report.lost > 0

    def test_read_repair_rebuilds_table_off_poison(self):
        machine = Machine()
        fc = FaultController(machine)
        store, thread = _populate(machine)
        store.flush(thread)
        _, old_table = store.tables[0]
        fc.poison(store.ns, old_table.base, 1)
        report = store.scrub(thread, repair=True)
        assert report.lost > 0
        _, new_table = store.tables[0]
        assert new_table.base != old_table.base
        # The rebuilt table is entirely off the poisoned lines: scrub
        # again and it comes back clean.
        again = store.scrub(thread, repair=False)
        assert again.lost == 0
        # Surviving records are all present via the new table.
        t2 = machine.thread()
        survivors = dict(new_table.items())
        for key, value in survivors.items():
            assert store.get(t2, key) == value

    def test_sstable_open_report_loses_only_covered_records(self):
        machine = Machine()
        fc = FaultController(machine)
        store, thread = _populate(machine)
        store.flush(thread)
        _, table = store.tables[0]
        fc.poison(store.ns, table.base, 1)
        reopened, report = SSTable.open_report(store.ns, table.base,
                                               table.size)
        assert reopened is not None
        assert report.lost > 0
        assert report.recovered > 0    # later records survived
        survivors = dict(reopened.items())
        expected = dict(PAIRS)
        assert survivors
        for key, value in survivors.items():
            assert expected[key] == value

    def test_sstable_footer_poison_loses_table(self):
        machine = Machine()
        fc = FaultController(machine)
        store, thread = _populate(machine)
        store.flush(thread)
        _, table = store.tables[0]
        footer_line = (table.base + table.size - 1) // XPLINE * XPLINE
        fc.poison(store.ns, footer_line, 1)
        reopened, report = SSTable.open_report(store.ns, table.base,
                                               table.size)
        assert reopened is None
        assert report.lost > 0


class TestCrashPlusTear:
    @pytest.mark.parametrize("mode", ["wal-flex", "persistent-memtable"])
    def test_mid_put_crash_with_tear_keeps_prefix(self, mode):
        def run(crash_at):
            machine = Machine()
            fc = FaultController(machine, seed=2, tear=True,
                                 crash_at=crash_at)
            try:
                _populate(machine, mode=mode)
            except SimulatedPowerFailure:
                pass
            fc.crash_at = None
            machine.power_fail()
            store = LSMStore.recover(machine, mode=mode, seed=1)
            thread = machine.thread()
            assert not store.recovery_report.data_loss
            present = []
            expected = dict(PAIRS)
            for key, _ in PAIRS:
                got = store.get(thread, key)
                if got is not None:
                    assert got == expected[key]
                    present.append(key)
            keys = [k for k, _ in PAIRS]
            assert present == keys[:len(present)]

        for crash_at in (1, 4, 9, 14):
            run(crash_at)
