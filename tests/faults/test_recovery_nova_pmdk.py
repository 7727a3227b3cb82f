"""Graceful degradation in NOVA log replay and PMDK tx recovery."""

import pytest

from repro._units import XPLINE
from repro.faults.model import FaultController, SimulatedPowerFailure
from repro.fs.layout import INODE_TABLE_PAGE, PAGE, split_gaddr
from repro.fs.nova import NovaFS
from repro.pmdk.pool import PmemPool
from repro.pmdk.tx import Transaction, recover, recover_report
from repro.sim.platform import Machine

WRITES = 6
SPAN = 256


def _populate_fs(machine):
    fs = NovaFS(machine, datalog=True)
    thread = machine.thread()
    inode = fs.create(thread)
    for i in range(WRITES):
        fs.write(thread, inode, i * SPAN, bytes([0x61 + i]) * SPAN,
                 sync=True)
    return fs, inode, thread


def _file_regions(fs, inode):
    """Classify each written region: 'ok', 'missing' or 'corrupt'."""
    total = WRITES * SPAN
    data = fs.read_persistent_file(inode, 0, total).ljust(total, b"\x00")
    out = []
    for i in range(WRITES):
        chunk = data[i * SPAN:(i + 1) * SPAN]
        if chunk == bytes([0x61 + i]) * SPAN:
            out.append("ok")
        elif not any(chunk):
            out.append("missing")
        else:
            out.append("corrupt")
    return out


class TestNovaTornLog:
    @pytest.mark.parametrize("keep", [0, 1, 2])
    def test_torn_tail_truncates_log_never_corrupts(self, keep):
        machine = Machine()
        FaultController(machine, seed=1, tear=True, tear_keep=keep)
        fs, inode, _ = _populate_fs(machine)
        machine.power_fail()
        mounted = NovaFS.mount(machine, datalog=True)
        report = mounted.recovery_report
        assert report is not None
        assert report.lost == 0                # tears are not data loss
        if inode in mounted._files:
            regions = _file_regions(mounted, inode)
            assert "corrupt" not in regions
            ok = [i for i, r in enumerate(regions) if r == "ok"]
            assert ok == list(range(len(ok)))  # prefix of write order

    def test_mid_write_crash_replays_prefix(self):
        for crash_at in (1, 6, 13, 21):
            machine = Machine()
            fc = FaultController(machine, seed=2, tear=True,
                                 crash_at=crash_at)
            try:
                _populate_fs(machine)
            except SimulatedPowerFailure:
                pass
            fc.crash_at = None
            machine.power_fail()
            mounted = NovaFS.mount(machine, datalog=True)
            if 1 not in mounted._files:
                continue               # crashed before the inode commit
            regions = _file_regions(mounted, 1)
            assert "corrupt" not in regions


class TestNovaPoison:
    def test_poisoned_log_page_loses_entries_reports_them(self):
        machine = Machine()
        fc = FaultController(machine)
        fs, inode, _ = _populate_fs(machine)
        head = fs._files[inode].log.head
        dev, off = split_gaddr(head)
        # Poison one XPLine inside the log page body (past the header
        # and first entries): some entries vanish, the scan resyncs.
        fc.poison(fs.devices[dev], off + XPLINE, 1)
        mounted = NovaFS.mount(machine, datalog=True)
        report = mounted.recovery_report
        assert report.lost > 0
        regions = _file_regions(mounted, inode)
        assert "corrupt" not in regions
        assert "ok" in regions          # entries outside the hole apply

    def test_poisoned_next_pointer_abandons_chain(self):
        machine = Machine()
        fc = FaultController(machine)
        fs, inode, _ = _populate_fs(machine)
        head = fs._files[inode].log.head
        dev, off = split_gaddr(head)
        fc.poison(fs.devices[dev], off, 1)   # header line: next pointer
        mounted = NovaFS.mount(machine, datalog=True)
        assert mounted.recovery_report.lost > 0

    def test_poisoned_inode_slot_loses_only_that_file(self):
        machine = Machine()
        fc = FaultController(machine)
        fs, inode, thread = _populate_fs(machine)
        # Slots are 64 B and XPLines 256 B, so inodes 1-3 share the
        # first line; put the survivor in the *next* XPLine.
        while True:
            inode2 = fs.create(thread)
            if (inode2 * 64) // XPLINE != (inode * 64) // XPLINE:
                break
        fs.write(thread, inode2, 0, b"z" * SPAN, sync=True)
        ns = fs.devices[0]
        fc.poison(ns, INODE_TABLE_PAGE * PAGE + inode * 64, 1)
        mounted = NovaFS.mount(machine, datalog=True)
        report = mounted.recovery_report
        assert report.lost > 0
        assert inode not in mounted._files
        assert inode2 in mounted._files


class TestPmdkUndoLog:
    def _pool_with_tx(self, machine, crash_at=None):
        thread = machine.thread()
        pool = PmemPool.create(machine, thread)
        a = pool.heap.alloc(64) - pool.base
        b = pool.heap.alloc(64) - pool.base
        pool.write(thread, a, b"A" * 64, instr="ntstore")
        pool.write(thread, b, b"B" * 64, instr="ntstore")
        with Transaction(pool, thread) as tx:
            tx.store(a, b"X" * 64)
            tx.store(b, b"Y" * 64)
        return pool, thread, a, b

    @pytest.mark.parametrize("keep", [0, 1, 2, 3])
    def test_atomicity_holds_under_every_tear(self, keep):
        for crash_at in (4, 6, 8, 10, 12):
            machine = Machine()
            fc = FaultController(machine, seed=1, tear=True,
                                 tear_keep=keep, crash_at=crash_at)
            try:
                self._pool_with_tx(machine)
            except SimulatedPowerFailure:
                pass
            fc.crash_at = None
            machine.power_fail()
            try:
                pool = PmemPool.open(machine)
            except ValueError:
                continue
            thread = machine.thread()
            restored, report = recover_report(pool, thread)
            assert report.lost == 0
            a = pool.heap.alloc(64) - pool.base - 128
            b = a + 64
            va = pool.read_persistent(a, 64)
            vb = pool.read_persistent(b, 64)
            assert va in (b"\x00" * 64, b"A" * 64, b"X" * 64)
            assert vb in (b"\x00" * 64, b"B" * 64, b"Y" * 64)
            if va == b"X" * 64 or vb == b"Y" * 64:
                assert (va, vb) in ((b"X" * 64, b"Y" * 64),
                                    (b"A" * 64, b"B" * 64))

    def test_header_crc_rejects_torn_header_not_just_torn_data(self):
        """The CRC covers (offset, size) too: corrupt either field and
        the entry is rejected instead of rolling back garbage."""
        machine = Machine()
        thread = machine.thread()
        pool = PmemPool.create(machine, thread)
        a = pool.heap.alloc(64) - pool.base
        pool.write(thread, a, b"A" * 64, instr="ntstore")
        tx = Transaction(pool, thread)
        tx.begin()
        tx.add(a, 64)
        # Flip the entry's size field in place (data + crc untouched).
        lane = pool.lane_base(0)
        import struct
        raw = bytearray(pool.ns.read_persistent(lane + 64, 16))
        crc, offset, size = struct.unpack("<IQI", raw)
        pool.ns.pwrite(thread, lane + 64,
                       struct.pack("<IQI", crc, offset, size - 8),
                       instr="ntstore")
        machine.power_fail()
        restored = recover(pool, machine.thread())
        assert restored == 0           # torn header: entry rejected

    def test_poisoned_lane_reports_lost_rollback(self):
        machine = Machine()
        fc = FaultController(machine)
        thread = machine.thread()
        pool = PmemPool.create(machine, thread)
        a = pool.heap.alloc(64) - pool.base
        pool.write(thread, a, b"A" * 64, instr="ntstore")
        tx = Transaction(pool, thread)
        tx.begin()
        tx.add(a, 64)
        tx.store(a, b"X" * 64, snapshot=False)
        machine.power_fail()           # crash with the tx still open
        fc.poison(pool.ns, pool.lane_base(0), 1)
        restored, report = recover_report(pool, machine.thread())
        assert report.lost > 0         # rollback lost, and says so
        # Other lanes were still processed without raising.
        assert restored == 0

    def test_recover_report_counts_restored_ranges(self):
        machine = Machine()
        thread = machine.thread()
        pool = PmemPool.create(machine, thread)
        a = pool.heap.alloc(64) - pool.base
        b = pool.heap.alloc(64) - pool.base
        pool.write(thread, a, b"A" * 64, instr="ntstore")
        pool.write(thread, b, b"B" * 64, instr="ntstore")
        tx = Transaction(pool, thread)
        tx.begin()
        tx.add(a, 64)
        tx.add(b, 64)
        machine.power_fail()           # crash before commit
        restored, report = recover_report(pool, machine.thread())
        assert restored == 2
        assert report.recovered == 2
        assert report.clean
