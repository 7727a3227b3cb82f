"""Recovery scans read a region's written extent, never its capacity.

:func:`~repro.faults.model.tolerant_read` stops at the end of the last
materialised page (or poisoned range) of the region it is asked for.
Every case here recovers twice, once through that clipped read and once
with the extent forced to the whole region, and requires the two to
agree record for record: the log's tail, its records, and the
:class:`~repro.faults.report.RecoveryReport` counts and notes.
"""

import tracemalloc

import pytest

from repro._units import KIB, MIB, XPLINE
from repro.faults.model import FaultController, tolerant_read
from repro.fs.layout import split_gaddr
from repro.fs.nova import NovaFS
from repro.kvstore.lsm import WAL_BASE, WAL_CAPACITY, LSMStore
from repro.kvstore.sstable import SSTable
from repro.kvstore.wal import WalFlex, WalPosix
from repro.sim.address import DataStore
from repro.sim.platform import Machine

PAGE = 4096
#: 16 records of exactly 256 B (10 B header + 6 B key + 240 B value):
#: the log's last record ends on the first page boundary.
PAGE_OF_RECORDS = [(b"key%03d" % i, bytes([0x41 + i]) * 240)
                   for i in range(16)]


@pytest.fixture
def full_read(monkeypatch):
    """Calls ``fn()`` with every extent forced to the whole range: the
    unclipped read recovery used to make."""
    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(DataStore, "extent",
                          lambda self, addr, size: size)
            return fn()
    return run


def _wal(machine, wal_cls=WalFlex, capacity=WAL_CAPACITY, epoch=0,
         pairs=PAGE_OF_RECORDS):
    ns = machine.namespace("optane")
    thread = machine.thread()
    wal = wal_cls(ns, WAL_BASE, capacity, epoch=epoch)
    for key, value in pairs:
        wal.append(thread, key, value, sync=True)
    return ns


def _replay(ns, wal_cls, capacity=WAL_CAPACITY, epoch=0, naive=False):
    wal = wal_cls(ns, WAL_BASE, capacity, naive=naive, epoch=epoch)
    records, report = wal.replay_report()
    return records, wal.tail, report.to_dict()


def _assert_same_replay(full_read, ns, wal_cls, **kw):
    clipped = _replay(ns, wal_cls, **kw)
    assert clipped == full_read(lambda: _replay(ns, wal_cls, **kw))
    return clipped


@pytest.mark.parametrize("wal_cls", [WalFlex, WalPosix])
class TestWalReplay:
    def test_clean_log(self, wal_cls, full_read):
        machine = Machine()
        ns = _wal(machine, wal_cls)
        records, tail, report = _assert_same_replay(full_read, ns, wal_cls)
        assert records == PAGE_OF_RECORDS and tail == 16 * 256
        assert tolerant_read(ns, WAL_BASE, WAL_CAPACITY)[0] \
            == ns.read_persistent(WAL_BASE, PAGE)

    @pytest.mark.parametrize("keep", [0, 1, 2, 3])
    @pytest.mark.parametrize("naive", [False, True])
    def test_torn_tail_on_a_page_boundary(self, wal_cls, keep, naive,
                                          full_read):
        machine = Machine()
        FaultController(machine, seed=1, tear=True, tear_keep=keep)
        ns = _wal(machine, wal_cls)
        machine.power_fail()
        records, _, _ = _assert_same_replay(full_read, ns, wal_cls,
                                            naive=naive)
        assert len(records) >= 15

    def test_poisoned_xpline_past_the_last_written_page(self, wal_cls,
                                                        full_read):
        machine = Machine()
        fc = FaultController(machine)
        ns = _wal(machine, wal_cls)
        fc.poison(ns, WAL_BASE + MIB, 1)
        data, lost = tolerant_read(ns, WAL_BASE, WAL_CAPACITY)
        assert lost == [(MIB, XPLINE)] and len(data) == MIB + XPLINE
        records, _, report = _assert_same_replay(full_read, ns, wal_cls)
        assert report["lost"] == 1

    def test_retired_epoch_leftover(self, wal_cls, full_read):
        machine = Machine()
        _wal(machine, wal_cls)
        ns = _wal(machine, wal_cls, epoch=1, pairs=PAGE_OF_RECORDS[:5])
        records, _, report = _assert_same_replay(full_read, ns, wal_cls,
                                                 epoch=1)
        assert records == PAGE_OF_RECORDS[:5] and report["truncated"] == 0

    def test_log_that_fills_its_region(self, wal_cls, full_read):
        machine = Machine()
        ns = _wal(machine, wal_cls, capacity=2 * PAGE,
                  pairs=PAGE_OF_RECORDS * 2)
        records, tail, _ = _assert_same_replay(full_read, ns, wal_cls,
                                               capacity=2 * PAGE)
        assert len(records) == 32 and tail == 2 * PAGE


def _table(machine, size_written=None):
    """A 64-record table; ``size_written`` keeps only that prefix of
    its bytes (a table whose later pages were never written)."""
    ns = machine.namespace("optane")
    thread = machine.thread()
    pairs = [(b"k%04d" % i, bytes([0x61 + i % 26]) * 200)
             for i in range(64)]
    other = Machine()
    source = other.namespace("optane")
    table = SSTable.build(source, other.thread(), 0, pairs)
    blob = source.read_persistent(0, table.size)
    ns.pwrite(thread, 64 * KIB, blob[:size_written], instr="ntstore")
    return ns, table.size


def _open(ns, size):
    table, report = SSTable.open_report(ns, 64 * KIB, size)
    items = None if table is None else (table.smallest, table.largest,
                                        table.items())
    return items, report.to_dict()


class TestSSTable:
    @pytest.mark.parametrize("written", [None, PAGE, 2 * PAGE])
    def test_open_agrees(self, written, full_read):
        machine = Machine()
        ns, size = _table(machine, written)
        clipped = _open(ns, size)
        assert clipped == full_read(lambda: _open(ns, size))
        assert (clipped[0] is None) == (written is not None)

    def test_poisoned_data_line(self, full_read):
        machine = Machine()
        fc = FaultController(machine)
        ns, size = _table(machine)
        fc.poison(ns, 64 * KIB + PAGE, 1)
        clipped = _open(ns, size)
        assert clipped == full_read(lambda: _open(ns, size))
        assert clipped[1]["lost"] > 0


def _mount(keep=None, poison_body=False):
    machine = Machine()
    fc = FaultController(machine, seed=1, tear=keep is not None,
                         tear_keep=keep)
    fs = NovaFS(machine, datalog=True)
    thread = machine.thread()
    inode = fs.create(thread)
    for i in range(40):                 # 40 embed entries: two log pages
        fs.write(thread, inode, i * 256, bytes([0x61 + i % 26]) * 256,
                 sync=True)
    if poison_body:
        dev, off = split_gaddr(fs._files[inode].log.head)
        fc.poison(fs.devices[dev], off + XPLINE, 1)
    machine.power_fail()
    mounted = NovaFS.mount(machine, datalog=True)
    return (mounted.recovery_report.to_dict(),
            mounted.read_persistent_file(inode, 0, 40 * 256)
            if inode in mounted._files else None)


class TestNovaLogPage:
    @pytest.mark.parametrize("case", [dict(), dict(keep=1),
                                      dict(poison_body=True)])
    def test_mount_agrees(self, case, full_read):
        assert _mount(**case) == full_read(lambda: _mount(**case))


def _recover_memtable():
    machine = Machine()
    store = LSMStore(machine, mode="persistent-memtable", seed=1)
    thread = machine.thread()
    for key, value in PAGE_OF_RECORDS:
        store.put(thread, key, value, sync=True)
    machine.power_fail()
    recovered = LSMStore.recover(machine, mode="persistent-memtable",
                                 seed=1)
    return (list(recovered.memtable.items()),
            recovered.memtable.approximate_bytes,
            recovered.recovery_report.to_dict())


def test_persistent_memtable_recovery_agrees(full_read):
    clipped = _recover_memtable()
    assert clipped == full_read(_recover_memtable)
    assert clipped[0] == sorted(PAGE_OF_RECORDS)


def test_lsm_recovery_of_a_small_log_stays_small():
    """One LSM restart over a few-KiB log traces well under 1 MiB: it
    no longer materialises the 8 MiB WAL region (twice)."""
    machine = Machine()
    store = LSMStore(machine, mode="wal-flex", seed=1)
    thread = machine.thread()
    for key, value in PAGE_OF_RECORDS:
        store.put(thread, key, value, sync=True)
    machine.power_fail()
    tracemalloc.start()
    try:
        recovered = LSMStore.recover(machine, mode="wal-flex", seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recovered.recovery_report.recovered == len(PAGE_OF_RECORDS)
    assert peak < MIB, "recovery traced %.1f MiB" % (peak / MIB)
