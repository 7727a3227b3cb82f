"""Known-bad inputs for every sealed record on media.

Each kind is encoded by its format's own writer and read back by its
format's own reader: a round trip returns what was written, and a
flipped byte anywhere in the sealed span, a zeroed span and a record
sealed under another epoch all read as no record.
"""

import pytest

from repro.faults.codec import CRC_SIZE, check, seal
from repro.faults.report import RecoveryReport
from repro.fs.layout import PAGE, make_gaddr
from repro.fs.log import (
    EMBED_ENTRY, SIZE_ENTRY, WRITE_ENTRY, InodeLog, decode_entry,
    encode_entry, slot_addr,
)
from repro.fs.nova import NovaFS
from repro.kvstore import records
from repro.kvstore.manifest import Manifest
from repro.pmdk import PmemPool, lane
from repro.sim import Machine


class Record:
    """One sealed kind: ``blob(epoch)`` writes it, ``read(blob, epoch)``
    decodes it (None: no record) and should give ``expected``;
    ``sealed`` lists the offsets the CRC and its seal cover."""

    def __init__(self, blob, read, sealed, expected, epoch=0):
        self.blob, self.read, self.sealed = blob, read, sealed
        self.expected, self.epoch = expected, epoch


def _kv(key, value, epoch):
    span = len(records.encode(key, value, epoch))
    return Record(lambda e: records.encode(key, value, e),
                  lambda b, e: records.decode(b, epoch=e, size=len(b)),
                  range(span), (key, value, span), epoch)


def _nova(etype, data=b"", page_gaddr=0, in_off=0):
    def read(blob, _):
        got = decode_entry(blob, 0)
        return None if got is None else got[0]
    return Record(lambda _: encode_entry(etype, 4196, 2, page_gaddr,
                                         in_off, data),
                  read, [*range(32), *range(64, 64 + len(data))],
                  {"type": etype, "pgoff": 2, "page_gaddr": page_gaddr,
                   "file_size": 4196, "in_off": in_off, "data": data})


def _lane():
    m = Machine()
    t = m.thread()
    pool = PmemPool.create(m, t)
    base = pool.lane_base(0)

    def blob(epoch):
        pool.lane_epochs[0] = epoch
        return lane.encode(pool, 0, lane.UNDO, 4096, b"snapshot")

    def read(raw, epoch):
        pool.ns.pwrite(t, base, (epoch - 1).to_bytes(8, "little"))
        pool.ns.pwrite(t, base + 64, bytes(raw).ljust(128, b"\0"))
        _, entries = lane.scan(pool, 0, RecoveryReport())
        return entries[0] if entries else None
    return Record(blob, read, range(28 + len(b"snapshot")),
                  (lane.UNDO, 4096, b"snapshot"), epoch=2)


def _manifest():
    m = Machine()
    t = m.thread()
    ns = m.namespace("optane")
    writer = Manifest(ns, 0)
    writer._seq, writer.wal_epoch = 7, 3

    def read(raw, _):
        ns.pwrite(t, 0, bytes(raw).ljust(128, b"\0"))
        seq, entries = Manifest(ns, 0).load()
        return (seq, entries) if seq else None
    return Record(lambda _: writer._encode([(4096, 512, 1)]), read,
                  range(CRC_SIZE + 12 + 24), (7, [(4096, 512, 1)]))


def _inode_slot():
    m = Machine()
    t = m.thread()
    fs = NovaFS(m)
    inode = fs.create(t)
    ns, addr = fs.devices[0], slot_addr(inode)
    committed = ns.read_persistent(addr, 24)
    log = fs._files[inode].log

    def read(raw, _):
        ns.pwrite(t, addr, bytes(raw).ljust(64, b"\0"))
        got = InodeLog.open_persistent(fs, inode, RecoveryReport())
        return None if got is None else (got.head, got.committed)
    return Record(lambda _: committed, read, range(24),
                  (log.head, log.committed))


KINDS = {
    "wal-epoch-0": lambda: _kv(b"key", b"value", 0),
    "wal-epoch-3": lambda: _kv(b"key", b"value", 3),
    "sstable-tombstone": lambda: _kv(b"gone", None, 0),
    "manifest-slot": _manifest,
    "lane-entry": _lane,
    "nova-write": lambda: _nova(WRITE_ENTRY, page_gaddr=make_gaddr(1, PAGE)),
    "nova-size": lambda: _nova(SIZE_ENTRY),
    "nova-embed": lambda: _nova(EMBED_ENTRY, b"hello world", in_off=100),
    "inode-slot": _inode_slot,
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]()


def test_round_trip(kind):
    assert kind.read(kind.blob(kind.epoch), kind.epoch) == kind.expected


def test_any_flipped_byte_of_the_sealed_span_is_rejected(kind):
    blob = kind.blob(kind.epoch)
    for i in kind.sealed:
        bad = bytearray(blob)
        bad[i] ^= 0x40
        assert kind.read(bytes(bad), kind.epoch) is None, i


def test_zeroed_span_is_no_record(kind):
    assert kind.read(bytes(len(kind.blob(kind.epoch))), kind.epoch) is None


def test_record_sealed_under_another_epoch_is_rejected(kind):
    blob = bytearray(kind.blob(kind.epoch))
    body = bytes(blob[i] for i in kind.sealed[CRC_SIZE:])
    blob[:CRC_SIZE] = seal(body, kind.epoch + 1)[:CRC_SIZE]
    assert kind.read(bytes(blob), kind.epoch) is None


def test_epoch_written_by_the_format_is_the_seal():
    """A WAL record or a lane entry written in one epoch is no record
    in the next one."""
    wal = _kv(b"k", b"v", 1)
    assert wal.read(wal.blob(1), 2) is None
    entry = _lane()
    assert entry.read(entry.blob(2), 3) is None


class TestCheck:
    def test_clipped_read_zero_fills_up_to_the_region(self):
        sealed = seal(b"ab\0\0", 5)
        clipped = sealed[:6]
        assert check(clipped, 0, 8, 5, size=8) == b"ab\0\0"
        assert check(clipped, 0, 8, 5) is None          # no region size
        assert check(clipped, 0, 8, 5, size=7) is None  # past the region

    def test_naive_mode_trusts_the_body_but_not_zeros(self):
        sealed = bytearray(seal(b"body"))
        sealed[5] ^= 1
        assert check(sealed, 0, 8) is None
        assert check(sealed, 0, 8, verify=False) == bytes(sealed[4:])
        assert check(bytes(8), 0, 8, verify=False) is None
