"""The PMDK lane log: one format for undo transactions and redo images.

A lane's first line holds a u64, the last *retired* epoch; the live
epoch is one past it, so a zeroed lane (a fresh pool) reads as epoch 1.
Entries follow, each 64 B-aligned::

    offset u64 | size u32 | crc u32 | epoch u64 | kind u32 | data

The CRC covers every other field and the data.  An entry is live while
its CRC holds and its epoch is the lane's, so an append writes the
entry and nothing else (no count), and one 8 B store of the header
retires every entry at once.  Slots of older epochs — zeroed ones carry
epoch 0 — can never pass for live entries.  The live epoch is cached on
the pool (``pool.lane_epochs``): the write path issues no load for it.
"""

import struct
import zlib

from repro._units import CACHELINE, align_up
from repro.faults.model import MediaError
from repro.faults.report import RecoveryReport
from repro.pmdk.pool import LANE_SIZE

UNDO, REDO = 0, 1

_HEADER = struct.Struct("<Q")
_ENTRY = struct.Struct("<QIIQI")
_CRC_BODY = struct.Struct("<QIQI")        # the entry fields under CRC


def _crc(offset, size, epoch, kind, data):
    body = _CRC_BODY.pack(offset, size, epoch, kind)
    return zlib.crc32(body + data) & 0xFFFFFFFF


def live_epoch(pool, lane):
    """The lane's live epoch, read from media once per pool handle."""
    epoch = pool.lane_epochs.get(lane)
    if epoch is None:
        raw = pool.ns.read_persistent(pool.lane_base(lane), _HEADER.size)
        epoch = pool.lane_epochs[lane] = _HEADER.unpack(raw)[0] + 1
    return epoch


def encode(pool, lane, kind, offset, data):
    """One live entry, zero-padded to whole cache lines."""
    epoch = live_epoch(pool, lane)
    blob = _ENTRY.pack(offset, len(data),
                       _crc(offset, len(data), epoch, kind, data),
                       epoch, kind) + data
    return blob + b"\x00" * (align_up(len(blob), CACHELINE) - len(blob))


def invalidate(pool, thread, lane):
    """Persist epoch + 1: every entry in the lane goes stale at once.

    The fence is load-bearing: once this returns, no crash may roll the
    retired entries back (or replay them) any more.
    """
    epoch = live_epoch(pool, lane)
    pool.ns.ntstore(thread, pool.lane_base(lane), _HEADER.size,
                    data=_HEADER.pack(epoch))
    thread.sfence()
    pool.lane_epochs[lane] = epoch + 1


def scan(read, lane_base, report=None):
    """``(live epoch, [(kind, offset, data)])`` decoded via ``read``.

    The run of live entries ends quietly at the first slot of another
    epoch; a slot that carries the live epoch but fails its bounds or
    CRC is a torn append, counted as *truncated* in ``report``.
    """
    epoch = _HEADER.unpack(read(lane_base, _HEADER.size))[0] + 1
    out = []
    tail = lane_base + CACHELINE
    room = LANE_SIZE - CACHELINE - _ENTRY.size
    while room >= 0:
        offset, size, crc, entry_epoch, kind = _ENTRY.unpack(
            read(tail, _ENTRY.size))
        if entry_epoch != epoch:
            break
        # A torn header can carry a garbage size: bound it first.
        data = read(tail + _ENTRY.size, size) if size <= room else None
        if data is None or _crc(offset, size, epoch, kind, data) != crc:
            if report is not None:
                report.truncated += 1
                report.note("lane @%#x: torn entry at +%d"
                            % (lane_base, tail - lane_base))
            break
        out.append((kind, offset, data))
        span = align_up(_ENTRY.size + size, CACHELINE)
        tail += span
        room -= span
    if report is not None:
        report.recovered += len(out)
    return epoch, out


def apply(pool, thread, entries):
    """Undo entries restore their snapshots newest first; a redo run
    (one image) writes the image.  Returns the number applied."""
    for kind, offset, data in reversed(entries):
        pool.ns.pwrite(thread, pool.addr(offset), data,
                       instr="clwb" if kind == UNDO else "ntstore")
    return len(entries)


def recover_report(pool, thread):
    """Post-crash: apply every lane's live run, then invalidate its epoch.

    Returns ``(entries applied, RecoveryReport)``.  A poisoned lane (its
    header or a live entry behind a bad XPLine) is skipped — that
    transaction's rollback is *lost*, so its in-place updates may
    survive partially; everything else still recovers.
    """
    report = RecoveryReport(component="pmdk-tx")
    applied = 0
    for lane in range(pool.lanes):
        try:
            pool.lane_epochs[lane], entries = scan(
                pool.ns.read_persistent, pool.lane_base(lane), report)
        except MediaError:
            report.lost += 1
            report.note("lane %d unreadable: rollback lost" % lane)
            continue
        applied += apply(pool, thread, entries)
        invalidate(pool, thread, lane)
    return applied, report
