"""The PMDK lane log: one format for undo transactions and redo images.

A lane's first line holds a u64, the last *retired* epoch; the live
epoch is one past it, so a zeroed lane (a fresh pool) reads as epoch 1.
Entries follow, each 64 B-aligned, a sealed record
(:mod:`repro.faults.codec`) under the live epoch::

    crc u32 | offset u64 | size u32 | epoch u64 | kind u32 | data

An entry is live while its CRC holds and its epoch is the lane's, so an
append writes the entry and nothing else (no count), and one 8 B store
of the header retires every entry at once.  Slots of older epochs —
zeroed ones carry epoch 0 — can never pass for live entries.  The live
epoch is cached on the pool (``pool.lane_epochs``): the write path
issues no load for it.
"""

import struct

from repro._units import CACHELINE, align_up
from repro.faults.codec import check, seal
from repro.faults.model import END, MediaError, scan_log, tolerant_read
from repro.faults.report import RecoveryReport
from repro.pmdk.pool import LANE_SIZE

UNDO, REDO = 0, 1

_HEADER = struct.Struct("<Q")
_ENTRY = struct.Struct("<IQIQI")          # crc, then the sealed fields
_FIELDS = struct.Struct("<QIQI")


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
    blob = seal(_FIELDS.pack(offset, len(data), epoch, kind) + data, epoch)
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


def scan(pool, lane, report=None, view="persistent"):
    """``(live epoch, [(kind, offset, data)])``: the live run, as
    :func:`~repro.faults.model.scan_log` decodes a tolerant read.

    The run ends quietly at the first slot of another epoch (a zeroed
    one is epoch 0); a live-epoch slot failing its bounds or CRC is a
    torn append, *truncated* in ``report``.  A hole under the header or
    any slot the run reaches raises :class:`MediaError`: a half-readable
    undo log must not be half-applied.
    """
    buf, lost = tolerant_read(pool.ns, pool.lane_base(lane), LANE_SIZE,
                              view)

    def unreadable(pos, span):
        return any(lo < pos + span and pos < lo + ll for lo, ll in lost)

    epoch = int.from_bytes(buf[:_HEADER.size], "little") + 1
    torn = []

    def decode(pos):
        if unreadable(pos, _ENTRY.size):
            return None
        _, offset, size, entry_epoch, kind = _ENTRY.unpack(bytes(
            buf[pos:pos + _ENTRY.size]).ljust(_ENTRY.size, b"\0"))
        span = _ENTRY.size + size
        if entry_epoch != epoch:
            return END
        # A torn header can carry a garbage size: bound it first.
        if pos + span <= LANE_SIZE and unreadable(pos, span):
            return None
        body = check(buf, pos, span, epoch, LANE_SIZE)
        if body is None:
            torn.append(pos)
            return END
        return ((kind, offset, body[_FIELDS.size:]),
                pos + align_up(span, CACHELINE))

    holes = RecoveryReport()
    entries, _ = scan_log(buf, lost, decode, holes, start=CACHELINE,
                          align=CACHELINE)
    if unreadable(0, _HEADER.size) or holes.lost:
        raise MediaError("lane %d unreadable" % lane)
    if report is not None:
        report.recovered += len(entries)
        if torn:
            report.truncated += 1
            report.note("lane @%#x: torn entry at +%d"
                        % (pool.lane_base(lane), torn[0]))
    return epoch, entries


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
    header, or a slot its live run reaches, behind a bad XPLine) is
    skipped — that transaction's rollback is *lost*, so its in-place
    updates may survive partially; everything else still recovers.
    """
    report = RecoveryReport(component="pmdk-tx")
    applied = 0
    for lane in range(pool.lanes):
        try:
            pool.lane_epochs[lane], entries = scan(pool, lane, report)
        except MediaError:
            report.lost += 1
            report.note("lane %d unreadable: rollback lost" % lane)
            continue
        applied += apply(pool, thread, entries)
        invalidate(pool, thread, lane)
    return applied, report
