"""A crash-safe manifest: which SSTables exist, at which addresses.

Two slots, written alternately, each a sealed record
(:mod:`repro.faults.codec`, plain CRC) of ``seq u32 | wal_epoch u32 |
count u32 | (base u64 | size u64 | level u64) * count``; recovery picks
the newest intact slot.  This is the standard
atomic-superblock trick (LevelDB's MANIFEST/CURRENT collapsed into a
fixed-size record, which suffices here because tables are few).

A slot also carries the WAL epoch: the commit naming a flushed table
retires the WAL generation it holds (see :mod:`repro.kvstore.wal`).
"""

import struct

from repro.faults.codec import CRC_SIZE, check, seal
from repro.faults.model import tolerant_read

_HEAD = struct.Struct("<III")             # seq | wal_epoch | count
_ENTRY = struct.Struct("<QQQ")            # base | size | level
SLOT_SIZE = 4096
MAX_TABLES = (SLOT_SIZE - CRC_SIZE - _HEAD.size) // _ENTRY.size


class Manifest:
    """Persistent table-of-tables at a fixed namespace region."""

    def __init__(self, ns, base):
        self.ns = ns
        self.base = base
        self._seq = 0
        #: Epoch of the live WAL generation; :meth:`commit` persists it.
        self.wal_epoch = 0

    def slot(self, ahead=0):
        """Address of the slot the newest commit wrote (``ahead=1``: the
        slot the next commit writes)."""
        return self.base + ((self._seq + ahead) % 2) * SLOT_SIZE

    def _encode(self, entries):
        if len(entries) > MAX_TABLES:
            raise ValueError("too many tables for one manifest slot")
        body = _HEAD.pack(self._seq, self.wal_epoch, len(entries))
        for base, size, level in entries:
            body += _ENTRY.pack(base, size, level)
        return seal(body)

    def commit(self, thread, entries):
        """Durably record ``entries`` = [(base, size, level)]."""
        self._seq += 1
        self.ns.pwrite(thread, self.slot(), self._encode(entries),
                       instr="ntstore")

    def load(self):
        """Read back the newest intact slot from the persistent view.

        Returns ``(seq, [(base, size, level)])``; (0, []) if none.  The
        slot's WAL epoch lands in :attr:`wal_epoch`.
        """
        best_seq, best_epoch, best = 0, 0, []
        for slot in (self.base, self.base + SLOT_SIZE):
            # A poisoned slot must not take the other one down with it:
            # read tolerantly and let the CRC reject the zeroed bytes.
            raw, _ = tolerant_read(self.ns, slot, SLOT_SIZE)
            # The read stops at the written extent: the rest is zeros.
            raw = raw.ljust(SLOT_SIZE, b"\0")
            count = _HEAD.unpack_from(raw, CRC_SIZE)[2]
            body = check(raw, 0, CRC_SIZE + _HEAD.size + count * _ENTRY.size)
            if body is None:
                continue
            seq, wal_epoch, count = _HEAD.unpack_from(body)
            if seq > best_seq:
                entries = [
                    _ENTRY.unpack_from(body, _HEAD.size + i * _ENTRY.size)
                    for i in range(count)
                ]
                best_seq, best_epoch, best = seq, wal_epoch, entries
        self._seq, self.wal_epoch = best_seq, best_epoch
        return best_seq, best
