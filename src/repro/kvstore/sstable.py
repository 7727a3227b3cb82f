"""SSTables: immutable sorted runs on persistent memory.

An SSTable is written once, sequentially, with non-temporal stores
(the paper-approved shape for bulk persistence) and read with binary
search over a sparse index.  Format::

    [record]*                      -- records.encode() back to back
    [index: u32 count | (u16 klen | key | u64 offset)*]
    [footer: u64 index_offset | u64 data_size | u32 magic]

A Bloom filter (built in DRAM at open/build time) short-circuits
lookups for absent keys, as in LevelDB/RocksDB.  Reopening rebuilds
the index and the filter from the records, read (epoch-0 CRCs) by
:func:`~repro.faults.model.scan_log` at 1 B alignment once the footer
checks out.
"""

import struct

from repro.faults.model import scan_log, tolerant_read
from repro.faults.report import RecoveryReport
from repro.kvstore import records
from repro.kvstore.bloom import BloomFilter

_FOOTER = struct.Struct("<QQI")
_MAGIC = 0x55AA1234
_INDEX_HEAD = struct.Struct("<I")
_INDEX_ENTRY_HEAD = struct.Struct("<H")
_OFFSET = struct.Struct("<Q")

#: Sparse index granularity: one index entry per this many records.
INDEX_EVERY = 8


def _entries(blob, size, lost, report):
    """``[(offset, key, value)]`` of a table image's surviving records,
    or None when the footer, and with it the table, is gone.  Unaligned
    records resync byte-wise past a hole on the next valid CRC (a 32-bit
    CRC makes false resyncs vanishingly unlikely)."""
    footer_off = size - _FOOTER.size
    # A clipped blob (see tolerant_read) ends before the footer only
    # when the footer was never written: zeros.
    data_size, _, magic = _FOOTER.unpack(
        bytes(blob[footer_off:size]).ljust(_FOOTER.size, b"\0"))
    if magic != _MAGIC or data_size > footer_off:
        if any(lo + ll > footer_off for lo, ll in lost):
            report.lost += 1
            report.note("footer unreadable: table lost")
        else:
            report.truncated += 1
            report.note("bad footer magic: table dropped")
        return None

    def decode(pos):
        rec = records.decode(blob, pos, size=size)
        return None if rec is None else ((pos,) + rec[:2], rec[2])

    entries, _ = scan_log(blob, [h for h in lost if h[0] < data_size],
                          decode, report, end=data_size, align=1,
                          torn="undecodable data")
    return entries


class SSTable:
    """One immutable sorted run inside a namespace region."""

    def __init__(self, ns, base, size, index, bloom, smallest, largest):
        self.ns = ns
        self.base = base
        self.size = size
        self._index = index          # sorted [(key, offset)]
        self._bloom = bloom
        self.smallest = smallest
        self.largest = largest

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, ns, thread, base, pairs):
        """Write sorted ``pairs`` at ``base``; returns the table.

        ``pairs`` must be sorted by key (memtable iteration order).
        """
        data = bytearray()
        index = []
        bloom = BloomFilter(capacity=max(16, len(pairs)))
        for i, (key, value) in enumerate(pairs):
            if i % INDEX_EVERY == 0:
                index.append((key, len(data)))
            bloom.add(key)
            data += records.encode(key, value)
        data_size = len(data)
        index_blob = bytearray(_INDEX_HEAD.pack(len(index)))
        for key, offset in index:
            index_blob += _INDEX_ENTRY_HEAD.pack(len(key))
            index_blob += key
            index_blob += _OFFSET.pack(offset)
        blob = bytes(data) + bytes(index_blob) + _FOOTER.pack(
            data_size, data_size + len(index_blob), _MAGIC)
        ns.pwrite(thread, base, blob, instr="ntstore")
        smallest = pairs[0][0] if pairs else b""
        largest = pairs[-1][0] if pairs else b""
        return cls(ns, base, len(blob), index, bloom, smallest, largest)

    @classmethod
    def open(cls, ns, base, size):
        """Re-open an undamaged table; ``ValueError`` on any damage (see
        :meth:`open_report` for the tolerant form)."""
        table, report = cls.open_report(ns, base, size)
        if table is None or not report.clean:
            raise ValueError("damaged SSTable at %#x: %s"
                             % (base, report.summary()))
        return table

    @classmethod
    def open_report(cls, ns, base, size):
        """Fault-tolerant re-open: ``(table_or_None, RecoveryReport)``.

        Poisoned XPLines inside the data area cost only the records
        they cover (the index and Bloom filter are rebuilt from the
        surviving records); a destroyed footer loses the whole table.
        """
        report = RecoveryReport(component="sstable@%#x" % base)
        blob, lost = tolerant_read(ns, base, size)
        entries = _entries(blob, size, lost, report)
        if entries is None:
            return None, report
        index = []
        bloom = BloomFilter(capacity=max(16, len(entries)))
        for i, (offset, key, _value) in enumerate(entries):
            if i % INDEX_EVERY == 0:
                index.append((key, offset))
            bloom.add(key)
        smallest = entries[0][1] if entries else b""
        largest = entries[-1][1] if entries else b""
        table = cls(ns, base, size, index, bloom, smallest, largest)
        return table, report

    # -- lookups -----------------------------------------------------------------

    def may_contain(self, key):
        return self._bloom.may_contain(key) and \
            self.smallest <= key <= self.largest

    def get(self, thread, key):
        """Timed point lookup; returns the value or None."""
        return self.lookup(thread, key)[1]

    def lookup(self, thread, key):
        """Timed lookup returning ``(found, value)``.

        A tombstone record yields ``(True, None)`` so LSM reads can
        stop searching older tables.
        """
        if not self.may_contain(key):
            return False, None
        lo, hi = 0, len(self._index)
        while hi - lo > 1:                       # binary search the index
            mid = (lo + hi) // 2
            if self._index[mid][0] <= key:
                lo = mid
            else:
                hi = mid
        offset = self._index[lo][1] if self._index else 0
        # Scan up to INDEX_EVERY records, loading each from the device.
        for _ in range(INDEX_EVERY):
            window = self.ns.read_volatile(
                self.base + offset, min(self.size - offset, 4096))
            rec = records.decode(window)
            if rec is None:
                return False, None
            rkey, rvalue, consumed = rec
            self.ns.load(thread, self.base + offset, consumed)
            if rkey == key:
                return True, rvalue
            if rkey > key:
                return False, None
            offset += consumed
        return False, None

    def items(self):
        """All surviving pairs, decoded from the volatile view.

        Records behind poisoned XPLines are skipped (scrub/compaction
        must keep working on a degraded table); use :meth:`scrub` to
        account for what was lost.
        """
        blob, lost = tolerant_read(self.ns, self.base, self.size,
                                   view="volatile")
        entries = _entries(blob, self.size, lost, RecoveryReport())
        return [(key, value) for _, key, value in entries or ()]

    def scrub(self):
        """Verify every record against media faults and CRCs.

        Returns ``(surviving_pairs, RecoveryReport)`` from the
        persistent view — the honest post-crash contents.
        """
        report = RecoveryReport(component="sstable@%#x" % self.base)
        blob, lost = tolerant_read(self.ns, self.base, self.size)
        entries = _entries(blob, self.size, lost, report)
        return [(key, value) for _, key, value in entries or ()], report
