"""Write-ahead logging: the POSIX path and the FLEX path.

The two strategies of the paper's RocksDB case study (Section 4.2):

* **WalPosix** — the log is a file on a DAX file system, appended with
  ``write()`` + ``fsync()``.  The write copies the record through the
  cache hierarchy at the file's (unaligned) tail — so consecutive
  appends rewrite the shared tail line — and every fsync pays syscall
  overhead, flushes the dirty lines, and commits a metadata journal
  record.
* **WalFlex** — FLEX-style userspace logging: records are appended
  directly with cache-bypassing stores at 64 B alignment, one fence per
  sync, no block rewrite and no syscall.

Both recover with :func:`~repro.faults.model.scan_log` over records
whose CRC is seeded with the log's epoch (see
:mod:`repro.kvstore.records`).  A flush does not wipe the log: it
retires the generation in the manifest commit that names its table, and
the next generation appends at offset 0 under the next epoch.  Replay
stops quietly at the first record that is zeroed or valid only under a
retired epoch, so the old generation's leftovers are never replayed.
"""

from repro._units import CACHELINE, align_up
from repro.faults.model import END, scan_log, tolerant_read
from repro.faults.report import RecoveryReport
from repro.kvstore import records

#: Syscall + VFS overhead per write() and per fsync() on the POSIX
#: path, and the DAX file-system's per-sync metadata journaling write.
POSIX_WRITE_SYSCALL_NS = 600.0
POSIX_FSYNC_SYSCALL_NS = 400.0
POSIX_JOURNAL_BYTES = 128
#: Record encode + bookkeeping cost of the userspace FLEX library.
FLEX_LIBRARY_NS = 190.0


class WalBase:
    """Common state: a log region [base, base+capacity) on a namespace."""

    #: Record alignment: appends pad to it and replay resyncs on it past
    #: an unreadable hole.  None: records are unaligned, so nothing
    #: after the first hole can be found again.
    ALIGN = None

    def __init__(self, ns, base, capacity, naive=False, epoch=0):
        self.ns = ns
        self.base = base
        self.capacity = capacity
        self.tail = 0            # bytes appended so far
        #: CRC-less replay (demonstration mode): trusts torn records.
        self.naive = naive
        #: The generation this log appends and replays (CRC seed).
        self.epoch = epoch

    @property
    def tail_addr(self):
        return self.base + self.tail

    def _check_space(self, nbytes):
        if self.tail + nbytes > self.capacity:
            raise RuntimeError("WAL full: %d + %d > %d"
                               % (self.tail, nbytes, self.capacity))

    def replay(self):
        """Recover all intact records from the *persistent* view."""
        out, _ = self.replay_report()
        return out

    def replay_report(self):
        """Replay with full accounting: ``(records, RecoveryReport)``.

        A zeroed slot or a record of a retired epoch ends the log
        quietly; see :func:`~repro.faults.model.scan_log` for torn and
        poisoned records.  ``naive`` replay checks neither CRC nor epoch.
        """
        capacity = self.capacity
        # Only the written extent: a log of a few records costs a few
        # pages, not its whole region.
        buf, lost = tolerant_read(self.ns, self.base, capacity)
        report = RecoveryReport(component="wal")
        verify = not self.naive
        align = self.ALIGN or 1

        def decode(pos):
            rec = records.decode(buf, pos, verify, self.epoch, capacity)
            if rec is not None:
                return rec[:2], align_up(rec[2], align)
            if verify and records.retired(buf, pos, self.epoch, capacity):
                return END
            return None

        out, self.tail = scan_log(buf, lost, decode, report,
                                  align=self.ALIGN)
        return out, report


class WalPosix(WalBase):
    """write()+fsync() through a DAX file system."""

    def append(self, thread, key, value, sync=True):
        record = records.encode(key, value, self.epoch)
        self._check_space(len(record))
        thread.sleep(POSIX_WRITE_SYSCALL_NS)
        # write(): the kernel copies the record through the cache
        # hierarchy at the unaligned tail, so back-to-back appends
        # rewrite the shared tail line.
        self.ns.store(thread, self.tail_addr, len(record), data=record)
        if sync:
            thread.sleep(POSIX_FSYNC_SYSCALL_NS)
            self.ns.clwb(thread, self.tail_addr, len(record))
            # Metadata journal commit (file-size update).
            self.ns.ntstore(thread, self.base + self.capacity
                            - POSIX_JOURNAL_BYTES, POSIX_JOURNAL_BYTES)
            thread.sfence()
        self.tail += len(record)


#: Zero padding up to one cache line, prebuilt so the per-append pad
#: concatenation reuses interned tails instead of allocating them.
_ZERO_PAD = tuple(b"\x00" * i for i in range(CACHELINE))


class WalFlex(WalBase):
    """FLEX: direct, 64 B-aligned non-temporal appends from userspace."""

    #: 64 B-aligned records let replay resync after a poisoned hole.
    ALIGN = CACHELINE

    def append(self, thread, key, value, sync=True):
        record = records.encode(key, value, self.epoch)
        thread.sleep(FLEX_LIBRARY_NS)
        # Pad each record to cache-line alignment so appends never
        # rewrite a previously persisted line (FLEX's key trick).
        rlen = len(record)
        padded = align_up(rlen, CACHELINE)
        self._check_space(padded)
        self.ns.ntstore(thread, self.base + self.tail, padded,
                        data=record + _ZERO_PAD[padded - rlen])
        if sync and not self.naive:
            # The ntstore sits in the WPQ until something fences it; a
            # naive writer skips the sfence and acks a write nothing
            # ordered (pmcheck flags this as ack-before-fence).
            thread.sfence()
        self.tail += padded
