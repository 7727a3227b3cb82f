"""Undo-log transactions (PMDK's pmemobj_tx model).

``Transaction`` protects in-place updates: ``add(offset, size)``
snapshots the range into an undo entry of the lane log
(:mod:`repro.pmdk.lane`) *before* modification; ``commit`` flushes every
modified range, then invalidates the log by moving the lane epoch on;
recovery rolls live entries back, newest first.  Entries validate
themselves (CRC plus epoch), so one snapshotting update costs three
fences — the entry's, the flush's, the epoch's — and one 8 B store.
"""

from repro._units import CACHELINE
from repro.pmdk.lane import (
    UNDO, apply, encode, invalidate, recover_report, scan,
)
from repro.pmdk.pool import LANE_SIZE


class TransactionError(Exception):
    """Raised for misuse (nesting, double commit, oversized logs)."""


class Transaction:
    """One undo-log transaction on a pool lane."""

    def __init__(self, pool, thread, lane=0):
        self.pool = pool
        self.thread = thread
        self.lane = lane
        self._lane_base = pool.lane_base(lane)
        self._log_tail = self._lane_base + CACHELINE
        self._entries = 0
        self._modified = []          # [(offset, size)]
        self._active = False

    # -- context manager ------------------------------------------------------

    def __enter__(self):
        self.begin()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False

    # -- lifecycle ----------------------------------------------------------------

    def begin(self):
        if self._active:
            raise TransactionError("transaction already active")
        self._active = True
        self._entries = 0
        self._log_tail = self._lane_base + CACHELINE
        self._modified = []

    def add(self, offset, size):
        """Snapshot ``[offset, offset+size)`` before modifying it."""
        if not self._active:
            raise TransactionError("no active transaction")
        old = self.pool.read(self.thread, offset, size)
        blob = encode(self.pool, self.lane, UNDO, offset, old)
        if self._log_tail + len(blob) > self._lane_base + LANE_SIZE:
            raise TransactionError("undo log full")
        ns = self.pool.ns
        ns.ntstore(self.thread, self._log_tail, len(blob), data=blob)
        # The update's one load-bearing fence before the in-place store:
        # the caller's modification of the snapshotted range must not
        # outrun the entry that can undo it.
        pmcheck = self.thread.machine.pmcheck
        if pmcheck is not None:
            pmcheck.require_order(
                [(ns, self._log_tail, len(blob))],
                [(ns, self.pool.addr(offset), size)],
                note="pmdk undo log: the entry must be durable before "
                     "the in-place update of the range it snapshots")
        self.thread.sfence()
        self._entries += 1
        self._log_tail += len(blob)
        self._modified.append((offset, size))

    def store(self, offset, data, snapshot=True):
        """Convenience: add + in-place cached store."""
        if snapshot:
            self.add(offset, len(data))
        self.pool.ns.store(self.thread, self.pool.addr(offset),
                           len(data), data=data)
        if not snapshot:
            self._modified.append((offset, len(data)))

    def commit(self):
        """Flush modified ranges, fence, then invalidate the undo log.

        Both fences are load-bearing.  The first makes the new data
        durable before the epoch bump stops the log protecting it, or a
        crash in between leaves a half-flushed range with nothing to
        roll it back; the second (in :func:`~repro.pmdk.lane.invalidate`)
        makes the bump durable before ``commit`` returns, or a crash
        after the ack rolls a committed transaction back.  An empty
        transaction skips both — nothing to flush, no log armed, so the
        fences would be pure cost (pmcheck: redundant-fence).
        """
        if not self._active:
            raise TransactionError("no active transaction")
        ns = self.pool.ns
        if self._modified:
            for offset, size in self._modified:
                ns.clwb(self.thread, self.pool.addr(offset), size)
            self.thread.sfence()
        if self._entries:
            pmcheck = self.thread.machine.pmcheck
            if pmcheck is not None:
                pmcheck.require_order(
                    [(ns, self.pool.addr(offset), size)
                     for offset, size in self._modified],
                    [(ns, self._lane_base, 8)],
                    note="pmdk commit: the flushed ranges must be "
                         "durable before the lane epoch that retires "
                         "their undo entries")
            invalidate(self.pool, self.thread, self.lane)
        self._active = False

    def abort(self):
        """Roll back in-place modifications from the undo log."""
        if not self._active:
            raise TransactionError("no active transaction")
        if self._entries:
            _, entries = scan(self.pool, self.lane, view="volatile")
            apply(self.pool, self.thread, entries)
            invalidate(self.pool, self.thread, self.lane)
        self._active = False


def recover(pool, thread):
    """Post-crash recovery: roll back every lane's live undo run;
    returns the number of ranges restored."""
    return recover_report(pool, thread)[0]
