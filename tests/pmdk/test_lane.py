"""The PMDK lane log: entries that validate themselves by CRC and epoch.

Two families of known-bad input:

* stale entries — slots a retired epoch left behind, a torn append, a
  zeroed lane — must never be rolled back (each of these tests fails if
  the scan stops comparing an entry's epoch with the lane's);
* a transaction that skips any one of its three fences must trip the
  persistency checker (the sim persists in program order, so only the
  checker sees a missing fence).
"""

import pytest

from repro._units import KIB, XPLINE
from repro.faults.model import FaultController
from repro.pmcheck import checking
from repro.pmcheck.state import V_ACK_BEFORE_FENCE, V_UNORDERED
from repro.pmdk import MicroBufferTx, PmemPool, Transaction
from repro.pmdk.lane import live_epoch
from repro.pmdk.tx import recover_report
from repro.sim import Machine
from repro.sim.engine import ThreadCtx


def make_pool(objects=3):
    m = Machine()
    t = m.thread()
    pool = PmemPool.create(m, t)
    objs = [pool.heap.alloc(64) - pool.base for _ in range(objects)]
    for i, obj in enumerate(objs):
        pool.write(t, obj, bytes([0x41 + i]) * 64)      # "A", "B", "C"
    return m, t, pool, objs


def crash_and_recover(m):
    m.power_fail()
    pool = PmemPool.open(m)
    restored, report = recover_report(pool, m.thread())
    return pool, restored, report


def values(pool, objs):
    return [pool.read_persistent(obj, 1) for obj in objs]


class TestStaleEntries:
    def test_zeroed_lane_recovers_nothing(self):
        m, _, pool, _ = make_pool()
        assert live_epoch(pool, 0) == 1      # a zero header: first epoch
        _, restored, report = crash_and_recover(m)
        assert restored == 0
        assert report.clean and report.recovered == 0

    def test_short_crash_after_long_commit_restores_only_its_entries(self):
        m, t, pool, objs = make_pool()
        with Transaction(pool, t) as tx:
            for obj in objs:
                tx.store(obj, b"1" * 64)
        tx = Transaction(pool, t)
        tx.begin()
        tx.store(objs[0], b"2" * 64)
        # Make the in-place damage durable, then crash before commit:
        # slots 2 and 3 still hold the committed transaction's entries.
        pool.ns.clwb(t, pool.addr(objs[0]), 64)
        t.sfence()
        pool, restored, report = crash_and_recover(m)
        assert restored == 1 and report.clean
        assert values(pool, objs) == [b"1", b"1", b"1"]

    def test_torn_live_entry_is_truncated_once(self):
        m, t, pool, objs = make_pool(2)
        tx = Transaction(pool, t)
        tx.begin()
        tx.store(objs[0], b"X" * 64)
        torn = tx._log_tail
        tx.add(objs[1], 64)
        # The second entry's first line (live epoch) landed, its second
        # line (the rest of the snapshot) did not.
        pool.ns.pwrite(t, torn + 64, b"\x00" * 64)
        pool, restored, report = crash_and_recover(m)
        assert (restored, report.recovered, report.truncated) == (1, 1, 1)
        assert values(pool, objs) == [b"A", b"B"]
        # Recovery retired that epoch: the same torn slot is stale now.
        pool, restored, report = crash_and_recover(m)
        assert restored == 0 and report.clean
        assert values(pool, objs) == [b"A", b"B"]

    def test_after_abort_only_the_next_transaction_replays(self):
        m, t, pool, objs = make_pool()
        tx = Transaction(pool, t)
        tx.begin()
        for obj in objs:
            tx.store(obj, b"X" * 64)
        tx.abort()
        assert [pool.read_volatile(o, 1) for o in objs] == [b"A", b"B", b"C"]
        tx.begin()
        tx.store(objs[0], b"Y" * 64)
        pool.ns.clwb(t, pool.addr(objs[0]), 64)
        t.sfence()
        pool, restored, report = crash_and_recover(m)
        assert restored == 1 and report.clean
        assert values(pool, objs) == [b"A", b"B", b"C"]

    def test_redo_and_undo_share_the_lane_epoch(self):
        m, t, pool, objs = make_pool(1)
        big = pool.heap.alloc(256) - pool.base
        mb = MicroBufferTx(pool, t, redo=True)
        mb.open(big, 256)[:] = b"R" * 256
        mb.commit()              # the epoch bump retires the redo image
        tx = Transaction(pool, t)
        tx.begin()
        tx.store(objs[0], b"X" * 64)
        # The undo entry covers the image's first two lines only; the
        # rest of the image still sits in the lane behind it.
        pool, restored, report = crash_and_recover(m)
        assert restored == 1 and report.clean
        assert values(pool, objs + [big]) == [b"A", b"R"]


class TestPoisonAroundTheLiveRun:
    """Where a poisoned line sits relative to the live run decides
    whether the lane recovers: a hole the run could reach loses the
    whole rollback, one past the run's quiet end is never its business.
    Each case pins ``(restored, recovered, truncated, lost)`` and the
    objects' bytes after recovery."""

    def crash_poisoned(self, m, pool, rel):
        fc = FaultController(m)
        m.power_fail()
        fc.poison(pool.ns, pool.lane_base(0) + rel, 1)
        pool = PmemPool.open(m)
        restored, report = recover_report(pool, m.thread())
        return pool, (restored, report.recovered, report.truncated,
                      report.lost)

    def two_line_entries(self):
        """A committed transaction leaves 192 B entries at +64 and +256
        (epoch 1); a crashed one's single live entry fills +64..+256,
        so the first stale slot starts the lane's second XPLine."""
        m, t, pool, _ = make_pool(0)
        objs = [pool.heap.alloc(128) - pool.base for _ in range(2)]
        for obj, fill in zip(objs, b"AB"):
            pool.write(t, obj, bytes([fill]) * 128)
        assert pool.lane_base(0) % XPLINE == 0
        with Transaction(pool, t) as tx:
            for obj in objs:
                tx.store(obj, b"1" * 128)
        tx = Transaction(pool, t)
        tx.begin()
        tx.store(objs[0], b"2" * 128)
        assert tx._log_tail - pool.lane_base(0) == XPLINE
        pool.ns.clwb(t, pool.addr(objs[0]), 128)
        t.sfence()
        return m, pool, objs

    def test_poisoned_first_stale_slot_loses_the_lane(self):
        m, pool, objs = self.two_line_entries()
        pool, counts = self.crash_poisoned(m, pool, XPLINE)
        assert counts == (0, 0, 0, 1)
        assert values(pool, objs) == [b"2", b"1"]

    def test_poison_past_the_stale_slot_is_never_read(self):
        m, pool, objs = self.two_line_entries()
        pool, counts = self.crash_poisoned(m, pool, 32 * KIB)
        assert counts == (1, 1, 0, 0)
        assert values(pool, objs) == [b"1", b"1"]

    def test_zeroed_slot_ends_the_run_before_later_poison(self):
        m, t, pool, objs = make_pool(2)
        tx = Transaction(pool, t)
        tx.begin()
        tx.store(objs[0], b"X" * 64)          # one live entry, +64..+192
        pool.ns.clwb(t, pool.addr(objs[0]), 64)
        t.sfence()
        pool, counts = self.crash_poisoned(m, pool, 4 * KIB)
        assert counts == (1, 1, 0, 0)
        assert values(pool, objs) == [b"A", b"B"]

    def test_torn_live_entry_ends_the_run_before_later_poison(self):
        m, t, pool, objs = make_pool(2)
        tx = Transaction(pool, t)
        tx.begin()
        tx.store(objs[0], b"X" * 64)
        torn = tx._log_tail
        tx.store(objs[1], b"Y" * 64)
        pool.ns.clwb(t, pool.addr(objs[0]), 128)
        t.sfence()
        # The second entry's header line landed, its data line did not.
        pool.ns.pwrite(t, torn + 64, b"\x00" * 64)
        pool, counts = self.crash_poisoned(m, pool, 4 * KIB)
        assert counts == (1, 1, 1, 0)
        assert values(pool, objs) == [b"A", b"Y"]


class TestEveryFenceIsLoadBearing:
    """Skip exactly one ``sfence`` of a one-update transaction."""

    @pytest.mark.parametrize("skip, kind, note", [
        (None, None, None),
        (1, V_UNORDERED, "pmdk undo log"),      # add: entry -> in place
        (2, V_UNORDERED, "pmdk commit"),        # commit: flush -> epoch
        (3, V_ACK_BEFORE_FENCE, None),          # commit: epoch -> ack
    ])
    def test_skipped_fence_is_caught(self, monkeypatch, skip, kind, note):
        m, t, pool, objs = make_pool(1)
        real = ThreadCtx.sfence
        fences = []

        def sfence(thread):
            fences.append(thread)
            if len(fences) != skip:
                real(thread)

        with checking(m) as checker:
            monkeypatch.setattr(ThreadCtx, "sfence", sfence)
            checker.op_begin(t, "put")
            with Transaction(pool, t) as tx:
                tx.store(objs[0], b"X" * 64)
            checker.op_ack(t)
            monkeypatch.undo()
            violations = checker.summary()["violations"]
        assert len(fences) == 3
        if kind is None:
            assert violations == []
            return
        assert kind in {v["kind"] for v in violations}, violations
        if note is not None:
            assert any(v["kind"] == kind and v["note"].startswith(note)
                       for v in violations), violations
