"""The LSM key-value store (the RocksDB stand-in of Section 4.2).

Three durability strategies, selected by ``mode``:

* ``"wal-posix"``          — volatile memtable + WAL via write()/fsync();
* ``"wal-flex"``           — volatile memtable + FLEX userspace log;
* ``"persistent-memtable"``— no WAL; the memtable *is* a
  crash-consistent skiplist in persistent memory.

Everything else (SSTable flushes, L0->L1 compaction, manifest commits,
recovery) is shared.  The store is real software over simulated
memory: every durable byte round-trips through the namespace and
crash-recovers via :meth:`LSMStore.recover`.
"""

from repro._units import CACHELINE, KIB, MIB, align_up
from repro.faults.model import MediaError
from repro.faults.report import RecoveryReport
from repro.kvstore.manifest import Manifest
from repro.kvstore.memtable import VolatileMemtable
from repro.kvstore.persistent_skiplist import PersistentSkipList
from repro.kvstore.sstable import SSTable
from repro.kvstore.wal import WalFlex, WalPosix

MODES = ("wal-posix", "wal-flex", "persistent-memtable")

#: Region layout inside the namespace (fixed, so recovery needs no
#: external state).
MANIFEST_BASE = 0
WAL_BASE = 64 * KIB
WAL_CAPACITY = 8 * MIB
ARENA_BASE = WAL_BASE + WAL_CAPACITY
ARENA_CAPACITY = 16 * MIB
TABLES_BASE = ARENA_BASE + ARENA_CAPACITY

#: Flush the memtable once it holds this much payload.
DEFAULT_MEMTABLE_BYTES = 256 * KIB
#: Compact L0 into L1 when this many L0 tables accumulate.
L0_COMPACTION_TRIGGER = 6


class LSMStore:
    """An embedded ordered KV store over one pmem namespace."""

    def __init__(self, machine, mode="wal-flex", kind="optane",
                 memtable_bytes=DEFAULT_MEMTABLE_BYTES, seed=0,
                 naive=False, _recovering=False):
        if mode not in MODES:
            raise ValueError("unknown mode %r (choose from %s)"
                             % (mode, ", ".join(MODES)))
        self.machine = machine
        self.mode = mode
        self.ns = machine.namespace(kind)
        self.memtable_bytes = memtable_bytes
        self.seed = seed
        self.naive = naive           # CRC-less WAL replay (demo mode)
        self.manifest = Manifest(self.ns, MANIFEST_BASE)
        self.tables = []             # [(level, SSTable)] newest L0 first
        self._next_table_base = TABLES_BASE
        self._arena_epoch = 0
        self.recovery_report = None  # set by recover()
        self.degraded_reads = 0      # gets answered despite MediaError
        if not _recovering:
            self._fresh_memtable()

    # -- memtable/WAL plumbing ------------------------------------------------

    def _fresh_memtable(self):
        if self.mode == "persistent-memtable":
            base = ARENA_BASE + (self._arena_epoch % 2) * (ARENA_CAPACITY // 2)
            self.memtable = PersistentSkipList(
                self.ns, base, ARENA_CAPACITY // 2,
                seed=self.seed + self._arena_epoch)
            self.wal = None
        else:
            self.memtable = VolatileMemtable(
                seed=self.seed + self._arena_epoch)
            wal_cls = WalPosix if self.mode == "wal-posix" else WalFlex
            self.wal = wal_cls(self.ns, WAL_BASE, WAL_CAPACITY,
                               naive=self.naive,
                               epoch=self.manifest.wal_epoch)
        self._arena_epoch += 1

    # -- client operations -------------------------------------------------------

    def put(self, thread, key, value, sync=True):
        """Durably (if ``sync``) insert one pair."""
        if self.mode == "persistent-memtable":
            self.memtable.put(thread, key, value)
        else:
            self.wal.append(thread, key, value, sync=sync)
            self.memtable.put(thread, key, value)
        if self.memtable.approximate_bytes >= self.memtable_bytes:
            self.flush(thread)

    def delete(self, thread, key, sync=True):
        """Durably delete one key (a tombstone record)."""
        if self.mode == "persistent-memtable":
            self.memtable.delete(thread, key)
        else:
            self.wal.append(thread, key, None, sync=sync)
            self.memtable.delete(thread, key)
        if self.memtable.approximate_bytes >= self.memtable_bytes:
            self.flush(thread)

    def get(self, thread, key):
        """Point lookup: memtable, then tables newest-first.

        A tombstone anywhere shadows older versions (returns None).
        A :class:`MediaError` on one level degrades to the next-older
        version instead of crashing the read (counted in
        ``degraded_reads``); data behind poison is reported missing.
        """
        try:
            found, value = self.memtable.lookup(thread, key)
        except MediaError:
            self.degraded_reads += 1
            found = False
        if found:
            return value
        for _, table in self.tables:
            try:
                found, value = table.lookup(thread, key)
            except MediaError:
                self.degraded_reads += 1
                continue
            if found:
                return value
        return None

    def scan(self, thread, start=None, end=None):
        """Ordered iteration over the live keys in ``[start, end)``.

        Merges the memtable over the tables (newest version wins) and
        drops tombstones.  The merge itself is CPU work, charged per
        merged entry; the table bytes were already durable-read when
        written, so no additional device traffic is modelled here.
        """
        merged = {}
        for _, table in reversed(self.tables):       # oldest first
            for key, value in table.items():
                merged[key] = value
        for key, value in self.memtable.items():
            merged[key] = value
        out = []
        for key in sorted(merged):
            if start is not None and key < start:
                continue
            if end is not None and key >= end:
                break
            value = merged[key]
            if value is None:
                continue
            out.append((key, value))
        thread.sleep(25.0 * max(1, len(merged)))
        return out

    # -- flush / compaction --------------------------------------------------------

    def flush(self, thread):
        """Write the memtable out as an L0 SSTable and reset it.

        The manifest commit naming the table also retires the WAL
        generation it holds (a new epoch), so the next one can reuse
        the log without replay ever returning a leftover record.
        """
        pairs = list(self.memtable.items())
        if pairs:
            table = self._build_table(thread, pairs)
            self.tables.insert(0, (0, table))
            self.manifest.wal_epoch += 1
            self._commit_manifest(thread, fresh=[table])
        if self.mode == "persistent-memtable":
            # Retire the old arena *after* the SSTable and manifest are
            # durable: zero its head pointer so recovery sees it empty.
            old_base = self.memtable.base
            self.ns.pwrite(thread, old_base, b"\x00" * 8, instr="ntstore")
        self._fresh_memtable()
        pmcheck = thread.machine.pmcheck
        if pmcheck is not None and pairs and self.wal is not None:
            pmcheck.require_order(
                [(self.ns, self.manifest.slot(), CACHELINE)],
                [(self.ns, self.wal.base, CACHELINE)],
                note="lsm flush: the manifest that retires a WAL "
                     "generation must be durable before the next "
                     "generation's first record")
        if sum(1 for lvl, _ in self.tables if lvl == 0) \
                >= L0_COMPACTION_TRIGGER:
            self.compact(thread)

    def compact(self, thread):
        """Merge every table into a single L1 run (newest value wins).

        A full merge sees every version of a key, so tombstones are
        dropped here rather than rewritten.
        """
        merged = {}
        for _, table in reversed(self.tables):   # oldest first
            for key, value in table.items():
                merged[key] = value
        pairs = sorted((k, v) for k, v in merged.items()
                       if v is not None)
        table = self._build_table(thread, pairs)
        self.tables = [(1, table)]
        self._commit_manifest(thread, fresh=[table])

    def _build_table(self, thread, pairs):
        table = SSTable.build(self.ns, thread, self._next_table_base, pairs)
        self._next_table_base = align_up(
            self._next_table_base + table.size, 4 * KIB)
        return table

    def _commit_manifest(self, thread, fresh=()):
        """Commit the table set; ``fresh`` tables must be durable first."""
        pmcheck = thread.machine.pmcheck
        if pmcheck is not None and fresh:
            pmcheck.require_order(
                [(self.ns, t.base, t.size) for t in fresh],
                [(self.ns, self.manifest.slot(ahead=1), CACHELINE)],
                note="lsm manifest: a table must be durable before the "
                     "manifest names it")
        self.manifest.commit(thread, [
            (table.base, table.size, level)
            for level, table in self.tables
        ])

    # -- recovery ----------------------------------------------------------------------

    @classmethod
    def recover(cls, machine, mode="wal-flex", kind="optane", seed=0,
                memtable_bytes=DEFAULT_MEMTABLE_BYTES, naive=False):
        """Rebuild a store from the namespace's persistent contents.

        Recovery degrades gracefully under media faults: torn tails are
        truncated, poisoned tables/log regions are skipped, and the
        whole accounting lands in ``store.recovery_report`` instead of
        an exception (or a silent success).
        """
        store = cls(machine, mode=mode, kind=kind, seed=seed,
                    memtable_bytes=memtable_bytes, naive=naive,
                    _recovering=True)
        report = RecoveryReport(component="lsm[%s]" % mode)
        try:
            _, entries = store.manifest.load()
        except MediaError:
            entries = []
            report.lost += 1
            report.note("manifest unreadable: table set lost")
        for base, size, level in entries:
            table, table_report = SSTable.open_report(store.ns, base, size)
            report.merge(table_report)
            if table is not None:
                store.tables.append((level, table))
            end = align_up(base + size, 4 * KIB)
            if end > store._next_table_base:
                store._next_table_base = end
        store.tables.sort(key=lambda t: (t[0], -t[1].base))
        if mode == "persistent-memtable":
            # Either arena may hold the live memtable; pick the fuller.
            candidates = []
            for half in (0, 1):
                arena = ARENA_BASE + half * (ARENA_CAPACITY // 2)
                try:
                    candidates.append(PersistentSkipList.recover(
                        store.ns, arena, ARENA_CAPACITY // 2))
                except MediaError:
                    report.lost += 1
                    report.note("memtable arena %d unreadable" % half)
            if not candidates:
                candidates = [PersistentSkipList(
                    store.ns, ARENA_BASE, ARENA_CAPACITY // 2, seed=seed)]
            store.memtable = max(candidates, key=len)
            report.recovered += len(store.memtable)
            store.wal = None
        else:
            store._fresh_memtable()     # the log at the manifest's epoch
            replay_thread = machine.thread()
            replayed, wal_report = store.wal.replay_report()
            report.merge(wal_report)
            for key, value in replayed:
                store.memtable.put(replay_thread, key, value)
        store._arena_epoch = 2
        store.recovery_report = report
        return store

    def scrub(self, thread, repair=False):
        """Verify every SSTable record; report (and optionally repair).

        Walks each table's persistent bytes, counting intact, torn and
        poisoned records.  With ``repair=True`` every damaged table is
        rewritten from its surviving records at a fresh base address
        (read-repair) and the manifest recommitted, so later reads no
        longer touch poisoned lines.
        """
        report = RecoveryReport(component="lsm-scrub")
        rebuilt = []
        fresh = []
        for level, table in self.tables:
            pairs, table_report = table.scrub()
            report.merge(table_report)
            if repair and not table_report.clean:
                pairs.sort(key=lambda kv: kv[0])
                new = self._build_table(thread, pairs)
                fresh.append(new)
                rebuilt.append((level, new))
                report.note("rebuilt table @%#x -> @%#x"
                            % (table.base, new.base))
            else:
                rebuilt.append((level, table))
        if fresh:
            self.tables = rebuilt
            self._commit_manifest(thread, fresh)
        return report

    # -- introspection ------------------------------------------------------------------

    def stats(self):
        return {
            "mode": self.mode,
            "memtable_entries": len(self.memtable),
            "memtable_bytes": self.memtable.approximate_bytes,
            "tables": [(lvl, t.base, t.size) for lvl, t in self.tables],
        }
