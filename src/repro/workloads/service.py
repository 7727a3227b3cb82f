"""The uniform ``Service`` protocol over the application substrates.

Every storage layer this repo grew — the LSM key-value store, PMemKV's
cmap engine, the NOVA file system, the PMDK transaction library — is
wrapped behind the same five operations (``get`` / ``put`` / ``scan`` /
``delete`` / ``recover``), so one traffic generator can drive all of
them and the serve reports are comparable across substrates.

Adapters are honest about their substrate's shape:

* **lsm** — puts append to the WAL and may trigger memtable flushes
  and compactions mid-request (the latency spikes are the point);
* **pmemkv** — cmap's persist-then-publish inserts and in-place RMW
  updates under stripe locks;
* **nova** — each key owns a fixed file slot; sub-page slot writes
  become NOVA-datalog embed appends (sequentialized random writes);
* **pmdk** — a fixed slot table updated under undo-log transactions;
  recovery rolls back any transaction the crash interrupted.

``recover()`` rebuilds a fresh adapter from the machine's *persistent*
bytes only, which is what makes serving fault-injectable: run traffic,
``machine.power_fail()``, recover, keep serving.
"""

import struct

from repro._units import KIB, MIB, align_up
from repro.workloads.generators import key_index, make_key

#: Registry of substrate name -> adapter class (filled at the bottom).
SUBSTRATES = {}


class Service:
    """Protocol for a servable key-value substrate.

    ``thread`` is the simulated client thread performing the request;
    all costs land on its virtual clock.  Keys and values are bytes.
    """

    #: Registry name (set by subclasses).
    name = None

    def get(self, thread, key):
        """Point lookup; returns the value or None."""
        raise NotImplementedError

    def put(self, thread, key, value):
        """Durable insert-or-update."""
        raise NotImplementedError

    def scan(self, thread, key, count):
        """Up to ``count`` ordered (key, value) pairs from ``key`` on."""
        raise NotImplementedError

    def delete(self, thread, key):
        """Durable removal; returns True when the key existed."""
        raise NotImplementedError

    def recover(self):
        """A fresh adapter rebuilt from persistent state only.

        Called after :meth:`~repro.sim.platform.Machine.power_fail`;
        returns ``(service, recovery_report_or_None)``.
        """
        raise NotImplementedError

    def stats(self):
        """Substrate-specific counters (JSON-able)."""
        return {}


# -- LSM ---------------------------------------------------------------------

class LSMService(Service):
    """The :class:`~repro.kvstore.lsm.LSMStore` behind the protocol."""

    name = "lsm"

    def __init__(self, machine, spec=None, mode="wal-flex", seed=0,
                 naive=False, _store=None):
        from repro.kvstore.lsm import LSMStore
        self.machine = machine
        self.mode = mode
        self.seed = seed
        self.naive = naive
        self.store = _store if _store is not None else \
            LSMStore(machine, mode=mode, seed=seed, naive=naive)

    def get(self, thread, key):
        return self.store.get(thread, key)

    def put(self, thread, key, value):
        self.store.put(thread, key, value, sync=True)

    def scan(self, thread, key, count):
        return self.store.scan(thread, start=key)[:count]

    def delete(self, thread, key):
        existed = self.store.get(thread, key) is not None
        self.store.delete(thread, key, sync=True)
        return existed

    def recover(self):
        from repro.kvstore.lsm import LSMStore
        store = LSMStore.recover(self.machine, mode=self.mode,
                                 seed=self.seed, naive=self.naive)
        service = LSMService(self.machine, mode=self.mode,
                             seed=self.seed, naive=self.naive,
                             _store=store)
        return service, store.recovery_report

    def stats(self):
        s = self.store.stats()
        return {"memtable_entries": s["memtable_entries"],
                "tables": len(s["tables"]),
                "degraded_reads": self.store.degraded_reads}


# -- PMemKV ------------------------------------------------------------------

class PMemKVService(Service):
    """PMemKV's cmap engine over a PMDK pool.

    cmap has no ordered iteration, so ``scan`` walks a volatile sorted
    key list (what the real engine's users do with a secondary index)
    and charges the per-probe hash cost for each pair returned.
    """

    name = "pmemkv"

    #: Buckets per expected key (cmap degrades near full).
    _OVERPROVISION = 4

    def __init__(self, machine, spec=None, records=4096, seed=0,
                 naive=False, keys_hint=None, _pool=None, _cmap=None):
        from repro.pmdk.pool import PmemPool
        from repro.pmemkv.cmap import CMap
        self.machine = machine
        self.records = records
        self.seed = seed
        self.naive = naive
        if _pool is None:
            thread = machine.thread()
            keys = keys_hint if keys_hint is not None else records
            size = max(64 * MIB, align_up(keys * 4 * KIB, MIB))
            _pool = PmemPool.create(machine, thread, kind="optane",
                                    size=size)
            buckets = max(1024, self._OVERPROVISION * keys)
            _cmap = CMap(_pool, buckets=buckets,
                         atomic_updates=not naive, naive=naive)
        self.pool = _pool
        self.cmap = _cmap
        self._sorted_keys = sorted(self.cmap.keys())

    def get(self, thread, key):
        return self.cmap.get(thread, key)

    def put(self, thread, key, value):
        from bisect import insort
        known = key in self.cmap._vindex
        self.cmap.put(thread, key, value)
        if not known:
            insort(self._sorted_keys, key)

    def scan(self, thread, key, count):
        from bisect import bisect_left
        start = bisect_left(self._sorted_keys, key)
        out = []
        for k in self._sorted_keys[start:start + count]:
            value = self.cmap.get(thread, k)
            if value is not None:
                out.append((k, value))
        return out

    def delete(self, thread, key):
        from bisect import bisect_left
        existed = self.cmap.delete(thread, key)
        if existed:
            i = bisect_left(self._sorted_keys, key)
            if i < len(self._sorted_keys) \
                    and self._sorted_keys[i] == key:
                del self._sorted_keys[i]
        return existed

    def recover(self):
        from repro.pmdk.pool import PmemPool
        from repro.pmemkv.cmap import CMap
        pool = PmemPool.open(self.machine)
        cmap, report = CMap.open_report(
            pool, self.cmap.table_offset, buckets=self.cmap.buckets,
            stripes=self.cmap.stripes,
            atomic_updates=self.cmap.atomic_updates,
            naive=self.cmap.naive)
        service = PMemKVService(self.machine, records=self.records,
                                seed=self.seed, naive=self.naive,
                                _pool=pool, _cmap=cmap)
        return service, report

    def stats(self):
        return {"entries": len(self.cmap),
                "buckets": self.cmap.buckets,
                "heap_used": self.pool.heap.used_bytes}


# -- NOVA --------------------------------------------------------------------

class NovaFSService(Service):
    """A KV layer over NOVA: each key index owns one file slot.

    The store is one big file; key ``i`` lives at byte offset
    ``i * stride``.  Values are written with a 2-byte length header so
    a slot reads back as present/missing without a directory; sub-page
    slot writes run through NOVA-datalog embed entries, turning the
    random update traffic into sequential log appends (Figure 11's
    point, now under YCSB instead of fio).
    """

    name = "nova"

    _SLOT_HEADER = struct.Struct("<H")

    def __init__(self, machine, spec=None, records=4096, seed=0,
                 value_size=1024, _fs=None, _inode=None):
        from repro.fs.nova import NovaFS
        self.machine = machine
        self.records = records
        self.seed = seed
        self.stride = align_up(self._SLOT_HEADER.size + value_size, 64)
        if _fs is None:
            _fs = NovaFS(machine, datalog=True)
            thread = machine.thread()
            _inode = _fs.create(thread)
        self.fs = _fs
        self.inode = _inode
        self._live = set()

    def _slot(self, key):
        return key_index(key) * self.stride

    def get(self, thread, key):
        index = key_index(key)
        if index not in self._live:
            return None
        # One read serves header and value: a slot is ``stride`` bytes.
        raw = self.fs.read(thread, self.inode, self._slot(key),
                           self.stride)
        header = self._SLOT_HEADER.size
        if len(raw) < header:
            return None
        (vlen,) = self._SLOT_HEADER.unpack_from(raw)
        if vlen == 0:
            return None
        return raw[header:header + vlen]

    def put(self, thread, key, value):
        blob = self._SLOT_HEADER.pack(len(value)) + value
        self.fs.write(thread, self.inode, self._slot(key), blob,
                      sync=True)
        self._live.add(key_index(key))

    def scan(self, thread, key, count):
        out = []
        index = key_index(key)
        ceiling = max(self._live, default=-1)
        while len(out) < count and index <= ceiling:
            if index in self._live:
                value = self.get(thread, make_key(index))
                if value is not None:
                    out.append((make_key(index), value))
            index += 1
        return out

    def delete(self, thread, key):
        existed = key_index(key) in self._live
        if existed:
            self.fs.write(thread, self.inode, self._slot(key),
                          self._SLOT_HEADER.pack(0), sync=True)
            self._live.discard(key_index(key))
        return existed

    def recover(self):
        from repro.faults.model import MediaError
        from repro.fs.nova import NovaFS
        fs = NovaFS.mount(self.machine, datalog=True)
        service = NovaFSService(
            self.machine, records=self.records, seed=self.seed,
            value_size=self.stride - self._SLOT_HEADER.size,
            _fs=fs, _inode=self.inode)
        report = fs.recovery_report
        if self.inode in fs._files:
            size = fs.stat_size(self.inode)
            for index in range((size + self.stride - 1) // self.stride):
                # Read the whole slot, not just the header: a poisoned
                # data page under the value must surface *now* as an
                # attributed loss, not later as an unreadable get.
                length = min(self.stride, size - index * self.stride)
                try:
                    raw = fs.read_persistent_file(
                        self.inode, index * self.stride, length)
                except MediaError:
                    report.lost += 1
                    report.lost_keys.append(make_key(index))
                    report.note("slot %d unreadable (poisoned data "
                                "page)" % index)
                    continue
                if len(raw) >= self._SLOT_HEADER.size \
                        and self._SLOT_HEADER.unpack(
                            raw[:self._SLOT_HEADER.size])[0]:
                    service._live.add(index)
        return service, report

    def stats(self):
        f = self.fs._files.get(self.inode)
        return {"live_keys": len(self._live),
                "file_bytes": 0 if f is None else f.size,
                "log_entries": 0 if f is None else f.log.length}


# -- PMDK --------------------------------------------------------------------

class PMDKService(Service):
    """A fixed slot table updated under PMDK undo-log transactions.

    Slot layout: ``u16 klen | u16 vlen | key | value`` at a fixed
    stride.  Updates snapshot the slot into the lane's undo log before
    overwriting in place, so a crash mid-update rolls back to the old
    value on recovery — the textbook libpmemobj object update.
    """

    name = "pmdk"

    _SLOT_HEADER = struct.Struct("<HH")
    _KEY_MAX = 24

    def __init__(self, machine, spec=None, records=4096, seed=0,
                 value_size=1024, naive=False, keys_hint=None,
                 _pool=None, _table_off=None, capacity=None):
        from repro.pmdk.pool import PmemPool
        self.machine = machine
        self.records = records
        self.seed = seed
        self.naive = naive
        self.value_max = value_size
        self.stride = align_up(
            self._SLOT_HEADER.size + self._KEY_MAX + value_size, 64)
        if capacity is None:
            capacity = (keys_hint if keys_hint is not None
                        else 2 * records) + 64
        self.capacity = capacity
        if _pool is None:
            thread = machine.thread()
            size = max(64 * MIB, align_up(
                2 * self.capacity * self.stride, MIB))
            _pool = PmemPool.create(machine, thread, kind="optane",
                                    size=size)
            _table_off = _pool.heap.alloc(
                self.capacity * self.stride) - _pool.base
            _pool.set_root(thread, _table_off)
        self.pool = _pool
        self.table_off = _table_off
        self._slots = {}            # key -> slot index
        self._next_slot = 0
        self._free = []

    def _slot_off(self, slot):
        return self.table_off + slot * self.stride

    def _claim_slot(self, key):
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._next_slot
            self._next_slot += 1
            if slot >= self.capacity:
                raise RuntimeError("pmdk slot table full")
        self._slots[key] = slot
        return slot

    def _encode(self, key, value):
        if len(key) > self._KEY_MAX or len(value) > self.value_max:
            raise ValueError("key/value exceeds slot layout")
        return self._SLOT_HEADER.pack(len(key), len(value)) + key + value

    def _declare_publish_order(self, thread, off, blob_len):
        """Tell an installed pmcheck the slot body must be durable
        before the header that publishes it (the header shares its
        cache line with the body's first bytes; pmcheck checks shared
        lines on the later side only)."""
        pmcheck = thread.machine.pmcheck
        if pmcheck is not None:
            ns = self.pool.ns
            pmcheck.require_order(
                [(ns, self.pool.addr(off), blob_len)],
                [(ns, self.pool.addr(off), self._SLOT_HEADER.size)],
                note="pmdk fresh slot: the body must be durable before "
                     "the header that makes the slot visible")

    def get(self, thread, key):
        slot = self._slots.get(key)
        if slot is None:
            return None
        # One read serves header, key and value: a slot is ``stride`` bytes.
        raw = self.pool.read(thread, self._slot_off(slot), self.stride)
        klen, vlen = self._SLOT_HEADER.unpack_from(raw)
        if not klen:
            return None
        start = self._SLOT_HEADER.size + klen
        return bytes(raw[start:start + vlen])

    def put(self, thread, key, value):
        from repro.pmdk.tx import Transaction
        blob = self._encode(key, value)
        slot = self._slots.get(key)
        fresh = slot is None
        if fresh:
            slot = self._claim_slot(key)
        off = self._slot_off(slot)
        if fresh and not self.naive:
            # Publish-last for fresh slots: persist the body (key and
            # value, header bytes untouched and still zero), fence,
            # then persist the 4-byte header.  The header store is
            # chunk-atomic, so a power failure at any point leaves the
            # slot either invisible (header zero) or whole — never a
            # half-written blob behind a valid header.  This cannot be
            # done inside a Transaction: commit flushes whole cache
            # lines, and the header shares its line with the body's
            # first bytes, so their persist order could not be forced.
            self.pool.write(thread, off + self._SLOT_HEADER.size,
                            blob[self._SLOT_HEADER.size:])
            self._declare_publish_order(thread, off, len(blob))
            self.pool.write(thread, off,
                            blob[:self._SLOT_HEADER.size])
            return
        if fresh:
            # Naive fresh path: same ordering requirement, declared so
            # pmcheck can prove the single-fence commit below violates
            # it (body and header become durable in one fence).
            self._declare_publish_order(thread, off, len(blob))
        with Transaction(self.pool, thread) as tx:
            # A fresh slot holds no live data: skip the snapshot (the
            # publish is the header becoming non-zero), exactly
            # pmemobj_tx_xadd_range(POBJ_XADD_NO_SNAPSHOT).  Naive
            # mode keeps this path for fresh slots too — a torn blob
            # behind a valid header is exactly the hazard the chaos
            # matrix must catch.
            tx.store(off, blob, snapshot=not fresh)

    def scan(self, thread, key, count):
        out = []
        for k in sorted(self._slots):
            if k < key:
                continue
            if len(out) >= count:
                break
            value = self.get(thread, k)
            if value is not None:
                out.append((k, value))
        return out

    def delete(self, thread, key):
        from repro.pmdk.tx import Transaction
        slot = self._slots.pop(key, None)
        if slot is None:
            return False
        off = self._slot_off(slot)
        with Transaction(self.pool, thread) as tx:
            tx.store(off, self._SLOT_HEADER.pack(0, 0))
        self._free.append(slot)
        return True

    def recover(self):
        from repro.faults.model import MediaError
        from repro.pmdk.pool import PmemPool
        from repro.pmdk.tx import recover_report
        pool = PmemPool.open(self.machine)
        thread = self.machine.thread()
        _, report = recover_report(pool, thread)
        service = PMDKService(
            self.machine, records=self.records, seed=self.seed,
            value_size=self.value_max, naive=self.naive, _pool=pool,
            _table_off=pool.root(), capacity=self.capacity)
        # Allocation state is volatile: put the bump pointer past the
        # slot table so post-recovery allocations cannot land inside it.
        pool.heap.reserve_to(
            pool.base + service.table_off
            + self.capacity * self.stride)
        for slot in range(self.capacity):
            off = service._slot_off(slot)
            try:
                raw = pool.read_persistent(off, self._SLOT_HEADER.size)
                klen, vlen = service._SLOT_HEADER.unpack(raw)
                if not klen:
                    continue
                if klen > self._KEY_MAX or vlen > self.value_max:
                    report.lost += 1
                    report.note("slot %d header corrupt "
                                "(klen=%d vlen=%d)" % (slot, klen, vlen))
                    continue
                key = bytes(pool.read_persistent(
                    off + service._SLOT_HEADER.size, klen))
            except MediaError:
                report.lost += 1
                report.note("slot %d unreadable (poisoned line under "
                            "header/key)" % slot)
                continue
            service._next_slot = max(service._next_slot, slot + 1)
            try:
                pool.read_persistent(
                    off + service._SLOT_HEADER.size + klen, vlen)
            except MediaError:
                # The key survived but its value region did not: a
                # loss the report can attribute.
                report.lost += 1
                report.lost_keys.append(key)
                report.note("slot %d value poisoned" % slot)
                continue
            service._slots[key] = slot
            report.recovered += 1
        return service, report

    def stats(self):
        return {"entries": len(self._slots),
                "slots_used": self._next_slot,
                "capacity": self.capacity}


def make_service(substrate, machine, spec, records, ops=0, seed=0,
                 naive=False):
    """Build the adapter for one substrate, sized for the workload.

    ``ops`` is the request count about to be served; fixed-capacity
    substrates (cmap's bucket table, pmdk's slot table) are sized for
    the worst case of every op being an insert, so insert-only mixes
    like log-append cannot overflow them.

    ``naive`` strips the crash-consistency hardening the chaos matrix
    exists to validate: cmap updates go back in place, pmdk fresh slots
    go back to one unordered blob, and the LSM replays its WAL without
    checksum verification.  NOVA has no naive variant — its log entries
    are CRC-framed by construction.
    """
    try:
        cls = SUBSTRATES[substrate]
    except KeyError:
        raise KeyError("unknown substrate %r (choose from %s)"
                       % (substrate, ", ".join(sorted(SUBSTRATES))))
    keys_hint = records + ops
    if cls is LSMService:
        return cls(machine, spec, seed=seed, naive=naive)
    if cls is PMemKVService:
        return cls(machine, spec, records=records, seed=seed,
                   naive=naive, keys_hint=keys_hint)
    if cls is PMDKService:
        return cls(machine, spec, records=records, seed=seed,
                   value_size=spec.value_size, naive=naive,
                   keys_hint=keys_hint)
    return cls(machine, spec, records=records, seed=seed,
               value_size=spec.value_size)


SUBSTRATES.update({
    "lsm": LSMService,
    "pmemkv": PMemKVService,
    "nova": NovaFSService,
    "pmdk": PMDKService,
})
