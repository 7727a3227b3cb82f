"""The cmap engine: a concurrent persistent hash map (PMemKV's cmap).

Open-addressed bucket array in persistent memory; keys and values are
variable-size objects from the pool heap.  Concurrency follows cmap's
design: the table is partitioned into lock stripes; writers lock one
stripe (simulated lock acquisition spins on a shared resource so
contention costs show up in simulated time).

Crash consistency: an insert persists the key/value object first, then
publishes it with an 8-byte bucket-pointer store (atomic).  Updates of
equal-size values are done in place under the undo protocol of
:mod:`repro.pmdk.tx`-style snapshotting (simplified: value persisted,
then a version pointer swings).

Every persist picks its instruction by size (guideline 2): data of at
least :data:`~repro.core.guidelines.NTSTORE_CROSSOVER_BYTES` goes out
with non-temporal stores, which skip the write-allocate read a cached
store pays per line; smaller data keeps store + clflushopt.  Both end
in the same fence.

Recovery is :meth:`CMap.open_report`, the one reopen path.
"""

import struct
import zlib

from repro.core.guidelines import NTSTORE_CROSSOVER_BYTES

_BUCKET = struct.Struct("<Q")
_OBJ_HEADER = struct.Struct("<HHI")        # klen | pad | vlen
#: Bucket sentinel for deleted slots (keeps probe chains intact).
#: Object offsets are 64-byte aligned, so 1 can never collide.
TOMBSTONE = 1

#: CPU cost of hashing + probing bookkeeping per operation.
_HASH_NS = 80.0
#: Cost of one stripe-lock acquire/release pair, uncontended.
_LOCK_NS = 30.0


def _hash(key):
    return zlib.crc32(key) & 0xFFFFFFFF


class CMap:
    """Concurrent persistent hash map over a :class:`PmemPool`."""

    def __init__(self, pool, buckets=4096, stripes=64, table_off=None,
                 atomic_updates=False, naive=False):
        self.pool = pool
        self.buckets = buckets
        self.stripes = stripes
        #: Out-of-place same-size updates (alloc + publish) instead of
        #: the in-place overwrite.  The in-place path is faster but a
        #: power failure can tear the value mid-overwrite — half old,
        #: half new bytes with nothing to detect it.  Chaos serving
        #: turns this on; ``--naive`` leaves the tear hazard in.
        self.atomic_updates = atomic_updates
        #: Hardening-stripped mode: in-place updates skip the sfence
        #: after the flush (the common "clflushopt is enough" mistake —
        #: pmcheck flags the ack as ack-before-fence).
        self.naive = naive
        self._vtable = [0] * buckets       # volatile mirror of buckets
        self._vindex = {}                  # key -> (bucket, obj_off)
        self._lock_free_at = [0.0] * stripes
        if table_off is None:
            table_off = self.pool.heap.alloc(
                buckets * _BUCKET.size) - self.pool.base
        self._table_off = table_off

    # -- persistence helpers ---------------------------------------------------

    def _bucket_addr(self, idx):
        return self._table_off + idx * _BUCKET.size

    def _encode_obj(self, key, value):
        return _OBJ_HEADER.pack(len(key), 0, len(value)) + key + value

    def _persist(self, thread, offset, data, fence=True):
        """Make ``data`` durable at ``offset``: the one persist helper.

        At or above the guideline-2 crossover the data goes out with
        ntstore (no write-allocate read per line); below it, store +
        clflushopt (pmemkv's persist evicts lines).  Either way the
        same sfence follows unless ``fence`` is False.
        """
        addr = self.pool.addr(offset)
        ns = self.pool.ns
        if len(data) >= NTSTORE_CROSSOVER_BYTES:
            ns.ntstore(thread, addr, len(data), data=data)
        else:
            ns.store(thread, addr, len(data), data=data)
            ns.clflushopt(thread, addr, len(data))
        if fence:
            thread.sfence()

    def _declare_publish_order(self, thread, obj_off, obj_len, idx):
        """Tell an installed pmcheck the object must be durable before
        the 8-byte bucket pointer publishes it (declared between the
        two persists, which is the point of no return for the rule)."""
        pmcheck = thread.machine.pmcheck
        if pmcheck is not None:
            ns = self.pool.ns
            pmcheck.require_order(
                [(ns, self.pool.addr(obj_off), obj_len)],
                [(ns, self.pool.addr(self._bucket_addr(idx)),
                  _BUCKET.size)],
                note="cmap publish: the key/value object must be "
                     "durable before the bucket pointer that makes it "
                     "reachable")

    def _stripe_for(self, idx):
        return idx % self.stripes

    def _lock(self, thread, stripe):
        """Acquire the stripe lock in simulated time."""
        free_at = self._lock_free_at[stripe]
        if free_at > thread.now:
            thread.now = free_at            # spin until the holder exits
        thread.sleep(_LOCK_NS)

    def _unlock(self, thread, stripe):
        self._lock_free_at[stripe] = thread.now

    # -- operations ----------------------------------------------------------------

    def put(self, thread, key, value):
        """Insert or update, durably."""
        thread.sleep(_HASH_NS)
        idx = self._probe_slot(key)
        stripe = self._stripe_for(idx)
        self._lock(thread, stripe)
        try:
            existing = self._vindex.get(key)
            if existing is not None:
                self._update(thread, existing, key, value)
                return
            obj = self._encode_obj(key, value)
            obj_off = self.pool.heap.alloc(len(obj)) - self.pool.base
            # 1. Persist the object, 2. publish the bucket pointer.
            self._persist(thread, obj_off, obj)
            self._declare_publish_order(thread, obj_off, len(obj), idx)
            self._persist(thread, self._bucket_addr(idx),
                          _BUCKET.pack(obj_off))
            self._vtable[idx] = obj_off
            self._vindex[key] = (idx, obj_off)
        finally:
            self._unlock(thread, stripe)

    def _update(self, thread, existing, key, value):
        idx, obj_off = existing
        old_vlen = self._obj_vlen(obj_off)
        if old_vlen == len(value) and not self.atomic_updates:
            # In-place value overwrite (read-modify-write).
            vaddr = obj_off + _OBJ_HEADER.size + len(key)
            self.pool.read(thread, vaddr, len(value))
            self._persist(thread, vaddr, value, fence=not self.naive)
            return
        obj = self._encode_obj(key, value)
        new_off = self.pool.heap.alloc(len(obj)) - self.pool.base
        self._persist(thread, new_off, obj)
        self._declare_publish_order(thread, new_off, len(obj), idx)
        self._persist(thread, self._bucket_addr(idx),
                      _BUCKET.pack(new_off))
        self.pool.heap.free(self.pool.base + obj_off,
                            _OBJ_HEADER.size + len(key) + old_vlen)
        self._vtable[idx] = new_off
        self._vindex[key] = (idx, new_off)

    def delete(self, thread, key):
        """Durably remove ``key``; returns True if it was present.

        The bucket is overwritten with a tombstone sentinel (an 8-byte
        atomic store) so linear-probe chains through it stay intact.
        """
        thread.sleep(_HASH_NS)
        found = self._vindex.get(key)
        if found is None:
            return False
        idx, obj_off = found
        stripe = self._stripe_for(idx)
        self._lock(thread, stripe)
        try:
            self._persist(thread, self._bucket_addr(idx),
                          _BUCKET.pack(TOMBSTONE))
            klen = len(key)
            vlen = self._obj_vlen(obj_off)
            self.pool.heap.free(self.pool.base + obj_off,
                                _OBJ_HEADER.size + klen + vlen)
            self._vtable[idx] = TOMBSTONE
            del self._vindex[key]
            return True
        finally:
            self._unlock(thread, stripe)

    def keys(self):
        """All live keys, from the volatile index (no pool reads)."""
        return self._vindex.keys()

    def get(self, thread, key):
        """Durable-state-independent read of the latest value."""
        thread.sleep(_HASH_NS)
        found = self._vindex.get(key)
        if found is None:
            return None
        _, obj_off = found
        raw = self.pool.read(thread, obj_off, _OBJ_HEADER.size)
        klen, _, vlen = _OBJ_HEADER.unpack(raw)
        body = self.pool.read(thread, obj_off + _OBJ_HEADER.size,
                              klen + vlen)
        return body[klen:]

    def __len__(self):
        return len(self._vindex)

    # -- internals -----------------------------------------------------------------

    def _probe_slot(self, key):
        """Linear probing on the volatile mirror.

        Tombstoned slots are reusable for inserts but do not terminate
        a probe (the key may live beyond them).
        """
        idx = _hash(key) % self.buckets
        first_tombstone = None
        for _ in range(self.buckets):
            off = self._vtable[idx]
            if off == 0:
                return idx if first_tombstone is None else first_tombstone
            if off == TOMBSTONE:
                if first_tombstone is None:
                    first_tombstone = idx
            elif self._obj_key(off) == key:
                return idx
            idx = (idx + 1) % self.buckets
        if first_tombstone is not None:
            return first_tombstone
        raise RuntimeError("cmap full")

    def _obj_key(self, obj_off):
        raw = self.pool.read_volatile(obj_off, _OBJ_HEADER.size)
        klen, _, _ = _OBJ_HEADER.unpack(raw)
        return self.pool.read_volatile(obj_off + _OBJ_HEADER.size, klen)

    def _obj_vlen(self, obj_off):
        raw = self.pool.read_volatile(obj_off, _OBJ_HEADER.size)
        _, _, vlen = _OBJ_HEADER.unpack(raw)
        return vlen

    # -- recovery -----------------------------------------------------------------

    @classmethod
    def open_report(cls, pool, table_off, buckets=4096, stripes=64,
                    atomic_updates=False, naive=False):
        """Reopen after a crash: ``(cmap, RecoveryReport)``, never raises.

        Rebuilds the volatile index from the persistent table.  Damage
        found during the scan is absorbed into the report instead of
        aborting recovery:

        * an unreadable bucket line loses however many entries pointed
          through it (counted, unattributable — the pointers are gone);
        * an unreadable object header or key likewise counts an
          unattributable loss;
        * a bucket pointer, or an object it names, that does not lie
          inside the pool heap is garbage: an unattributable loss;
        * a readable key whose *value* region is poisoned is a loss the
          report can name: the key lands in ``lost_keys`` and the entry
          is dropped from the index (a read returns "missing", which
          the durability oracle excuses because the loss is reported).

        The scan also repairs the reopened pool's volatile heap: the
        bump pointer is advanced past the table and the highest live
        object, so post-recovery allocations cannot overwrite reachable
        data (allocation state does not survive a crash).
        """
        from repro.faults.model import MediaError
        from repro.faults.report import RecoveryReport

        report = RecoveryReport(component="cmap")
        inst = cls(pool, buckets=buckets, stripes=stripes,
                   table_off=table_off, atomic_updates=atomic_updates,
                   naive=naive)
        heap_lo = pool.heap.base - pool.base
        heap_hi = heap_lo + pool.heap.span
        high_water = table_off + buckets * _BUCKET.size
        for idx in range(buckets):
            try:
                raw = pool.read_persistent(inst._bucket_addr(idx),
                                           _BUCKET.size)
            except MediaError:
                report.lost += 1
                report.note("bucket %d unreadable (poisoned table "
                            "line)" % idx)
                continue
            obj_off = _BUCKET.unpack(raw)[0]
            if obj_off == TOMBSTONE:
                inst._vtable[idx] = TOMBSTONE
                continue
            if not obj_off:
                continue
            if not heap_lo <= obj_off <= heap_hi - _OBJ_HEADER.size:
                report.lost += 1
                report.note("bucket %d points at +%#x, outside the "
                            "pool heap" % (idx, obj_off))
                continue
            try:
                hdr = pool.read_persistent(obj_off, _OBJ_HEADER.size)
                klen, _, vlen = _OBJ_HEADER.unpack(hdr)
                obj_end = obj_off + _OBJ_HEADER.size + klen + vlen
                if obj_end > heap_hi:
                    report.lost += 1
                    report.note("object at +%#x runs past the pool "
                                "heap" % obj_off)
                    continue
                key = bytes(pool.read_persistent(
                    obj_off + _OBJ_HEADER.size, klen))
            except MediaError:
                report.lost += 1
                report.note("object at +%#x unreadable (header/key "
                            "poisoned)" % obj_off)
                continue
            high_water = max(high_water, obj_end)
            try:
                pool.read_persistent(obj_off + _OBJ_HEADER.size + klen,
                                     vlen)
            except MediaError:
                report.lost += 1
                report.lost_keys.append(key)
                report.note("value of %r poisoned" % key)
                continue
            inst._vtable[idx] = obj_off
            inst._vindex[key] = (idx, obj_off)
            report.recovered += 1
        pool.heap.reserve_to(pool.base + high_water)
        return inst, report

    @property
    def table_offset(self):
        return self._table_off
