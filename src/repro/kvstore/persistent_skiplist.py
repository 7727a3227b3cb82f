"""A crash-consistent skiplist stored directly in persistent memory.

This is the "fine-grained persistence" memtable of the RocksDB study:
no WAL — every insert persists the node and splices it into the list
with small flushed stores.  The access pattern is exactly what
guideline #1 warns about: sub-XPLine stores scattered over the arena
(node payloads land wherever the bump allocator put them; pointer
splices dirty one line of each predecessor node).

Crash consistency comes from ordering: (1) persist the node body and
fence, then (2) persist the 8-byte level-0 next-pointer splice of the
predecessor (atomic).  Upper-level pointers are hints, revalidated on
recovery.

Node layout (little-endian)::

    u16 klen | u16 height | u32 vlen | u64 next[height] | key | value
"""

import random
import struct

from repro.faults.model import written_extent
from repro.kvstore.skiplist import MAX_LEVEL

_HEADER = struct.Struct("<HHI")
_PTR = struct.Struct("<Q")
_TOMBSTONE_FLAG = 0x8000
_HEIGHT_MASK = 0x7FFF

#: CPU cost of one comparison/hop during a descent (simulated).
_COMPARE_NS = 12.0


class PersistentSkipList:
    """Skiplist over a namespace arena ``[base, base+capacity)``.

    Arena offset 0 holds the head node's next-pointer table, so offset
    0 also doubles as "null" for next-pointers (no node can live there).
    """

    def __init__(self, ns, base, capacity, seed=0):
        self.ns = ns
        self.base = base
        self.capacity = capacity
        self._rng = random.Random(seed)
        # Head pointer table, then the 8-byte allocator tail hint.
        self._alloc = _PTR.size * (MAX_LEVEL + 1)  # bump pointer (offset)
        self._count = 0
        # Volatile mirror for fast traversal; the persistent bytes stay
        # authoritative for recovery.
        self._vnexts = {0: [0] * MAX_LEVEL}       # offset -> next offsets
        self._vkeys = {}
        self._vvals = {}

    def __len__(self):
        return self._count

    @property
    def approximate_bytes(self):
        return self._alloc

    def _random_height(self):
        h = 1
        while h < MAX_LEVEL and self._rng.random() < 0.25:
            h += 1
        return h

    # -- persistent layout helpers ------------------------------------------

    @staticmethod
    def _node_bytes(key, value, height, nexts):
        if value is None:
            height_field = height | _TOMBSTONE_FLAG
            value = b""
        else:
            height_field = height
        header = _HEADER.pack(len(key), height_field, len(value))
        ptrs = b"".join(_PTR.pack(n) for n in nexts[:height])
        return header + ptrs + key + value

    def _ptr_addr(self, offset, level):
        """Address of a node's next[level] pointer (offset 0 = head)."""
        if offset == 0:
            return self.base + level * _PTR.size
        return self.base + offset + _HEADER.size + level * _PTR.size

    def _allocate(self, thread, nbytes):
        nbytes = (nbytes + 7) & ~7                # 8-byte alignment
        if self._alloc + nbytes > self.capacity:
            raise RuntimeError("persistent skiplist arena full")
        offset = self._alloc
        self._alloc += nbytes
        # Persist the allocator tail hint (speeds up recovery scans).
        # Rewriting the same 8 bytes every insert is exactly the
        # same-line overwrite pattern 3D XPoint punishes.
        self.ns.pwrite(thread, self._tail_hint_addr,
                       _PTR.pack(self._alloc), instr="clwb", fence=False)
        return offset

    @property
    def _tail_hint_addr(self):
        return self.base + MAX_LEVEL * _PTR.size

    def _seek(self, key):
        preds = [0] * MAX_LEVEL
        node = 0
        steps = 0
        for lvl in range(MAX_LEVEL - 1, -1, -1):
            nxt = self._vnexts[node][lvl]
            while nxt and self._vkeys[nxt] < key:
                node = nxt
                nxt = self._vnexts[node][lvl]
                steps += 1
            preds[lvl] = node
            steps += 1
        return preds, steps

    # -- operations -------------------------------------------------------------

    def put(self, thread, key, value):
        """Durably insert (or update) one pair; returns its arena offset.

        ``value=None`` inserts a tombstone (durable delete marker).
        """
        preds, steps = self._seek(key)
        thread.sleep(_COMPARE_NS * steps)
        existing = self._vnexts[preds[0]][0]
        if existing and self._vkeys.get(existing) == key:
            return self._update_value(thread, existing, key, value, preds)
        height = self._random_height()
        nexts = [self._vnexts[preds[lvl]][lvl] for lvl in range(height)]
        node = self._node_bytes(key, value, height, nexts)
        offset = self._allocate(thread, len(node))
        # (1) Persist the node body (fenced).
        self.ns.pwrite(thread, self.base + offset, node, instr="clwb")
        # (2) Splice: level 0 first (recovery-critical, fenced), upper
        # levels are hints (single fence at the end).
        for lvl in range(height):
            self.ns.pwrite(thread, self._ptr_addr(preds[lvl], lvl),
                           _PTR.pack(offset), instr="clwb",
                           fence=(lvl == 0))
            self._vnexts[preds[lvl]][lvl] = offset
        thread.sfence()
        self._vnexts[offset] = nexts + [0] * (MAX_LEVEL - height)
        self._vkeys[offset] = key
        self._vvals[offset] = value
        self._count += 1
        return offset

    def delete(self, thread, key):
        """Durably mark ``key`` deleted (tombstone node)."""
        return self.put(thread, key, None)

    def lookup(self, thread, key):
        """Timed lookup; returns ``(found, value)`` (tombstone: True, None)."""
        preds, steps = self._seek(key)
        thread.sleep(_COMPARE_NS * steps)
        candidate = self._vnexts[preds[0]][0]
        if candidate and self._vkeys.get(candidate) == key:
            value = self._vvals[candidate]
            self.ns.load(thread, self.base + candidate,
                         _HEADER.size + len(key)
                         + (len(value) if value is not None else 0))
            return True, value
        return False, None

    def _update_value(self, thread, offset, key, value, preds):
        old = self._vvals[offset]
        if value is not None and old is not None \
                and len(value) == len(old):
            height = self._persisted_height(offset)
            vaddr = (self.base + offset + _HEADER.size
                     + height * _PTR.size + len(key))
            self.ns.pwrite(thread, vaddr, value, instr="clwb")
            self._vvals[offset] = value
            return offset
        # Length changed: splice in a replacement node (the old node
        # becomes garbage; a real system would reclaim it on flush).
        del self._vkeys[offset]
        self._vvals.pop(offset)
        self._unlink(offset, preds)
        self._count -= 1
        return self.put(thread, key, value)

    def _persisted_height(self, offset):
        raw = self.ns.read_volatile(self.base + offset, _HEADER.size)
        _, height_field, _ = _HEADER.unpack(raw)
        return height_field & _HEIGHT_MASK

    def _unlink(self, offset, preds):
        """Unsplice ``offset`` at every level where a pred points to it."""
        victim_nexts = self._vnexts.pop(offset)
        for lvl in range(MAX_LEVEL):
            if self._vnexts[preds[lvl]][lvl] == offset:
                self._vnexts[preds[lvl]][lvl] = victim_nexts[lvl]

    def get(self, thread, key):
        """Timed lookup; returns the value or None."""
        return self.lookup(thread, key)[1]

    def items(self):
        """All (key, value) pairs in key order (volatile view)."""
        node = self._vnexts[0][0]
        while node:
            yield self._vkeys[node], self._vvals[node]
            node = self._vnexts[node][0]

    # -- recovery ----------------------------------------------------------------

    @classmethod
    def recover(cls, ns, base, capacity):
        """Rebuild from the *persistent* view after a crash.

        Walks the durable level-0 chain; upper-level pointers are taken
        as hints and kept only when they reference recovered nodes.
        """
        inst = cls(ns, base, capacity)
        # Only the written extent (the rest of the arena reads as
        # zeros); poison anywhere in the arena still raises MediaError.
        raw = ns.read_persistent(base, written_extent(ns, base, capacity)[0])
        alloc_high = _PTR.size * (MAX_LEVEL + 1)
        raw = raw.ljust(alloc_high, b"\0")          # the head table
        offset = _PTR.unpack_from(raw, 0)[0]
        nodes = []
        while offset:
            if offset + _HEADER.size > capacity:
                break
            # A node running past the read runs into zeros.
            raw = raw.ljust(offset + _HEADER.size, b"\0")
            klen, height_field, vlen = _HEADER.unpack_from(raw, offset)
            height = height_field & _HEIGHT_MASK
            tombstone = bool(height_field & _TOMBSTONE_FLAG)
            if height == 0 or height > MAX_LEVEL:
                break
            ptr_base = offset + _HEADER.size
            key_base = ptr_base + height * _PTR.size
            val_end = key_base + klen + vlen
            if val_end > capacity:
                break
            raw = raw.ljust(val_end, b"\0")
            key = bytes(raw[key_base:key_base + klen])
            value = None if tombstone \
                else bytes(raw[key_base + klen:val_end])
            nexts = [_PTR.unpack_from(raw, ptr_base + i * _PTR.size)[0]
                     for i in range(height)]
            nodes.append((offset, key, value, nexts))
            alloc_high = max(alloc_high, val_end)
            offset = nexts[0]
        recovered = {n[0] for n in nodes}
        for offset, key, value, nexts in nodes:
            clean = [n if n in recovered else 0 for n in nexts]
            inst._vkeys[offset] = key
            inst._vvals[offset] = value
            inst._vnexts[offset] = clean + [0] * (MAX_LEVEL - len(clean))
        head = [0] * MAX_LEVEL
        for lvl in range(MAX_LEVEL):
            ptr = _PTR.unpack_from(raw, lvl * _PTR.size)[0]
            head[lvl] = ptr if ptr in recovered else 0
        if nodes:
            head[0] = nodes[0][0]
        inst._vnexts[0] = head
        inst._count = len(nodes)
        inst._alloc = (alloc_high + 7) & ~7
        return inst
