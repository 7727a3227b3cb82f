"""A deterministic skiplist: the memtable index structure.

This is the volatile variant (the persistent one lives in
:mod:`repro.kvstore.persistent_skiplist`).  Determinism matters for the
simulator: node heights come from a seeded RNG, so identical workloads
produce identical structures and identical simulated timings.
"""

import random

MAX_LEVEL = 12
_P = 0.25


class _Node:
    __slots__ = ("key", "value", "nexts")

    def __init__(self, key, value, height):
        self.key = key
        self.value = value
        self.nexts = [None] * height


class SkipList:
    """Ordered byte-string map with O(log n) expected operations."""

    def __init__(self, seed=0):
        self._head = _Node(None, None, MAX_LEVEL)
        self._rng = random.Random(seed)
        self._level = 1
        self._count = 0
        self._bytes = 0

    def __len__(self):
        return self._count

    @property
    def approximate_bytes(self):
        """Payload bytes stored (used for flush thresholds)."""
        return self._bytes

    def _random_height(self):
        h = 1
        while h < MAX_LEVEL and self._rng.random() < _P:
            h += 1
        return h

    def put(self, key, value):
        """Insert or overwrite; returns the number of pointer updates.

        ``value=None`` stores a tombstone (LSM deletes), which ``get``
        and ``items`` faithfully return as None.
        """
        return self.put_at(self.seek_preds(key)[1], key, value)

    def put_at(self, preds, key, value):
        """:meth:`put` with the predecessors already located.

        The memtable finds predecessors while counting seek steps for
        timing, then inserts through here — one traversal instead of
        two.  ``preds`` must come from :meth:`seek_preds` for this
        exact ``key`` with no intervening mutation.
        """
        vlen = len(value) if value is not None else 0
        candidate = preds[0].nexts[0]
        if candidate is not None and candidate.key == key:
            old_vlen = len(candidate.value) \
                if candidate.value is not None else 0
            self._bytes += vlen - old_vlen
            candidate.value = value
            return 1
        height = self._random_height()
        if height > self._level:
            self._level = height
        node = _Node(key, value, height)
        for lvl in range(height):
            node.nexts[lvl] = preds[lvl].nexts[lvl]
            preds[lvl].nexts[lvl] = node
        self._count += 1
        self._bytes += len(key) + vlen
        return height

    def get(self, key):
        """Look up ``key``; returns None if absent (or tombstoned)."""
        return self.lookup(key)[1]

    def lookup(self, key):
        """Look up ``key``; returns ``(found, value)``.

        Distinguishes "absent" (False, None) from a stored tombstone
        (True, None).
        """
        return self.seek_lookup(key)[1:]

    def items(self):
        """All (key, value) pairs in key order."""
        node = self._head.nexts[0]
        while node is not None:
            yield node.key, node.value
            node = node.nexts[0]

    def seek_preds(self, key):
        """One walk returning ``(steps, predecessors)``.

        ``steps`` is the number of node hops the walk took (what the
        memtable charges as compare time); the per-level predecessors
        are what :meth:`put_at` needs.
        """
        preds = [self._head] * MAX_LEVEL
        steps = 0
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            nxt = node.nexts[lvl]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.nexts[lvl]
                steps += 1
            steps += 1
            preds[lvl] = node
        return steps, preds

    def seek_lookup(self, key):
        """One walk returning ``(steps, found, value)``."""
        steps = 0
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            nxt = node.nexts[lvl]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.nexts[lvl]
                steps += 1
            steps += 1
        candidate = node.nexts[0]
        if candidate is not None and candidate.key == key:
            return steps, True, candidate.value
        return steps, False, None
