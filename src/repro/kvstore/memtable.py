"""Volatile (heap) memtable: a timed wrapper around the skiplist.

The WAL-based RocksDB configurations keep their memtable in ordinary
DRAM heap; its cost is CPU-bound skiplist traversal plus a node
allocation, charged to the simulated thread as compute time.
"""

from repro.kvstore.skiplist import SkipList

_COMPARE_NS = 12.0
_ALLOC_NS = 60.0
_COPY_NS_PER_BYTE = 0.8


class VolatileMemtable:
    """DRAM-resident memtable with simulated-time accounting."""

    def __init__(self, seed=0):
        self._sl = SkipList(seed=seed)

    def __len__(self):
        return len(self._sl)

    @property
    def approximate_bytes(self):
        return self._sl.approximate_bytes

    def put(self, thread, key, value):
        vlen = len(value) if value is not None else 0
        copy = (len(key) + vlen) * _COPY_NS_PER_BYTE
        # One traversal both counts seek steps (timing) and finds the
        # insert point.
        steps, preds = self._sl.seek_preds(key)
        thread.sleep(steps * _COMPARE_NS + _ALLOC_NS + copy)
        self._sl.put_at(preds, key, value)

    def delete(self, thread, key):
        """Record a tombstone (the LSM delete path)."""
        self.put(thread, key, None)

    def lookup(self, thread, key):
        """Timed lookup distinguishing absent from tombstoned."""
        steps, found, value = self._sl.seek_lookup(key)
        thread.sleep(steps * _COMPARE_NS)
        return found, value

    def items(self):
        return self._sl.items()
