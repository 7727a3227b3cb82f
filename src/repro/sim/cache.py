"""CPU cache model.

The model tracks, exactly, which lines are cached and which of those
are dirty — that is what persistence depends on.  It is a single cache
per socket (standing in for the LLC) with set-associative placement
under a multiplicative hash.

The hash matters: a sequential store stream maps to pseudo-randomly
scattered sets, so when capacity evictions begin, the *write-back
stream leaving the cache is scrambled in address order* even though the
program wrote sequentially.  That scrambling is the root cause the
paper gives for guideline #2 (flush or use ntstore; letting the cache
evict naturally "adds nondeterminism to the access stream", collapsing
EWR from ~0.98 to ~0.26).

Replacement is exact LRU, and recency *is* the set table's insertion
order: every access that refreshes a line (a load hit, a store hit, a
refill) moves its entry to the end of the set dict, a fill appends, and
the victim is the first key.  Flush-side operations (``clean``,
``clean_ready``, ``is_dirty``) do not touch recency.

A resident line costs one int and one float.  Inside the model a line
is named by its *tag*, ``line | ns_id`` (lines are 64 B aligned, so the
low six bits are free; :meth:`Machine._register_namespace` caps
``ns_id`` below 64), and its set table maps the tag to the fill's ready
time.  Dirtiness is one set of tags per cache, and every dirty tag is
resident: whatever drops a line from its set drops it from the dirty
set too.  The public methods take and return ``(ns_id, line)`` keys;
:func:`pack` and :func:`unpack` convert at that boundary.
"""

_HASH_MULT = 2654435761


def pack(key):
    """The tag of an ``(ns_id, line)`` key."""
    ns_id, line = key
    return line | ns_id


def unpack(tag):
    """The ``(ns_id, line)`` key of a tag."""
    return tag & 63, tag & -64


class CacheModel:
    """Set-associative write-back cache with exact dirty-line tracking."""

    def __init__(self, config, name="llc"):
        self.name = name
        self._ways = config.ways
        nsets = max(1, config.capacity_bytes // 64 // config.ways)
        self._nsets = nsets
        # Sets are allocated lazily (index -> {tag: ready_ns}, least
        # recently used first): a fresh machine per sweep point would
        # otherwise pay for tens of thousands of empty dicts it never
        # touches.
        self._sets = {}
        self._dirty = set()          # tags of dirty lines, all resident
        self.hits = 0
        self.misses = 0

    def _index(self, key):
        ns_id, line = key
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16
        h = (h * 0x45D9F3B) & 0xFFFFFFFF
        h ^= h >> 13
        return h % self._nsets

    # -- queries --------------------------------------------------------------

    def lookup(self, key):
        """True if ``key`` is cached; refreshes its recency."""
        return self.probe(key)[0]

    def is_dirty(self, key):
        return pack(key) in self._dirty

    # -- fused hot-path helpers ------------------------------------------------
    #
    # The per-line access paths used to hash every key twice (lookup
    # then fill, mark_dirty then fill, the ready time then clean).  These
    # helpers hash once and hand the set table back to the caller so the
    # follow-up mutation can reuse it.  Counter and recency sequences are
    # identical to the two-call forms.

    def probe(self, key):
        """Like :meth:`lookup` but also returns the set table.

        Returns ``(hit, table)``; on a hit the entry's recency is
        refreshed, on a miss the table is what :meth:`fill_in` needs.
        """
        ns_id, line = key
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                             # _index, inlined
        h = (h * 0x45D9F3B) & 0xFFFFFFFF
        sets = self._sets
        index = (h ^ (h >> 13)) % self._nsets
        table = sets.get(index)
        if table is None:
            table = sets[index] = {}
        tag = line | ns_id
        ready = table.pop(tag, None)
        if ready is None:
            self.misses += 1
            return False, table
        table[tag] = ready                       # now most recent
        self.hits += 1
        return True, table

    def store_probe(self, key):
        """Like :meth:`mark_dirty` but also returns the set table.

        Returns ``(marked, table)``.  Does not touch the hit/miss
        counters, matching ``mark_dirty`` + ``fill``.
        """
        table = self._sets.setdefault(self._index(key), {})
        tag = pack(key)
        ready = table.pop(tag, None)
        if ready is None:
            return False, table
        table[tag] = ready                       # now most recent
        self._dirty.add(tag)
        return True, table

    def fill_in(self, table, key, dirty=False, ready_ns=0.0):
        """:meth:`fill` for a key already known absent from ``table``."""
        victim = None
        if len(table) >= self._ways:
            vtag = next(iter(table))             # least recently used
            del table[vtag]
            was_dirty = vtag in self._dirty
            self._dirty.discard(vtag)
            victim = (unpack(vtag), was_dirty)
        tag = pack(key)
        table[tag] = ready_ns
        if dirty:
            self._dirty.add(tag)
        return victim

    def clean_ready(self, key):
        """The line's fill-ready time, fused with :meth:`clean`.

        Returns ``(was_dirty, ready_ns)``; ``ready_ns`` is 0.0 when the
        line is absent or already clean (callers only use it for dirty
        lines).
        """
        ns_id, line = key
        tag = line | ns_id
        dirty = self._dirty
        if tag not in dirty:
            return False, 0.0
        dirty.remove(tag)
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                             # _index, inlined
        h = (h * 0x45D9F3B) & 0xFFFFFFFF
        return True, self._sets[(h ^ (h >> 13)) % self._nsets][tag]

    # -- mutations ------------------------------------------------------------

    def fill(self, key, dirty=False, ready_ns=0.0):
        """Insert ``key``; returns an evicted (key, was_dirty) or None.

        ``ready_ns`` is when the fill's data actually arrives from
        memory: a write-back of this line cannot leave the cache before
        then (the RFO-coupling that penalises store+clwb on fresh
        lines).
        """
        table = self._sets.setdefault(self._index(key), {})
        tag = pack(key)
        ready = table.pop(tag, None)
        if ready is not None:
            if dirty:
                self._dirty.add(tag)
            table[tag] = ready                   # now most recent
            return None
        return self.fill_in(table, key, dirty, ready_ns)

    def mark_dirty(self, key):
        """Mark a (present) line dirty; returns False if not cached."""
        return self.store_probe(key)[0]

    def clean(self, key):
        """clwb semantics: write back but keep the line cached.

        Returns True if the line was dirty (i.e. a write-back happens).
        """
        tag = pack(key)
        if tag not in self._dirty:
            return False
        self._dirty.remove(tag)
        return True

    def invalidate(self, key):
        """clflush/ntstore semantics: drop the line; True if it was dirty."""
        table = self._sets.get(self._index(key))
        tag = pack(key)
        if table is None or table.pop(tag, None) is None:
            return False
        if tag not in self._dirty:
            return False
        self._dirty.remove(tag)
        return True

    def drop_all(self):
        """Power failure: every line (dirty or not) is lost."""
        self._sets.clear()
        self._dirty.clear()

    def dirty_keys(self):
        """All currently dirty lines, in no particular order.

        Used by tests and the eADR drain, which persists each line
        independently.
        """
        return [unpack(tag) for tag in self._dirty]

    def occupancy(self):
        return sum(len(table) for table in self._sets.values())
