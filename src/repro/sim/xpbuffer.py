"""The XPBuffer: on-DIMM write-combining buffer.

A 16 KB (64-XPLine) set-associative structure.  Its job is to merge
64 B DDR-T transfers into full 256 B media writes.  Two properties of
this model produce headline results of the paper:

* the limited total capacity gives the 16 KB locality window of
  Figure 10 (writes within 64 XPLines combine; beyond that they don't);
* the limited associativity makes concurrent write streams conflict,
  evicting partially filled lines and collapsing EWR as thread counts
  rise (Figures 4 and 9, guideline #3).

Reads allocate entries too, so read streams compete with writes for
buffer space, as the paper observes.

This module holds the buffer's state; its transitions run inline in
:meth:`~repro.sim.xpdimm.XPDimm.ingest_write` and
:meth:`~repro.sim.xpdimm.XPDimm.read`, once per 64 B beat.
"""

from collections import OrderedDict

from repro._units import LINES_PER_XPLINE

FULL_MASK = (1 << LINES_PER_XPLINE) - 1


class BufferEntry:
    """State of one buffered XPLine."""

    __slots__ = ("xpline", "dirty_mask", "valid")

    def __init__(self, xpline, dirty_mask=0, valid=False):
        self.xpline = xpline
        self.dirty_mask = dirty_mask
        self.valid = valid          # True when the full 256 B is present

    @property
    def dirty(self):
        return self.dirty_mask != 0

    @property
    def fully_dirty(self):
        return self.dirty_mask == FULL_MASK

    def needs_rmw(self):
        """An eviction must read the media first iff the line is partial."""
        return self.dirty and not self.valid and not self.fully_dirty


class XPBuffer:
    """Set-associative write-combining buffer with FIFO replacement.

    Replacement is FIFO by *allocation order* within each set (writes
    to a resident line do not refresh its position).  This is what the
    paper's Figure 10 probe implies: the buffer drains a line after
    roughly 64 newer allocations regardless of activity, so re-writing
    a region each round costs one media write per line per round (EWR
    ~1), rather than merging rounds for ever.
    """

    def __init__(self, config):
        self._sets = config.sets
        self._ways = config.ways
        self._table = [OrderedDict() for _ in range(self._sets)]
        self.hits = 0
        self.misses = 0

    def flush_all(self):
        """Evict every entry (power-fail drain); returns the dirty ones."""
        dirty = []
        for table in self._table:
            for entry in table.values():
                if entry.dirty:
                    dirty.append(entry)
            table.clear()
        return dirty

    def occupancy(self):
        """Number of currently buffered XPLines."""
        return sum(len(table) for table in self._table)
