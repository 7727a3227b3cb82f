"""Unit and property tests for the XPBuffer write-combining model.

The buffer's transitions run inline in ``XPDimm.ingest_write`` and
``XPDimm.read``, so these tests drive a DIMM with a small buffer and
read the buffer's sets, its hit/miss counts and the media byte
counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import CACHELINE, XPLINE
from repro.sim.config import MachineConfig, XPBufferConfig
from repro.sim.xpbuffer import FULL_MASK, BufferEntry
from repro.sim.xpdimm import XPDimm


def make_dimm(sets=16, ways=4):
    cfg = MachineConfig()
    cfg.xpbuffer = XPBufferConfig(sets=sets, ways=ways)
    cfg.ait.enabled = False
    return XPDimm(cfg, "xp.test")


def write(dimm, xpline, subline):
    dimm.ingest_write(0.0, xpline * XPLINE + subline * CACHELINE)


def read(dimm, xpline):
    dimm.read(0.0, xpline * XPLINE)


def entry(dimm, xpline):
    buf = dimm.buffer
    return buf._table[xpline % buf._sets].get(xpline)


def resident(dimm, index=0):
    """The XPLines of one set, oldest allocation first."""
    return list(dimm.buffer._table[index])


def media_lines(dimm):
    """(XPLines read from media, XPLines written to media)."""
    c = dimm.counters
    return c.media_read_bytes // XPLINE, c.media_write_bytes // XPLINE


class TestBufferEntry:
    def test_fresh_entry_not_dirty(self):
        e = BufferEntry(5)
        assert not e.dirty
        assert not e.fully_dirty

    def test_fully_dirty(self):
        e = BufferEntry(5, dirty_mask=FULL_MASK)
        assert e.fully_dirty
        assert not e.needs_rmw()

    def test_partial_unvalidated_needs_rmw(self):
        e = BufferEntry(5, dirty_mask=0b0001)
        assert e.needs_rmw()

    def test_partial_but_valid_no_rmw(self):
        e = BufferEntry(5, dirty_mask=0b0001, valid=True)
        assert not e.needs_rmw()


class TestWriteCombining:
    def test_four_sublines_combine(self):
        dimm = make_dimm()
        for sub in range(4):
            write(dimm, 7, sub)
            assert dimm.buffer.hits == sub
            assert dimm.buffer.misses == 1
        assert entry(dimm, 7).fully_dirty
        assert media_lines(dimm) == (0, 0)

    def test_capacity_eviction_is_fifo(self):
        dimm = make_dimm(sets=1, ways=2)
        write(dimm, 0, 0)
        write(dimm, 1, 0)
        write(dimm, 2, 0)
        assert resident(dimm) == [1, 2]
        assert media_lines(dimm) == (1, 1)       # partial victim: RMW

    def test_write_hit_does_not_refresh_fifo_position(self):
        dimm = make_dimm(sets=1, ways=2)
        write(dimm, 0, 0)
        write(dimm, 1, 0)
        write(dimm, 0, 1)            # hit: merges, but stays oldest
        write(dimm, 2, 0)
        assert dimm.buffer.hits == 1
        assert resident(dimm) == [1, 2]

    def test_overwrite_flushes_previous_version(self):
        dimm = make_dimm()
        write(dimm, 3, 0)
        write(dimm, 3, 0)
        assert (dimm.buffer.hits, dimm.buffer.misses) == (0, 2)
        assert media_lines(dimm) == (1, 1)
        assert entry(dimm, 3).dirty_mask == 0b0001

    def test_overwrite_of_clean_read_entry_no_flush(self):
        dimm = make_dimm()
        read(dimm, 3)
        write(dimm, 3, 0)
        assert dimm.buffer.hits == 1   # subline was not dirty: merge
        assert media_lines(dimm) == (1, 0)       # the read's fill only
        assert entry(dimm, 3).valid
        assert entry(dimm, 3).dirty_mask == 0b0001

    def test_eviction_within_set_only(self):
        dimm = make_dimm(sets=2, ways=1)
        write(dimm, 0, 0)              # set 0
        write(dimm, 1, 0)              # set 1
        assert resident(dimm, 0) == [0]
        assert resident(dimm, 1) == [1]
        assert media_lines(dimm) == (0, 0)

    def test_occupancy_bounded_by_capacity(self):
        dimm = make_dimm(sets=4, ways=2)
        for line in range(100):
            write(dimm, line, 0)
        assert dimm.buffer.occupancy() == 8
        assert media_lines(dimm) == (92, 92)


class TestReads:
    def test_read_miss_allocates_valid(self):
        dimm = make_dimm()
        read(dimm, 9)
        assert (dimm.buffer.hits, dimm.buffer.misses) == (0, 1)
        assert entry(dimm, 9).valid
        assert media_lines(dimm) == (1, 0)

    def test_read_hit(self):
        dimm = make_dimm()
        read(dimm, 9)
        read(dimm, 9)
        assert dimm.buffer.hits == 1
        assert media_lines(dimm) == (1, 0)

    def test_read_allocation_can_evict_dirty_write(self):
        dimm = make_dimm(sets=1, ways=1)
        write(dimm, 0, 0)
        read(dimm, 1)
        assert dimm.buffer.misses == 2
        assert resident(dimm) == [1]
        # The partial victim's RMW read, its write, then the fill.
        assert media_lines(dimm) == (2, 1)


class TestFlushAll:
    def test_flush_returns_only_dirty(self):
        dimm = make_dimm()
        write(dimm, 0, 0)
        read(dimm, 20)
        assert [e.xpline for e in dimm.buffer.flush_all()] == [0]
        assert dimm.buffer.occupancy() == 0

    def test_dirty_lines_count(self):
        dimm = make_dimm()
        write(dimm, 0, 0)
        write(dimm, 16, 1)
        read(dimm, 40)
        dimm.drain(0.0)
        assert media_lines(dimm) == (3, 2)       # two RMWs, one fill
        assert dimm.buffer.occupancy() == 0


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 3)),
                min_size=1, max_size=400))
@settings(max_examples=50, deadline=None)
def test_invariants_under_random_write_streams(ops):
    dimm = make_dimm()
    config = XPBufferConfig()
    for xpline, subline in ops:
        before = media_lines(dimm)[1]
        write(dimm, xpline, subline)
        assert entry(dimm, xpline).dirty_mask & (1 << subline)
        # At most one line leaves, and only a dirty one reaches media.
        assert media_lines(dimm)[1] - before in (0, 1)
        assert dimm.buffer.occupancy() <= config.lines
    # Every resident entry is placed in its home set.
    for idx, table in enumerate(dimm.buffer._table):
        for line in table:
            assert line % config.sets == idx
    # Every miss made one dirty entry, and each is written back once.
    dimm.drain(0.0)
    assert dimm.buffer.hits + dimm.buffer.misses == len(ops)
    assert media_lines(dimm)[1] == dimm.buffer.misses


@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_hits_plus_misses_equals_accesses(lines):
    dimm = make_dimm()
    for line in lines:
        read(dimm, line)
    assert dimm.buffer.hits + dimm.buffer.misses == len(lines)
    assert media_lines(dimm) == (dimm.buffer.misses, 0)
