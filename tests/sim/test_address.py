"""Unit and property tests for the sparse data store and address math."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro._units import CACHELINE
from repro.sim.address import DataStore, line_addresses, split_lines

PAGE = 4096


class TestDataStore:
    def test_read_unwritten_is_zero(self):
        ds = DataStore()
        assert ds.read(100, 8) == b"\x00" * 8

    def test_write_read_roundtrip(self):
        ds = DataStore()
        ds.write(1000, b"hello")
        assert ds.read(1000, 5) == b"hello"

    def test_write_spanning_pages(self):
        ds = DataStore()
        data = bytes(range(200)) * 50        # 10000 bytes, crosses pages
        ds.write(4000, data)
        assert ds.read(4000, len(data)) == data

    def test_persist_line_copies_whole_line(self):
        ds = DataStore()
        ds.write(64, b"A" * 64)
        ds.persist_line(70)                   # middle of the line
        assert ds.read_persistent(64, 64) == b"A" * 64

    def test_unpersisted_data_not_visible_after_crash(self):
        ds = DataStore()
        ds.write(0, b"B" * 128)
        ds.persist_line(0)                    # only the first line
        ds.power_fail()
        assert ds.read(0, 64) == b"B" * 64
        assert ds.read(64, 64) == b"\x00" * 64

    def test_persist_range(self):
        ds = DataStore()
        ds.write(10, b"C" * 200)
        for line in line_addresses(10, 200):
            ds.persist_line(line)
        ds.power_fail()
        assert ds.read(10, 200) == b"C" * 200

    def test_persist_is_snapshot_of_current_volatile(self):
        ds = DataStore()
        ds.write(0, b"old-old-" * 8)
        ds.write(0, b"new-new-" * 8)
        ds.persist_line(0)
        ds.power_fail()
        assert ds.read(0, 8) == b"new-new-"

    def test_power_fail_then_continue_writing(self):
        ds = DataStore()
        ds.write(0, b"X" * 64)
        ds.persist_line(0)
        ds.power_fail()
        ds.write(64, b"Y" * 64)
        assert ds.read(0, 128) == b"X" * 64 + b"Y" * 64

    def test_persist_everything(self):
        ds = DataStore()
        ds.write(123, b"zap")
        ds.persist_everything()
        ds.power_fail()
        assert ds.read(123, 3) == b"zap"

    def test_persist_line_without_volatile_page_is_noop(self):
        ds = DataStore()
        ds.persist_line(1 << 20)
        assert ds.read_persistent(1 << 20, 4) == b"\x00" * 4

    def test_extent_ends_at_the_last_materialised_page(self):
        ds = DataStore()
        assert ds.extent(0, 1 << 20) == 0
        ds.write(PAGE + 904, b"x")
        ds.write(3 * PAGE + 10, b"y")
        assert ds.extent(0, 1 << 20) == 4 * PAGE     # walks the pages
        assert ds.extent(100, 2 * PAGE) == 2 * PAGE - 100
        assert ds.extent(PAGE, 100) == 100           # probes the range
        assert ds.extent(2 * PAGE, 10) == 0
        ds.write_persistent(10 * PAGE, b"z")         # durable bytes too
        assert ds.extent(0, 1 << 20) == 11 * PAGE

    @given(st.integers(0, 1 << 20), st.binary(min_size=1, max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, addr, data):
        ds = DataStore()
        ds.write(addr, data)
        assert ds.read(addr, len(data)) == data

    @given(st.integers(0, 1 << 16), st.binary(min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_persist_range_survives_crash(self, addr, data):
        ds = DataStore()
        ds.write(addr, data)
        for line in line_addresses(addr, len(data)):
            ds.persist_line(line)
        ds.power_fail()
        assert ds.read(addr, len(data)) == data

    @given(
        st.lists(
            st.tuples(st.integers(0, 4096), st.binary(min_size=1, max_size=64)),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_overlapping_writes_last_wins(self, writes):
        ds = DataStore()
        shadow = bytearray(8192)
        for addr, data in writes:
            ds.write(addr, data)
            shadow[addr:addr + len(data)] = data
        assert ds.read(0, 8192) == bytes(shadow)


class _TwoViews:
    """Reference store: two full page maps, volatile and persistent.

    The store's former implementation, kept as the model
    :class:`DataStore` must match read for read.  One departure: the
    old ``persist_line`` skipped a line whose page ``write`` never
    touched, so bytes put there by ``write_persistent`` outlived a
    persist of zeros.  Here, as in :class:`DataStore`, a persisted line
    is durable exactly as the CPU sees it.
    """

    def __init__(self):
        self.volatile = {}
        self.persistent = {}

    @staticmethod
    def _pieces(addr, size):
        end = addr + size
        while addr < end:
            page, off = divmod(addr, PAGE)
            chunk = min(PAGE - off, end - addr)
            yield page, off, chunk
            addr += chunk

    def _put(self, view, addr, data):
        pos = 0
        for page, off, chunk in self._pieces(addr, len(data)):
            buf = view.setdefault(page, bytearray(PAGE))
            buf[off:off + chunk] = data[pos:pos + chunk]
            pos += chunk

    def _get(self, view, addr, size):
        out = bytearray()
        for page, off, chunk in self._pieces(addr, size):
            buf = view.get(page, bytes(PAGE))
            out += buf[off:off + chunk]
        return bytes(out)

    def write(self, addr, data):
        self._put(self.volatile, addr, data)

    def write_persistent(self, addr, data):
        self._put(self.persistent, addr, data)

    def read(self, addr, size):
        return self._get(self.volatile, addr, size)

    def read_persistent(self, addr, size):
        return self._get(self.persistent, addr, size)

    def persist_line(self, addr):
        page, off = divmod(addr - addr % CACHELINE, PAGE)
        src = self.volatile.get(page, bytes(PAGE))
        dst = self.persistent.setdefault(page, bytearray(PAGE))
        dst[off:off + CACHELINE] = src[off:off + CACHELINE]

    def power_fail(self):
        self.volatile = {p: bytearray(b) for p, b in self.persistent.items()}

    def persist_everything(self):
        self.persistent = {p: bytearray(b) for p, b in self.volatile.items()}


# Three hot spans of 256 B, two straddling a page boundary, so that
# writes, persists and reads keep landing on the same lines.
_addr = st.builds(lambda base, off: base + off,
                  st.sampled_from([0, PAGE - 128, 2 * PAGE - 64]),
                  st.integers(0, 255))
# A run of distinct bytes from a drawn start: cheap to draw and shrink.
_data = st.builds(lambda first, n: bytes((first + i) % 256
                                         for i in range(n)),
                  st.integers(0, 255), st.integers(1, 200))


class DataStoreModel(RuleBasedStateMachine):
    """``DataStore`` against the two-view reference, op for op."""

    def __init__(self):
        super().__init__()
        self.ds, self.ref = DataStore(), _TwoViews()

    def _both(self, op, *args):
        getattr(self.ds, op)(*args)
        getattr(self.ref, op)(*args)

    @rule(addr=_addr, data=_data)
    def write(self, addr, data):
        self._both("write", addr, data)

    @rule(boundary=st.sampled_from([PAGE, 2 * PAGE]),
          before=st.integers(1, 130), data=_data)
    def write_across_pages(self, boundary, before, data):
        prefix = bytes(range(1, before + 1))    # nonzero, unlike a new page
        self._both("write", boundary - before, prefix + data)

    @rule(addr=_addr)
    def persist_line(self, addr):
        self._both("persist_line", addr)

    @rule(addr=_addr, data=_data)
    def write_persistent(self, addr, data):
        self._both("write_persistent", addr, data)

    @rule(addr=_addr, size=st.integers(1, 300))
    def read(self, addr, size):
        assert self.ds.read(addr, size) == self.ref.read(addr, size)
        assert self.ds.read_persistent(addr, size) == \
            self.ref.read_persistent(addr, size)

    @rule(addr=_addr)
    def read_line(self, addr):                  # the one-line fast path
        line = addr - addr % CACHELINE
        assert self.ds.read_persistent(line, CACHELINE) == \
            self.ref.read_persistent(line, CACHELINE)

    @rule(addr=st.integers(0, 3 * PAGE), size=st.integers(1, 3 * PAGE))
    def extent(self, addr, size):
        n = self.ds.extent(addr, size)
        assert n in (0, size) or (addr + n) % PAGE == 0
        assert not any(self.ref.read(addr + n, size - n))
        assert not any(self.ref.read_persistent(addr + n, size - n))

    @rule()
    def power_fail(self):
        self._both("power_fail")

    @rule()
    def persist_everything(self):
        self._both("persist_everything")

    @invariant()
    def views_agree(self):
        end = 3 * PAGE
        assert self.ds.read(0, end) == self.ref.read(0, end)
        assert self.ds.read_persistent(0, end) == \
            self.ref.read_persistent(0, end)


TestDataStoreModel = DataStoreModel.TestCase
TestDataStoreModel.settings = settings(max_examples=100,
                                       stateful_step_count=50,
                                       deadline=None)


class TestSplitLines:
    def test_single_aligned_line(self):
        assert split_lines(0, 64) == [(0, 0, 64)]

    def test_unaligned_small(self):
        assert split_lines(10, 20) == [(0, 10, 20)]

    def test_crossing_boundary(self):
        assert split_lines(60, 8) == [(0, 60, 4), (64, 64, 4)]

    def test_large_range(self):
        pieces = split_lines(0, 256)
        assert len(pieces) == 4
        assert sum(p[2] for p in pieces) == 256

    @given(st.integers(0, 10000), st.integers(1, 2000))
    @settings(max_examples=60, deadline=None)
    def test_pieces_cover_range_exactly(self, addr, size):
        pieces = split_lines(addr, size)
        assert sum(p[2] for p in pieces) == size
        cur = addr
        for line, start, length in pieces:
            assert start == cur
            assert line <= start < line + CACHELINE
            assert start + length <= line + CACHELINE
            cur += length


class TestLineAddresses:
    def test_aligned(self):
        assert list(line_addresses(0, 128)) == [0, 64]

    def test_unaligned_spans_extra_line(self):
        assert list(line_addresses(60, 8)) == [0, 64]

    def test_single_byte(self):
        assert list(line_addresses(100, 1)) == [64]

    @given(st.integers(0, 100000), st.integers(1, 5000))
    @settings(max_examples=60, deadline=None)
    def test_every_byte_covered(self, addr, size):
        lines = list(line_addresses(addr, size))
        assert lines[0] <= addr
        assert lines[-1] + CACHELINE >= addr + size
        for a, b in zip(lines, lines[1:]):
            assert b - a == CACHELINE
