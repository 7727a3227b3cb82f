"""Address math and sparse backing storage for simulated memories.

A :class:`DataStore` keeps the *contents* of a namespace as one sparse
page map (the volatile view: what the CPU reads) plus an undo map: the
durable 64 B pre-image of every line whose volatile bytes may differ
from what survives a simulated power failure.  A line absent from the
undo map is durable exactly as the CPU sees it.  A line leaves the map
exactly when the simulator decides the corresponding store reached the
ADR domain; a power failure writes the remaining images back.
"""

from repro._units import CACHELINE, align_down

_PAGE = 4096
_ZERO_LINE = bytes(CACHELINE)
_ZERO_PAGE = memoryview(bytes(_PAGE))


class DataStore:
    """Sparse byte storage: volatile pages plus the durable pre-images."""

    def __init__(self):
        self._volatile = {}
        # line address -> the 64 durable bytes of a not-yet-durable
        # line.  Invariant: every line here has its volatile page.
        self._undo = {}

    # -- volatile view ------------------------------------------------------

    def write(self, addr, data):
        """Write ``data`` into the volatile view at ``addr``.

        First saves the durable bytes of every touched line that is not
        already awaiting persistence (a new page's are all zero).
        """
        page, off = divmod(addr, _PAGE)
        end = off + len(data)
        if end <= _PAGE:
            # Single-page write (every record/value/header in the KV
            # substrates): no helper call, one slice assignment.
            undo = self._undo
            lines = range(addr - off % CACHELINE, addr + len(data),
                          CACHELINE)
            buf = self._volatile.get(page)
            if buf is None:
                # A new page has no line in the undo map (the invariant).
                buf = self._volatile[page] = bytearray(_PAGE)
                for line in lines:
                    undo[line] = _ZERO_LINE
            else:
                base = addr - off
                for line in lines:
                    if line not in undo:
                        o = line - base
                        undo[line] = buf[o:o + CACHELINE]
            buf[off:end] = data
            return
        pos = 0
        size = len(data)
        while pos < size:
            chunk = min(_PAGE - (addr + pos) % _PAGE, size - pos)
            self.write(addr + pos, data[pos:pos + chunk])
            pos += chunk

    def read(self, addr, size):
        """Read ``size`` bytes from the volatile view."""
        page, off = divmod(addr, _PAGE)
        end = off + size
        if end <= _PAGE:
            buf = self._volatile.get(page)
            if buf is None:
                return bytes(size)
            return bytes(buf[off:end])
        return b"".join(self._views(addr, addr + size))

    def _views(self, addr, end):
        """Zero-copy views of the volatile bytes in ``[addr, end)``, one
        per page (a shared zero page stands in for an absent one), so a
        multi-page read joins them into its only allocation."""
        pages = self._volatile
        views = []
        while addr < end:
            page, off = divmod(addr, _PAGE)
            stop = min(_PAGE, off + end - addr)
            buf = pages.get(page)
            views.append(_ZERO_PAGE[off:stop] if buf is None
                         else memoryview(buf)[off:stop])
            addr += stop - off
        return views

    def extent(self, addr, size):
        """How many leading bytes of ``[addr, addr+size)`` may be non-zero.

        The range ends at the last materialised page it overlaps: every
        byte that is non-zero in either view lies in a materialised page
        (``write`` and ``write_persistent`` create the pages they touch,
        and every pre-image has its page), so the rest reads as zero in
        both views.  Costs the fewer of the range's pages and the
        materialised ones.
        """
        if size <= 0:
            return 0
        first, last = addr // _PAGE, (addr + size - 1) // _PAGE
        pages = self._volatile
        if last - first < len(pages):
            top = next((p for p in range(last, first - 1, -1)
                        if p in pages), None)
        else:
            top = max((p for p in pages if first <= p <= last),
                      default=None)
        if top is None:
            return 0
        return min((top + 1) * _PAGE - addr, size)

    # -- persistence --------------------------------------------------------

    def persist_line(self, line_addr):
        """Make one cache line durable as the CPU sees it."""
        self._undo.pop(line_addr - line_addr % CACHELINE, None)

    def write_persistent(self, addr, data):
        """Overwrite bytes of the persistent view directly.

        Used by fault injection (torn-write rollback) — normal code
        moves data with :meth:`persist_line` only.  Only the touched
        lines' pre-images change; the volatile view is left as it is.
        """
        volatile = self._volatile
        undo = self._undo
        pos = 0
        for line, start, chunk in split_lines(addr, len(data)):
            image = undo.get(line)
            if image is None:
                page, off = divmod(line, _PAGE)
                buf = volatile.get(page)
                if buf is None:
                    buf = volatile[page] = bytearray(_PAGE)
                image = buf[off:off + CACHELINE]
            image = bytearray(image)          # never edit a shared image
            image[start - line:start - line + chunk] = data[pos:pos + chunk]
            undo[line] = image
            pos += chunk

    def read_persistent(self, addr, size):
        """Read ``size`` bytes from the persistent (post-crash) view."""
        undo = self._undo
        if size == CACHELINE and not addr % CACHELINE:
            # One line: what the fault controller snapshots per persist.
            image = undo.get(addr)
            return self.read(addr, size) if image is None else bytes(image)
        if not undo:
            return self.read(addr, size)
        end = addr + size
        first = addr - addr % CACHELINE
        if (end - first) // CACHELINE < len(undo):
            pending = [line for line in range(first, end, CACHELINE)
                       if line in undo]
        else:
            pending = sorted(line for line in undo if first <= line < end)
        if not pending:
            return self.read(addr, size)
        # Volatile views between the pending lines' pre-images, joined
        # into the one allocation.
        views = []
        pos = addr
        for line in pending:
            start, stop = max(line, addr), min(line + CACHELINE, end)
            if pos < start:
                views += self._views(pos, start)
            views.append(memoryview(undo[line])[start - line:stop - line])
            pos = stop
        if pos < end:
            views += self._views(pos, end)
        return b"".join(views)

    def power_fail(self):
        """Drop the volatile view: only persisted data survives.

        Costs one line copy per line still awaiting persistence.
        """
        volatile = self._volatile
        for line, image in self._undo.items():
            page, off = divmod(line, _PAGE)
            volatile[page][off:off + CACHELINE] = image
        self._undo.clear()

    def persist_everything(self):
        """Force the persistent view to match the volatile view (test aid)."""
        self._undo.clear()


def split_lines(addr, size):
    """Split ``[addr, addr+size)`` into (line_addr, offset, length) pieces."""
    end = addr + size
    pieces = []
    cur = addr
    while cur < end:
        line = align_down(cur, CACHELINE)
        chunk = min(line + CACHELINE - cur, end - cur)
        pieces.append((line, cur, chunk))
        cur += chunk
    return pieces


def line_addresses(addr, size):
    """The distinct cache-line base addresses touched by a range."""
    first = addr - (addr % CACHELINE)
    last = addr + size - 1
    last -= last % CACHELINE
    return range(first, last + CACHELINE, CACHELINE)
