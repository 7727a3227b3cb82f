"""Per-inode logs: entry formats, appends, scanning (NOVA's core).

A log is a chain of 4 KB log pages; each page begins with a 64-byte
header whose first quadword is the gaddr of the next page (0 = end).
Entries are multiples of 64 bytes:

* **WriteEntry** (64 B) — a copy-on-write file write: "page ``pgoff``
  of the file now lives at ``page_gaddr``; file size is now N".
* **EmbedWriteEntry** (64 B header + inline data, 64 B-aligned) — the
  NOVA-datalog optimisation (Figure 11): a sub-page write whose data
  is embedded in the log itself, turning a random small write into a
  sequential append.

Every entry carries a CRC over its header (and, for embed entries, the
data), so recovery can detect torn appends.

The log's root is the inode's slot in the inode table: the head of the
chain plus the tail position.  An append is acknowledged only once
:meth:`InodeLog.commit` has persisted the tail behind it, and recovery
(:meth:`InodeLog.open_persistent` + :meth:`InodeLog.scan_persistent`)
replays the chain up to that committed tail and no further.  Both
halves of that rule live here.
Pages are read back by :func:`~repro.faults.model.scan_log` at 64 B
alignment, ending at the zero terminator a grow leaves behind them.
"""

import struct
import zlib

from repro._units import CACHELINE, align_up
from repro.faults.model import (
    END, MediaError, overlaps_lost, scan_log, tolerant_read,
)
from repro.fs.layout import INODE_TABLE_PAGE, PAGE, split_gaddr

LOG_PAGE_HEADER = 64

WRITE_ENTRY = 1
EMBED_ENTRY = 2
SIZE_ENTRY = 3          # truncate / explicit size change

# type u8 | pad u8 | dlen u16 | pgoff u32 | page_gaddr u64 |
# file_size u64 | in_page_off u16 | pad | crc u32
_ENTRY = struct.Struct("<BBHIQQHHI")
ENTRY_SIZE = 64
assert _ENTRY.size <= ENTRY_SIZE

_TERMINATOR = b"\x00" * ENTRY_SIZE

#: inode-table slot: log_head u64 | tail_page u64 | tail_off u32 | crc u32
_INODE_SLOT = struct.Struct("<QQII")
INODE_SLOT_SIZE = 64


def slot_addr(inode):
    """Device-0 address of an inode's slot in the inode table."""
    return INODE_TABLE_PAGE * PAGE + inode * INODE_SLOT_SIZE


def encode_write_entry(pgoff, page_gaddr, file_size):
    body = _ENTRY.pack(WRITE_ENTRY, 0, 0, pgoff, page_gaddr, file_size,
                       0, 0, 0)[:-4]
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return (body + struct.pack("<I", crc)).ljust(ENTRY_SIZE, b"\x00")


def encode_size_entry(file_size):
    """A truncate record: sets the file size authoritatively."""
    body = _ENTRY.pack(SIZE_ENTRY, 0, 0, 0, 0, file_size, 0, 0, 0)[:-4]
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return (body + struct.pack("<I", crc)).ljust(ENTRY_SIZE, b"\x00")


def encode_embed_entry(pgoff, in_page_off, data, file_size):
    if len(data) >= PAGE:
        raise ValueError("embed entries are for sub-page writes")
    body = _ENTRY.pack(EMBED_ENTRY, 0, len(data), pgoff, 0, file_size,
                       in_page_off, 0, 0)[:-4]
    crc = zlib.crc32(body + data) & 0xFFFFFFFF
    header = (body + struct.pack("<I", crc)).ljust(ENTRY_SIZE, b"\x00")
    padded = align_up(len(data), CACHELINE)
    return header + data + b"\x00" * (padded - len(data))


def decode_entry(buf, offset):
    """Decode the entry at ``offset``; returns (dict, next_offset) or None."""
    if offset + ENTRY_SIZE > len(buf):
        return None
    fields = _ENTRY.unpack_from(buf, offset)
    etype, _, dlen, pgoff, page_gaddr, file_size, in_off, _, crc = fields
    raw_body = bytes(buf[offset:offset + _ENTRY.size - 4])
    if etype == WRITE_ENTRY:
        if zlib.crc32(raw_body) & 0xFFFFFFFF != crc:
            return None
        entry = {"type": WRITE_ENTRY, "pgoff": pgoff,
                 "page_gaddr": page_gaddr, "file_size": file_size}
        return entry, offset + ENTRY_SIZE
    if etype == SIZE_ENTRY:
        if zlib.crc32(raw_body) & 0xFFFFFFFF != crc:
            return None
        return ({"type": SIZE_ENTRY, "file_size": file_size},
                offset + ENTRY_SIZE)
    if etype == EMBED_ENTRY:
        data_start = offset + ENTRY_SIZE
        data_end = data_start + dlen
        if data_end > len(buf):
            return None
        data = bytes(buf[data_start:data_end])
        if zlib.crc32(raw_body + data) & 0xFFFFFFFF != crc:
            return None
        entry = {"type": EMBED_ENTRY, "pgoff": pgoff, "in_off": in_off,
                 "data": data, "file_size": file_size}
        return entry, offset + ENTRY_SIZE + align_up(dlen, CACHELINE)
    return None


class InodeLog:
    """The volatile handle onto one inode's persistent log chain."""

    def __init__(self, fs, inode, head_gaddr, thread=None):
        self.fs = fs
        self.inode = inode
        self.head = head_gaddr
        self.tail_page = head_gaddr
        self.tail_off = LOG_PAGE_HEADER       # within the tail page
        self.committed = None                 # tail persisted in the slot
        self.length = 0                       # live entries appended
        self.pages_seen = [head_gaddr]        # the chain, head first
        self.retired = []                     # freed by the next commit
        self.unpublished = []                 # pmcheck: uncommitted entries
        if thread is not None:
            self._adopt_page(thread, head_gaddr)

    @property
    def uncommitted(self):
        """True while entries sit past the committed tail: a crash now
        would drop them."""
        return self.committed != (self.tail_page, self.tail_off)

    def commit(self, thread, fence=True):
        """Persist the inode slot (log head + tail position), atomically
        enough: the payload is CRC'd, so recovery rejects torn slots.

        This is what acknowledges the entries appended since the last
        commit — recovery stops replaying at the tail stored here — and,
        for a freshly built chain, what switches the inode over to it.
        From here on nothing the slot names references the pages handed
        to :meth:`retire`, so this is also where they go back to the
        allocator — through :meth:`NovaFS.recycle`, which quarantines a
        page the media reports poisoned.  (With ``fence=False`` the
        caller has taken over the fence — the async FIO engine batches
        it — and pages still recycle here, not at that later fence.)
        """
        body = struct.pack("<QQI", self.head, self.tail_page, self.tail_off)
        blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        ns, addr = self.fs.devices[0], slot_addr(self.inode)
        pmcheck = thread.machine.pmcheck
        if pmcheck is not None:
            pmcheck.require_order(
                self.unpublished, [(ns, addr, len(blob))],
                note="nova commit: every entry appended since the last "
                     "commit must be durable before the slot publishes "
                     "them")
            self.unpublished = []
        ns.ntstore(thread, addr, len(blob), data=blob)
        if fence:
            thread.sfence()
        self.committed = (self.tail_page, self.tail_off)
        for gaddr in self.retired:
            self.fs.recycle(gaddr)
        self.retired = []

    def retire(self, gaddr):
        """Give up a page the *committed* log may still reference.

        The allocator is LIFO, so a page freed on the spot is the next
        one handed out and overwritten — while a crash would still
        replay the entry (or walk the chain) that points at it.  A
        retired page is recycled only by the :meth:`commit` that makes
        its replacement the durable truth.
        """
        self.retired.append(gaddr)

    def chain_pages(self):
        """Every page of the chain, head first, from DRAM: a poisoned
        next-pointer must not stop the chain from being recycled."""
        return list(self.pages_seen)

    @classmethod
    def open_persistent(cls, fs, inode, report):
        """Recovery: the handle the inode's persistent slot describes,
        or ``None`` when the slot is empty, torn or unreadable."""
        try:
            raw = fs.devices[0].read_persistent(slot_addr(inode),
                                                INODE_SLOT_SIZE)
        except MediaError:
            report.lost += 1
            report.note("inode %d: slot unreadable, file lost" % inode)
            return None
        head, tail_page, tail_off, crc = _INODE_SLOT.unpack_from(raw)
        body = raw[:_INODE_SLOT.size - 4]
        if head == 0 or zlib.crc32(body) & 0xFFFFFFFF != crc:
            if any(raw):
                # Non-empty slot failing its CRC = torn inode commit:
                # expected crash semantics (slots are overwritten in
                # place, so a torn slot drops the file).
                report.truncated += 1
                report.note("inode %d: torn slot dropped" % inode)
            return None
        log = cls(fs, inode, head)
        log.committed = (tail_page, tail_off)
        return log

    def _adopt_page(self, thread, gaddr):
        """Initialise a (possibly recycled) page as a log page: its
        next-pointer must be durably zero before anything links to it."""
        dev, off = split_gaddr(gaddr)
        self.fs.devices[dev].ntstore(thread, off, 8, data=b"\x00" * 8)
        thread.sfence()

    def append(self, thread, entry_blob, page=None):
        """Durably append one encoded entry; returns its gaddr.

        The entry is written with non-temporal stores and fenced, then
        the in-page sequence continues; chaining a fresh log page links
        it before use (next-pointer persisted first, NOVA-style).  The
        entry only counts once :meth:`commit` has moved the tail past
        it, so one commit makes a multi-entry operation atomic.

        ``page`` is the ``(ns, addr, size)`` of the copy-on-write page
        a WriteEntry names: the entry's CRC does not cover the page's
        bytes, so the page must be durable before the entry is.
        """
        span = len(entry_blob)
        if span > PAGE - LOG_PAGE_HEADER:
            raise ValueError("entry larger than a log page")
        if self.tail_off + span > PAGE:
            self._grow(thread)
        dev, off = split_gaddr(self.tail_page)
        ns = self.fs.devices[dev]
        addr = off + self.tail_off
        pmcheck = thread.machine.pmcheck
        if pmcheck is not None:
            if page is not None:
                pmcheck.require_order(
                    [page], [(ns, addr, span)],
                    note="nova cow: a page must be durable before the "
                         "WriteEntry that names it")
            self.unpublished.append((ns, addr, span))
        ns.ntstore(thread, addr, span, data=entry_blob)
        thread.sfence()
        gaddr = self.tail_page + self.tail_off
        self.tail_off += span
        self.length += 1
        return gaddr

    def _grow(self, thread):
        """Chain a fresh log page onto the tail."""
        new_page = self.fs.policy.alloc_for(thread)
        self._adopt_page(thread, new_page)
        dev, off = split_gaddr(self.tail_page)
        ns = self.fs.devices[dev]
        pmcheck = thread.machine.pmcheck
        if pmcheck is not None:
            new_dev, new_off = split_gaddr(new_page)
            pmcheck.require_order(
                [(self.fs.devices[new_dev], new_off, 8)],
                [(ns, off, 8)],
                note="nova log grow: the fresh page's zeroed "
                     "next-pointer must be durable before the old "
                     "tail links to it")
        if self.tail_off <= PAGE - ENTRY_SIZE:
            # A recycled page still holds whatever it was last used
            # for: end this page's entries with a zero terminator so a
            # scan of an intact page never decodes the slack behind
            # them.
            ns.ntstore(thread, off + self.tail_off, ENTRY_SIZE,
                       data=_TERMINATOR)
        # Persist the next-pointer in the old tail's header (only after
        # the new page's own header is durably clean).
        ns.ntstore(thread, off, 8, data=struct.pack("<Q", new_page))
        thread.sfence()
        self.tail_page = new_page
        self.tail_off = LOG_PAGE_HEADER
        self.pages_seen.append(new_page)

    def scan_persistent(self, report):
        """Recovery: yield decoded entries from the persistent view, up
        to the committed tail (see :meth:`open_persistent`).

        Log pages are recycled without being wiped, so bytes behind the
        live entries may be CRC-valid entries from a page's previous
        life.  The scan therefore ends, quietly, at the committed tail
        (nothing past it was ever acknowledged) and leaves a non-tail
        page at the zero terminator ``_grow`` wrote behind its last
        entry: the ``END`` of this format's
        :func:`~repro.faults.model.scan_log` decode.

        As a side effect (recovery runs this on a fresh handle) the
        log's tail position and ``pages_seen`` are restored, so appends
        can resume and the allocator can re-reserve the chain's pages.

        Tolerates media faults: a torn tail entry truncates the log, a
        poisoned XPLine inside a page loses the entries it covers (the
        scan resyncs at the next 64 B-aligned intact entry, or ends the
        page at a readable terminator), and a poisoned next-pointer
        loses the rest of the chain.  A hole that swallows a page's
        terminator leaves the scan nothing to stop at, so stale entries
        behind it can still be replayed.  ``report`` (a
        :class:`~repro.faults.report.RecoveryReport`) collects the
        accounting.
        """
        tail_page, tail_off = self.committed
        page = self.head
        seen = set()
        self.pages_seen = []
        while page and page not in seen:
            seen.add(page)
            dev, off = split_gaddr(page)
            if dev >= len(self.fs.devices) or off % PAGE:
                break                      # corrupt chain pointer: stop
            self.pages_seen.append(page)
            raw, lost = tolerant_read(self.fs.devices[dev], off, PAGE)
            if page == tail_page:
                raw = raw[:tail_off]

            def decode(pos):
                got = decode_entry(raw, pos)
                if got is None and not any(raw[pos:pos + ENTRY_SIZE]) \
                        and not overlaps_lost(lost, pos, ENTRY_SIZE):
                    return END             # the page's entries end here
                return got

            entries, self.tail_off = scan_log(
                raw, lost, decode, report, start=LOG_PAGE_HEADER,
                align=CACHELINE, hole="log page %#x: hole" % page,
                torn="log page %#x: torn entry" % page)
            yield from entries
            self.tail_page = page
            if page == tail_page:
                break
            if any(lo + ll > 0 and lo < 8 for lo, ll in lost):
                report.lost += 1
                report.note("log page %#x: next-pointer unreadable, "
                            "chain abandoned" % page)
                break
            page = struct.unpack_from("<Q", raw, 0)[0]
