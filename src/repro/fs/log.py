"""Per-inode logs: entry formats, appends, scanning (NOVA's core).

A log is a chain of 4 KB log pages; each page begins with a 64-byte
header, ``next u64 | end u32``: the gaddr of the next page (0 = none)
and the offset where this page's entries end.  Entries are multiples
of 64 bytes, one format for every kind (:func:`encode_entry`): a 64 B
header line, then any inline data padded to whole lines::

    crc u32 | type u8 | pad u8 | dlen u16 | pgoff u32 | page_gaddr u64 |
    file_size u64 | in_page_off u16 | pad u16 | ... | data

* **WriteEntry** — a copy-on-write file write: "page ``pgoff`` of the
  file now lives at ``page_gaddr``; file size is now N".
* **SizeEntry** — a truncate: the file size, authoritatively.
* **EmbedWriteEntry** — the NOVA-datalog optimisation (Figure 11): a
  sub-page write whose ``dlen`` bytes of data are embedded in the log
  itself, turning a random small write into a sequential append.

A write or size entry is an entry with no inline data.  The CRC
(:mod:`repro.faults.codec`, plain) seals the 28 header bytes behind it
and the data, so recovery can detect torn appends.

The log's root is the inode's slot in the inode table, the sealed
``crc u32 | log_head u64 | tail_page u64 | tail_off u32``: the head of
the chain plus the tail position.  An append is acknowledged only once
:meth:`InodeLog.commit` has persisted the tail behind it, and recovery
(:meth:`InodeLog.open_persistent` + :meth:`InodeLog.scan_persistent`)
replays the chain up to that committed tail and no further.  Both
halves of that rule live here.
Pages are read back by :func:`~repro.faults.model.scan_log` at 64 B
alignment, each up to its end: the committed tail on the tail page, the
header's ``end`` on every other.
"""

import functools
import struct
import weakref

from repro._units import CACHELINE, align_up
from repro.faults.codec import CRC_SIZE, check, seal
from repro.faults.model import MediaError, scan_log, tolerant_read
from repro.fs.layout import INODE_TABLE_PAGE, PAGE, split_gaddr

LOG_PAGE_HEADER = 64

#: log page header: next page gaddr u64 | end of this page's entries u32
#: (one store, inside one 64 B chunk, so a tear cannot split it)
_PAGE_LINK = struct.Struct("<QI")

WRITE_ENTRY = 1
EMBED_ENTRY = 2
SIZE_ENTRY = 3          # truncate / explicit size change

#: the sealed entry header, after its crc
_FIELDS = struct.Struct("<BBHIQQHH")
_HEAD = CRC_SIZE + _FIELDS.size
ENTRY_SIZE = 64

#: the sealed inode-table slot, after its crc
_SLOT = struct.Struct("<QQI")
INODE_SLOT_SIZE = 64


def slot_addr(inode):
    """Device-0 address of an inode's slot in the inode table."""
    return INODE_TABLE_PAGE * PAGE + inode * INODE_SLOT_SIZE


def encode_entry(etype, file_size, pgoff=0, page_gaddr=0, in_off=0,
                 data=b""):
    """One log entry: the header line, then ``data`` padded to lines."""
    if len(data) >= PAGE:
        raise ValueError("embed entries are for sub-page writes")
    sealed = seal(_FIELDS.pack(etype, 0, len(data), pgoff, page_gaddr,
                               file_size, in_off, 0) + data)
    return (sealed[:_HEAD].ljust(ENTRY_SIZE, b"\x00")
            + sealed[_HEAD:].ljust(align_up(len(data), CACHELINE), b"\x00"))


def decode_entry(buf, offset):
    """Decode the entry at ``offset``; returns (dict, next_offset) or None."""
    if offset + ENTRY_SIZE > len(buf):
        return None
    dlen = _FIELDS.unpack_from(buf, offset + CRC_SIZE)[2]
    # The sealed span: the header, then the data behind the header line.
    at = offset + ENTRY_SIZE
    body = check(bytes(buf[offset:offset + _HEAD])
                 + bytes(buf[at:at + dlen]), 0, _HEAD + dlen)
    if body is None:
        return None
    etype, _, _, pgoff, page_gaddr, file_size, in_off, _ = \
        _FIELDS.unpack_from(body)
    return ({"type": etype, "pgoff": pgoff, "page_gaddr": page_gaddr,
             "file_size": file_size, "in_off": in_off,
             "data": body[_FIELDS.size:]}, at + align_up(dlen, CACHELINE))


class InodeLog:
    """The volatile handle onto one inode's persistent log chain."""

    def __init__(self, fs, inode, head_gaddr, thread=None):
        # The file system owns its logs (through its open files); a log
        # reaches back weakly, so the pair forms no reference cycle.
        self._fs = weakref.ref(fs)
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
        blob = seal(_SLOT.pack(self.head, self.tail_page, self.tail_off))
        fs = self._fs()
        ns, addr = fs.devices[0], slot_addr(self.inode)
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
            fs.recycle(gaddr)
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
        fields = check(raw, 0, CRC_SIZE + _SLOT.size)
        if fields is None:
            if any(raw):
                # Non-empty slot failing its CRC = torn inode commit:
                # expected crash semantics (slots are overwritten in
                # place, so a torn slot drops the file).
                report.truncated += 1
                report.note("inode %d: torn slot dropped" % inode)
            return None
        head, tail_page, tail_off = _SLOT.unpack(fields)
        log = cls(fs, inode, head)
        log.committed = (tail_page, tail_off)
        return log

    def _adopt_page(self, thread, gaddr):
        """Initialise a (possibly recycled) page as a log page: its
        link must be durably zero before anything links to it."""
        dev, off = split_gaddr(gaddr)
        self._fs().devices[dev].ntstore(thread, off, _PAGE_LINK.size,
                                        data=bytes(_PAGE_LINK.size))
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
        ns = self._fs().devices[dev]
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
        fs = self._fs()
        devices = fs.devices
        new_page = fs.policy.alloc_for(thread)
        self._adopt_page(thread, new_page)
        dev, off = split_gaddr(self.tail_page)
        ns = devices[dev]
        pmcheck = thread.machine.pmcheck
        if pmcheck is not None:
            new_dev, new_off = split_gaddr(new_page)
            pmcheck.require_order(
                [(devices[new_dev], new_off, _PAGE_LINK.size)],
                [(ns, off, _PAGE_LINK.size)],
                note="nova log grow: the fresh page's zeroed "
                     "link must be durable before the old "
                     "tail links to it")
        # One store links the old tail to the new page and records where
        # its entries end (only once the new page's own header is
        # durably clean): a recycled page still holds whatever it was
        # last used for, and recovery must not decode the slack behind
        # the last entry.
        ns.ntstore(thread, off, _PAGE_LINK.size,
                   data=_PAGE_LINK.pack(new_page, self.tail_off))
        thread.sfence()
        self.tail_page = new_page
        self.tail_off = LOG_PAGE_HEADER
        self.pages_seen.append(new_page)

    def scan_persistent(self, report):
        """Recovery: yield decoded entries from the persistent view, up
        to the committed tail (see :meth:`open_persistent`).

        Log pages are recycled without being wiped, so bytes behind the
        live entries may be CRC-valid entries from a page's previous
        life.  Each page is therefore scanned only up to its end: the
        committed tail on the tail page (nothing past it was ever
        acknowledged), and on every other page the ``end`` that
        ``_grow`` stored in its header together with the next-pointer.

        As a side effect (recovery runs this on a fresh handle) the
        log's tail position and ``pages_seen`` are restored, so appends
        can resume and the allocator can re-reserve the chain's pages.

        Tolerates media faults: a torn tail entry truncates the log, a
        poisoned XPLine inside a page loses the entries it covers (the
        scan resyncs at the next 64 B-aligned intact entry before the
        page's end), and an unreadable header on a non-tail page hides
        both where its entries end and where the chain goes on, so none
        of that page's entries are replayed and the rest of the chain
        is lost.  ``report`` (a
        :class:`~repro.faults.report.RecoveryReport`) collects the
        accounting.
        """
        devices = self._fs().devices
        tail_page, tail_off = self.committed
        page = self.head
        seen = set()
        self.pages_seen = []
        while page and page not in seen:
            seen.add(page)
            dev, off = split_gaddr(page)
            if dev >= len(devices) or off % PAGE:
                break                      # corrupt chain pointer: stop
            self.pages_seen.append(page)
            raw, lost = tolerant_read(devices[dev], off, PAGE)
            # Short only for a page never written: zero-fill it (a
            # log page is too small to be worth clipping).
            raw = raw.ljust(PAGE, b"\0")
            if page == tail_page:
                nxt, end = 0, tail_off
            elif any(lo < _PAGE_LINK.size for lo, _ in lost):
                report.lost += 1
                report.note("log page %#x: header unreadable, chain "
                            "abandoned" % page)
                break
            else:
                nxt, end = _PAGE_LINK.unpack_from(raw)
            raw = raw[:end]
            entries, self.tail_off = scan_log(
                raw, lost, functools.partial(decode_entry, raw), report,
                start=LOG_PAGE_HEADER, align=CACHELINE,
                hole="log page %#x: hole" % page,
                torn="log page %#x: torn entry" % page)
            yield from entries
            self.tail_page = page
            page = nxt
