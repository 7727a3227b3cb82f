"""NOVA: a log-structured file system for persistent memory.

Per-inode logs hold metadata entries; file data lives in 4 KB pages
updated copy-on-write (the original NOVA), or — with ``datalog=True``
(the paper's NOVA-datalog, Section 5.1.2) — sub-page writes are
embedded directly into the log and merged into pages lazily, turning
random small writes into sequential appends without giving up atomic
file updates.

The volatile state (per-file page tables, embed overlays) is an index
rebuilt from the logs on recovery, exactly as NOVA rebuilds its DRAM
structures on mount.
"""

from repro.faults.report import RecoveryReport
from repro.fs.layout import (
    PAGE, AllocationPolicy, PageAllocator, split_gaddr,
)
from repro.fs.log import (
    EMBED_ENTRY, INODE_SLOT_SIZE, SIZE_ENTRY, WRITE_ENTRY, InodeLog,
    encode_embed_entry, encode_size_entry, encode_write_entry, slot_addr,
)

MAX_INODES = ((16 - 1) * PAGE) // INODE_SLOT_SIZE

#: syscall + VFS overhead for a kernel file system call.
SYSCALL_NS = 500.0

#: Compact a file's log once it accumulates this many entries.
CLEANER_THRESHOLD = 512


def _patched(piece, in_off, overlays):
    """``piece`` (page bytes from ``in_off``) with the intersecting part
    of each embedded extent applied, oldest first."""
    end = in_off + len(piece)
    buf = bytearray(piece)
    for ext_off, dlen, data in overlays:
        lo = max(ext_off, in_off)
        hi = min(ext_off + dlen, end)
        if lo < hi:
            buf[lo - in_off:hi - in_off] = data[lo - ext_off:hi - ext_off]
    return bytes(buf)


class NovaFile:
    """Volatile state of one open file."""

    __slots__ = ("inode", "log", "size", "pages", "overlays", "fs")

    def __init__(self, fs, inode, log):
        self.fs = fs
        self.inode = inode
        self.log = log
        self.size = 0
        self.pages = {}           # pgoff -> page gaddr
        self.overlays = {}        # pgoff -> live [(in_off, data_len, data)]

    def index_embed(self, pgoff, in_off, data):
        """Index an embedded extent, newest last, dropping every extent
        it fully covers: the index holds live extents only, so a re-put
        of a range replaces its predecessor and a page's list is bounded
        by the distinct ranges written, not by the writes.  Recovery
        replays the log through this same method and so rebuilds the
        same index."""
        end = in_off + len(data)
        extents = self.overlays.setdefault(pgoff, [])
        extents[:] = [ext for ext in extents
                      if ext[0] < in_off or ext[0] + ext[1] > end]
        extents.append((in_off, len(data), data))


class NovaFS:
    """The file system: create/write/read/recover over pmem devices."""

    def __init__(self, machine, kinds=("optane",), pinned=False,
                 datalog=False, pages_per_device=12288, _mount=False):
        self.machine = machine
        self.datalog = datalog
        self.devices = [machine.namespace(k) if isinstance(k, str) else k
                        for k in kinds]
        if len(self.devices) > 1 and not pinned:
            raise ValueError("multiple devices require the pinned policy")
        self.policy = AllocationPolicy(
            [PageAllocator(i, pages_per_device)
             for i in range(len(self.devices))],
            pinned=pinned)
        self._files = {}
        self._next_inode = 1
        self.quarantined = []           # poisoned pages kept from reuse
        self.recovery_report = None     # set by _recover()
        if _mount:
            self._recover()

    # -- file operations ---------------------------------------------------------

    def create(self, thread, name=None):
        """Create an empty file; returns its inode number."""
        inode = self._next_inode
        if inode >= MAX_INODES:
            raise RuntimeError("inode table full")
        self._next_inode += 1
        thread.sleep(SYSCALL_NS)
        head = self.policy.alloc_for(thread)
        log = InodeLog(self, inode, head, thread=thread)
        self._files[inode] = NovaFile(self, inode, log)
        log.commit(thread)
        return inode

    def write(self, thread, inode, offset, data, sync=True):
        """Atomic file write: COW pages, or embed entries for sub-page
        writes when datalog mode is on."""
        thread.sleep(SYSCALL_NS)
        f = self._files[inode]
        pos = 0
        while pos < len(data):
            pgoff = (offset + pos) // PAGE
            in_off = (offset + pos) % PAGE
            chunk = min(PAGE - in_off, len(data) - pos)
            piece = data[pos:pos + chunk]
            if self.datalog and chunk < PAGE:
                self._write_embed(thread, f, pgoff, in_off, piece)
            else:
                self._write_cow(thread, f, pgoff, in_off, piece)
            pos += chunk
        new_size = max(f.size, offset + len(data))
        f.size = new_size
        f.log.commit(thread, fence=sync)
        # A clean leaves one WriteEntry per page behind: only what lies
        # beyond those is reclaimable.
        if f.log.length - len(f.pages) >= CLEANER_THRESHOLD:
            self.clean(thread, inode)

    def _write_cow(self, thread, f, pgoff, in_off, piece):
        """Copy-on-write page update + a WriteEntry append."""
        new_page = self.policy.alloc_for(thread)
        dev, off = split_gaddr(new_page)
        ns = self.devices[dev]
        if in_off == 0 and len(piece) == PAGE:
            page_data = bytearray(piece)       # full overwrite: no read
        else:
            page_data = bytearray(self._page_contents(thread, f, pgoff))
            page_data[in_off:in_off + len(piece)] = piece
        ns.ntstore(thread, off, PAGE, data=bytes(page_data))
        thread.sfence()
        entry = encode_write_entry(pgoff, new_page,
                                   max(f.size, pgoff * PAGE + in_off
                                       + len(piece)))
        f.log.append(thread, entry, page=(ns, off, PAGE))
        old = f.pages.get(pgoff)
        f.pages[pgoff] = new_page
        f.overlays.pop(pgoff, None)
        if old is not None:
            f.log.retire(old)

    def _write_embed(self, thread, f, pgoff, in_off, piece):
        """NOVA-datalog: append the data itself to the log."""
        entry = encode_embed_entry(
            pgoff, in_off, bytes(piece),
            max(f.size, pgoff * PAGE + in_off + len(piece)))
        f.log.append(thread, entry)
        f.index_embed(pgoff, in_off, bytes(piece))

    def truncate(self, thread, inode, new_size):
        """Atomically set the file size (shrinking drops pages)."""
        thread.sleep(SYSCALL_NS)
        f = self._files[inode]
        if new_size >= f.size:
            f.size = new_size
            f.log.append(thread, encode_size_entry(new_size))
            f.log.commit(thread)
            return
        keep_pages = -(-new_size // PAGE) if new_size else 0
        tail = new_size % PAGE
        pgoff = keep_pages - 1
        if tail and (pgoff in f.pages or pgoff in f.overlays):
            # COW the final partial page with its tail zeroed.
            page = _patched(self._page_contents(thread, f, pgoff), 0,
                            f.overlays.get(pgoff, ()))
            self._write_cow(thread, f, pgoff, 0,
                            page[:tail] + bytes(PAGE - tail))
        for pgoff in [p for p in f.pages if p >= keep_pages]:
            f.log.retire(f.pages.pop(pgoff))
            f.overlays.pop(pgoff, None)
        for pgoff in [p for p in f.overlays if p >= keep_pages]:
            f.overlays.pop(pgoff)
        f.size = new_size
        f.log.append(thread, encode_size_entry(new_size))
        f.log.commit(thread)

    def unlink(self, thread, inode):
        """Delete a file: zero its inode slot, reclaim its pages."""
        thread.sleep(SYSCALL_NS)
        f = self._files.pop(inode)
        ns = self.devices[0]
        ns.ntstore(thread, slot_addr(inode), INODE_SLOT_SIZE,
                   data=b"\x00" * INODE_SLOT_SIZE)
        thread.sfence()
        for gaddr in (list(f.pages.values()) + f.log.retired
                      + f.log.chain_pages()):
            self.recycle(gaddr)

    def recycle(self, gaddr):
        """Hand a page nothing references back to the allocator.

        A page the media reports poisoned is quarantined instead: the
        allocator is LIFO, so it would be the next page written — blind,
        since stores do not scrub poison — and every later read of it
        would fail.
        """
        dev, off = split_gaddr(gaddr)
        faults = self.machine.faults
        if faults is not None \
                and faults.poisoned_ranges(self.devices[dev], off, PAGE):
            self.quarantined.append(gaddr)
        else:
            self.policy.free(gaddr)

    def read(self, thread, inode, offset, size):
        """Read up to EOF, copying out only the requested byte ranges.

        Like NOVA's DAX read, each touched page is loaded at cache-line
        grain over just the bytes asked for (a hole loads nothing).
        Embedded writes live in the DRAM index, so patching them in
        loads nothing either: it costs 40 ns of merge bookkeeping per
        extent indexed on the page.
        """
        thread.sleep(SYSCALL_NS)
        f = self._files[inode]
        size = min(size, f.size - offset)
        parts = []
        pos = 0
        while pos < size:
            pgoff, in_off = divmod(offset + pos, PAGE)
            chunk = min(PAGE - in_off, size - pos)
            piece = self._page_contents(thread, f, pgoff, in_off, chunk)
            overlays = f.overlays.get(pgoff)
            if overlays:
                piece = _patched(piece, in_off, overlays)
                thread.sleep(40.0 * len(overlays))
            parts.append(piece)
            pos += chunk
        return b"".join(parts)

    def _page_contents(self, thread, f, pgoff, in_off=0, length=PAGE):
        """Raw bytes of (a range of) one page (no overlays), loading
        from the device."""
        gaddr = f.pages.get(pgoff)
        if gaddr is None:
            return bytes(length)
        dev, off = split_gaddr(gaddr)
        return self.devices[dev].pread(thread, off + in_off, length)

    def mmap(self, thread, inode, pgoff=0):
        """DAX-map one page of a file; returns its global address.

        The paper: NOVA-datalog "must merge sub-page updates into the
        target page before memory-mapping" — a mapped page must be the
        authoritative copy, so pending embedded writes are folded into
        a fresh COW page first.
        """
        thread.sleep(SYSCALL_NS)
        f = self._files[inode]
        overlays = f.overlays.get(pgoff)
        if overlays:
            self._write_cow(thread, f, pgoff, 0, _patched(
                self._page_contents(thread, f, pgoff), 0, overlays))
        if pgoff not in f.pages:
            self._write_cow(thread, f, pgoff, 0, b"\x00" * PAGE)
        if f.log.uncommitted:
            # The mapping must survive a crash: stores through it land
            # in the COW page the entry just appended points at.
            f.log.commit(thread)
        return f.pages[pgoff]

    def stat_size(self, inode):
        return self._files[inode].size

    # -- log cleaning (see repro.fs.cleaner) -------------------------------------

    def clean(self, thread, inode):
        from repro.fs.cleaner import clean_file
        clean_file(self, thread, inode)

    # -- recovery ---------------------------------------------------------------------

    @classmethod
    def mount(cls, machine, kinds=("optane",), pinned=False, datalog=False,
              pages_per_device=12288):
        """Rebuild volatile state from the persistent logs."""
        return cls(machine, kinds=kinds, pinned=pinned, datalog=datalog,
                   pages_per_device=pages_per_device, _mount=True)

    def _recover(self):
        report = RecoveryReport(component="nova")
        for inode in range(1, MAX_INODES):
            log = InodeLog.open_persistent(self, inode, report)
            if log is None:
                continue
            f = NovaFile(self, inode, log)
            applied = 0
            for entry in log.scan_persistent(report=report):
                applied += 1
                if entry["type"] == WRITE_ENTRY:
                    f.pages[entry["pgoff"]] = entry["page_gaddr"]
                    f.overlays.pop(entry["pgoff"], None)
                elif entry["type"] == EMBED_ENTRY:
                    f.index_embed(entry["pgoff"], entry["in_off"],
                                  entry["data"])
                elif entry["type"] == SIZE_ENTRY:
                    keep = -(-entry["file_size"] // PAGE)
                    for pgoff in [p for p in f.pages if p >= keep]:
                        f.pages.pop(pgoff)
                    for pgoff in [p for p in f.overlays if p >= keep]:
                        f.overlays.pop(pgoff)
                # Entries are applied in append order, so the last
                # entry's size is authoritative (truncate support).
                f.size = entry["file_size"]
            log.length = applied
            self._files[inode] = f
            self._next_inode = max(self._next_inode, inode + 1)
            # Re-reserve every page the file owns so fresh allocations
            # cannot overwrite live data or log pages.
            for gaddr in list(f.pages.values()) + log.pages_seen:
                dev, _ = split_gaddr(gaddr)
                self.policy.allocators[dev].reserve(gaddr)
        self.recovery_report = report

    def read_persistent_file(self, inode, offset, size):
        """Post-crash file contents without simulated cost (test aid)."""
        f = self._files[inode]
        out = bytearray()
        pos = 0
        while pos < size:
            pgoff = (offset + pos) // PAGE
            in_off = (offset + pos) % PAGE
            chunk = min(PAGE - in_off, size - pos)
            gaddr = f.pages.get(pgoff)
            if gaddr is None:
                page = bytearray(PAGE)
            else:
                dev, off = split_gaddr(gaddr)
                page = bytearray(
                    self.devices[dev].read_persistent(off, PAGE))
            for o, dlen, data in f.overlays.get(pgoff, ()):
                page[o:o + dlen] = data
            out += page[in_off:in_off + chunk]
            pos += chunk
        return bytes(out[:max(0, min(size, f.size - offset))])
