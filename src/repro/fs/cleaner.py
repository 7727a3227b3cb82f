"""The NOVA log cleaner, extended for datalog liveness (Section 5.1.2).

NOVA-datalog "requires small changes to the log cleaner to track the
liveness of embedded file data": an embed entry is dead once a later
COW write replaced its page or a later embed overwrote its byte range.
The file's overlay index keeps exactly the live extents (see
:meth:`~repro.fs.nova.NovaFile.index_embed`), so cleaning a file folds
them into their pages, rewrites the log as a compact chain of
WriteEntries and atomically switches the inode's log head to it.

Each live extent is written into its page in place, oldest first (the
order a read patches them in): the log record is a redo record for the
page it patches, so nothing is read, copied or allocated for the page.
Until the new log's commit is durable the inode slot still names the
old chain — WriteEntry to that page, then the embeds — and replaying it
over a page holding any prefix of the folded bytes gives the same file,
because those bytes are exactly what the embeds carry, in replay order.
The new chain's first fence drains the folded lines before the commit,
which then recycles the old chain (:meth:`~repro.fs.log.InodeLog.retire`);
only after it returns does the open file switch over — a clean that
fails half way (the allocator runs dry) leaves the file as it was.
Embeds over a hole have no page to fold into and go to a fresh one.

A page with a known-poisoned XPLine is not folded.  The clean goes
around it: the page keeps its place in the new log and its live embeds
are appended again behind it, so the damage stays where the reader (and
the recovery report) will find it, and the writes that follow do not
each pay for — and fail on — a clean that can never finish.
"""

from repro.fs.layout import PAGE, split_gaddr
from repro.fs.log import (
    EMBED_ENTRY, INODE_SLOT_SIZE, WRITE_ENTRY, InodeLog, encode_entry,
    slot_addr,
)
from repro.fs.nova import _patched


def clean_file(fs, thread, inode):
    """Compact one file's log; returns the number of entries reclaimed."""
    f = fs._files[inode]
    old_log = f.log
    pages = dict(f.pages)
    faults = fs.machine.faults
    fresh = []                 # allocated here, unreferenced until commit
    folded = []                # (ns, addr, size) patched in place
    carried = {}               # poisoned pages keep their live embeds
    new_log = None
    try:
        # 1. Fold live embedded data into its page: in place over a
        # base page, into a fresh page over a hole.
        for pgoff, extents in sorted(f.overlays.items()):
            if pgoff not in pages:
                pages[pgoff] = new_page = fs.policy.alloc_for(thread)
                fresh.append(new_page)
                dev, off = split_gaddr(new_page)
                fs.devices[dev].ntstore(thread, off, PAGE, data=_patched(
                    bytes(PAGE), 0, extents))
                thread.sfence()
                continue
            dev, off = split_gaddr(pages[pgoff])
            ns = fs.devices[dev]
            if faults is not None and faults.poisoned_ranges(ns, off, PAGE):
                carried[pgoff] = extents
                continue
            for in_off, dlen, data in extents:
                ns.ntstore(thread, off + in_off, dlen, data=data)
                folded.append((ns, off + in_off, dlen))
        # 2. Rewrite the log: one WriteEntry per live page, then the
        # embeds that could not be folded into theirs.  The new chain's
        # first fence drains the folded lines.
        new_log = InodeLog(fs, inode, fs.policy.alloc_for(thread),
                           thread=thread)
        for pgoff in sorted(pages):
            new_log.append(thread, encode_entry(
                WRITE_ENTRY, f.size, pgoff, page_gaddr=pages[pgoff]))
        for pgoff, extents in sorted(carried.items()):
            for in_off, _, data in extents:
                new_log.append(thread, encode_entry(
                    EMBED_ENTRY, f.size, pgoff, in_off=in_off, data=data))
        # 3. Atomic switch: persist the inode slot pointing at the new
        # log; that commit recycles what only the old log referenced.
        pmcheck = fs.machine.pmcheck
        if pmcheck is not None:
            pmcheck.require_order(
                folded, [(fs.devices[0], slot_addr(inode), INODE_SLOT_SIZE)],
                note="nova clean: the folded lines must be durable before "
                     "the inode slot drops the embeds that carry them")
        for gaddr in old_log.retired + old_log.chain_pages():
            new_log.retire(gaddr)
        new_log.commit(thread)
    except BaseException:
        if new_log is not None:
            fresh += new_log.chain_pages()
        for gaddr in fresh:
            fs.policy.free(gaddr)
        raise
    f.pages = pages
    f.overlays = carried
    f.log = new_log
    return old_log.length - new_log.length
