"""The NOVA log cleaner, extended for datalog liveness (Section 5.1.2).

NOVA-datalog "requires small changes to the log cleaner to track the
liveness of embedded file data": an embed entry is dead once a later
COW write replaced its page or a later embed overwrote its byte range.
The file's overlay index keeps exactly the live extents (see
:meth:`~repro.fs.nova.NovaFile.index_embed`), so cleaning a file merges
them into fresh COW pages, rewrites the log as a compact chain of
WriteEntries and atomically switches the inode's log head to it.

The new pages and the new chain are built aside: until the new log's
commit is durable the inode slot still names the old chain, which
still points at the old pages, so neither is touched.  The commit then
recycles both (:meth:`~repro.fs.log.InodeLog.retire`), and only after
it returns does the open file switch over — a clean that fails half
way (the allocator runs dry) leaves the file as it was.

A page the media will not give back cannot be folded.  The clean goes
around it: the page keeps its place in the new log and its live embeds
are appended again behind it, so the damage stays where the reader (and
the recovery report) will find it, and the writes that follow do not
each pay for — and fail on — a clean that can never finish.
"""

from repro.faults.model import MediaError
from repro.fs.layout import PAGE, split_gaddr
from repro.fs.log import InodeLog, encode_embed_entry, encode_write_entry
from repro.fs.nova import _patched


def clean_file(fs, thread, inode):
    """Compact one file's log; returns the number of entries reclaimed."""
    f = fs._files[inode]
    old_log = f.log
    pages = dict(f.pages)
    fresh = []                 # allocated here, unreferenced until commit
    folded = []                # replaced here, referenced until commit
    carried = {}               # unreadable pages keep their live embeds
    new_log = None
    try:
        # 1. Merge live embedded data into fresh pages (COW semantics).
        for pgoff, extents in sorted(f.overlays.items()):
            try:
                base = fs._page_contents(thread, f, pgoff)
            except MediaError:
                carried[pgoff] = extents
                continue
            page = _patched(base, 0, extents)
            new_page = fs.policy.alloc_for(thread)
            fresh.append(new_page)
            dev, off = split_gaddr(new_page)
            fs.devices[dev].ntstore(thread, off, PAGE, data=page)
            thread.sfence()
            if pgoff in pages:
                folded.append(pages[pgoff])
            pages[pgoff] = new_page
        # 2. Rewrite the log: one WriteEntry per live page, then the
        # embeds that could not be folded into theirs.
        new_log = InodeLog(fs, inode, fs.policy.alloc_for(thread),
                           thread=thread)
        for pgoff in sorted(pages):
            new_log.append(thread, encode_write_entry(
                pgoff, pages[pgoff], f.size))
        for pgoff, extents in sorted(carried.items()):
            for in_off, _, data in extents:
                new_log.append(thread, encode_embed_entry(
                    pgoff, in_off, data, f.size))
        # 3. Atomic switch: persist the inode slot pointing at the new
        # log; that commit recycles what only the old log referenced.
        for gaddr in old_log.retired + folded + old_log.chain_pages():
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
