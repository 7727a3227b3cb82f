"""The NOVA log cleaner, extended for datalog liveness (Section 5.1.2).

NOVA-datalog "requires small changes to the log cleaner to track the
liveness of embedded file data": an embed entry is dead once a later
COW write replaced its page or a later embed overwrote its byte range.
Cleaning a file merges all live embedded extents into fresh COW pages,
then rewrites the log as a compact chain of WriteEntries and atomically
switches the inode's log head to it.
"""

from repro.fs.layout import PAGE, split_gaddr
from repro.fs.log import InodeLog, encode_write_entry


def live_overlays(file):
    """Prune overlay lists to only the live (visible) extents."""
    pruned = {}
    for pgoff, extents in file.overlays.items():
        shadow = {}                         # byte -> extent index
        for idx, (in_off, dlen, _) in enumerate(extents):
            for b in range(in_off, in_off + dlen):
                shadow[b] = idx
        live_idx = sorted(set(shadow.values()))
        if live_idx:
            pruned[pgoff] = [extents[i] for i in live_idx]
    return pruned


def clean_file(fs, thread, inode):
    """Compact one file's log; returns the number of entries reclaimed."""
    f = fs._files[inode]
    old_length = f.log.length
    # 1. Merge live embedded data into fresh pages (COW semantics).
    for pgoff, extents in sorted(live_overlays(f).items()):
        page = bytearray(fs._page_contents(thread, f, pgoff))
        for in_off, dlen, data in extents:
            page[in_off:in_off + dlen] = data
        new_page = fs.policy.alloc_for(thread)
        dev, off = split_gaddr(new_page)
        fs.devices[dev].ntstore(thread, off, PAGE, data=bytes(page))
        thread.sfence()
        old = f.pages.get(pgoff)
        f.pages[pgoff] = new_page
        if old is not None:
            fs.policy.free(old)
    f.overlays.clear()
    # 2. Rewrite the log: one WriteEntry per live page.
    new_head = fs.policy.alloc_for(thread)
    new_log = InodeLog(fs, inode, new_head, thread=thread)
    for pgoff in sorted(f.pages):
        new_log.append(thread, encode_write_entry(
            pgoff, f.pages[pgoff], f.size))
    # 3. Atomic switch: persist the inode slot pointing at the new log,
    # then reclaim the old chain's pages.
    old_head = f.log.head
    f.log = new_log
    new_log.commit(thread)
    _reclaim_chain(fs, old_head)
    return old_length - new_log.length


def _reclaim_chain(fs, head):
    import struct
    page = head
    while page:
        dev, off = split_gaddr(page)
        raw = fs.devices[dev].read_volatile(off, 8)
        nxt = struct.unpack("<Q", raw)[0]
        fs.policy.free(page)
        page = nxt
