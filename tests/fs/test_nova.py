"""Unit, integration and crash tests for the NOVA file system."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import (
    FaultController, MediaError, SimulatedPowerFailure,
)
from repro.fs import DAXFileSystem, NovaFS, PAGE
from repro.fs.layout import (
    AllocationPolicy, PageAllocator, make_gaddr, split_gaddr,
)
from repro.fs.log import (
    EMBED_ENTRY, WRITE_ENTRY, decode_entry, encode_entry,
)
from repro.fs.nova import CLEANER_THRESHOLD
from repro.pmcheck import checking
from repro.pmcheck.state import V_ACK_BEFORE_FENCE, V_UNORDERED
from repro.sim import Machine
from repro.sim.engine import ThreadCtx


class TestLayout:
    def test_gaddr_roundtrip(self):
        g = make_gaddr(3, 0x1234)
        assert split_gaddr(g) == (3, 0x1234)

    def test_allocator_hands_out_distinct_pages(self):
        a = PageAllocator(0, 100)
        pages = {a.alloc() for _ in range(50)}
        assert len(pages) == 50

    def test_allocator_reuses_freed_pages(self):
        a = PageAllocator(0, 100)
        g = a.alloc()
        a.free(g)
        assert a.alloc() == g

    def test_allocator_exhaustion(self):
        a = PageAllocator(0, 18)
        for _ in range(2):
            a.alloc()
        with pytest.raises(RuntimeError):
            a.alloc()

    def test_pinned_policy_keys_on_thread(self):
        m = Machine()
        allocs = [PageAllocator(i, 64) for i in range(6)]
        policy = AllocationPolicy(allocs, pinned=True)
        t0, t6 = m.thread(), None
        for _ in range(5):
            t6 = m.thread()
        g0 = policy.alloc_for(t0)
        g6 = policy.alloc_for(t6)
        assert split_gaddr(g0)[0] == t0.tid % 6
        assert split_gaddr(g6)[0] == t6.tid % 6


class TestLogEntries:
    def test_write_entry_roundtrip(self):
        blob = encode_entry(WRITE_ENTRY, 12345, 5,
                            page_gaddr=make_gaddr(1, PAGE))
        entry, nxt = decode_entry(blob, 0)
        assert entry["type"] == 1
        assert entry["pgoff"] == 5
        assert entry["file_size"] == 12345
        assert nxt == 64

    def test_embed_entry_roundtrip(self):
        blob = encode_entry(EMBED_ENTRY, 4196, 2, in_off=100,
                            data=b"hello world")
        entry, nxt = decode_entry(blob, 0)
        assert entry["type"] == 2
        assert entry["in_off"] == 100
        assert entry["data"] == b"hello world"
        assert nxt == 64 + 64

    def test_torn_entry_rejected(self):
        blob = bytearray(encode_entry(WRITE_ENTRY, 100, 5, page_gaddr=64))
        blob[12] ^= 0x1                     # page_gaddr's low byte
        assert decode_entry(bytes(blob), 0) is None

    def test_oversized_embed_rejected(self):
        with pytest.raises(ValueError):
            encode_entry(EMBED_ENTRY, PAGE, data=b"x" * PAGE)


class TestNovaFunctional:
    def setup_method(self):
        self.m = Machine()
        self.t = self.m.thread()

    def test_write_read_roundtrip(self):
        fs = NovaFS(self.m)
        inode = fs.create(self.t)
        fs.write(self.t, inode, 0, b"hello persistent world")
        assert fs.read(self.t, inode, 0, 22) == b"hello persistent world"

    def test_sparse_read_is_zero(self):
        fs = NovaFS(self.m)
        inode = fs.create(self.t)
        fs.write(self.t, inode, 2 * PAGE, b"far")
        assert fs.read(self.t, inode, 0, 4) == b"\x00" * 4

    def test_overwrite_within_page(self):
        fs = NovaFS(self.m)
        inode = fs.create(self.t)
        fs.write(self.t, inode, 0, b"A" * PAGE)
        fs.write(self.t, inode, 10, b"BBB")
        got = fs.read(self.t, inode, 8, 8)
        assert got == b"AABBBAAA"

    def test_datalog_overwrite(self):
        fs = NovaFS(self.m, datalog=True)
        inode = fs.create(self.t)
        fs.write(self.t, inode, 0, b"A" * PAGE)
        fs.write(self.t, inode, 100, b"XYZ")
        assert fs.read(self.t, inode, 99, 5) == b"AXYZA"

    def test_datalog_many_overlapping_embeds(self):
        fs = NovaFS(self.m, datalog=True)
        inode = fs.create(self.t)
        fs.write(self.t, inode, 0, b"A" * PAGE)
        for i in range(10):
            fs.write(self.t, inode, 50 + i, bytes([0x30 + i]))
        assert fs.read(self.t, inode, 50, 10) == b"0123456789"

    def test_size_tracking(self):
        fs = NovaFS(self.m)
        inode = fs.create(self.t)
        fs.write(self.t, inode, 100, b"abc")
        assert fs.stat_size(inode) == 103

    def test_multiple_files_isolated(self):
        fs = NovaFS(self.m)
        a = fs.create(self.t)
        b = fs.create(self.t)
        fs.write(self.t, a, 0, b"AAAA")
        fs.write(self.t, b, 0, b"BBBB")
        assert fs.read(self.t, a, 0, 4) == b"AAAA"
        assert fs.read(self.t, b, 0, 4) == b"BBBB"

    @given(st.lists(st.tuples(st.integers(0, 3 * PAGE),
                              st.binary(min_size=1, max_size=300)),
                    min_size=1, max_size=12),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_matches_shadow_file(self, writes, datalog):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=datalog)
        inode = fs.create(t)
        shadow = bytearray(4 * PAGE)
        size = 0
        for offset, data in writes:
            fs.write(t, inode, offset, data)
            shadow[offset:offset + len(data)] = data
            size = max(size, offset + len(data))
        assert fs.read(t, inode, 0, size) == bytes(shadow[:size])


class TestNovaCrash:
    def test_synced_writes_survive(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"Z" * PAGE)
        fs.write(t, inode, 77, b"embedded")
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        assert fs2.read_persistent_file(inode, 77, 8) == b"embedded"
        assert fs2.stat_size(inode) == PAGE

    def test_crash_preserves_old_or_new_never_torn(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"1" * PAGE)
        fs.write(t, inode, 0, b"2" * PAGE)     # atomic COW replace
        m.power_fail()
        fs2 = NovaFS.mount(m)
        content = fs2.read_persistent_file(inode, 0, PAGE)
        assert content in (b"1" * PAGE, b"2" * PAGE)

    def test_mount_recovers_many_files(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inodes = []
        for i in range(8):
            inode = fs.create(t)
            fs.write(t, inode, 0, bytes([0x41 + i]) * 128)
            inodes.append(inode)
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        for i, inode in enumerate(inodes):
            assert fs2.read_persistent_file(inode, 0, 128) == \
                bytes([0x41 + i]) * 128


class TestEveryLogFenceIsLoadBearing:
    """Skip exactly one ``sfence`` of a NOVA-datalog file's life: an
    embedded write, a copy-on-write page, then an embed that grows the
    log onto a second page."""

    #: The function issuing each fence, in order.
    SITES = ["_adopt_page", "commit",                      # create
             "append", "commit",                           # embed
             "_write_cow", "append", "commit",             # cow page
             "_adopt_page", "_grow", "append", "commit"]   # embed + grow

    @pytest.mark.parametrize("skip, kind, note", [
        (None, None, None),
        # create's head-page fence is redundant: the head is the tail
        # page until a grow rewrites its whole header, recovery never
        # reads the tail page's header, and create's commit fence
        # follows before the ack.  No declared order covers it, so
        # nothing may be flagged.  It stays, like grow-link's: deleting
        # it makes every create cheaper (680 -> 592 simulated ns).
        (1, None, None),
        (2, V_ACK_BEFORE_FENCE, None),          # create's commit
        (3, V_UNORDERED, "nova commit"),        # append: entry -> slot
        (4, V_ACK_BEFORE_FENCE, None),          # commit
        (5, V_UNORDERED, "nova cow"),           # cow page -> its entry
        (8, V_UNORDERED, "nova log grow"),      # adopt: header -> link
        # _grow's link fence is redundant: append's own fence follows
        # before any commit can name the new page, so the skip is safe
        # and nothing may be flagged.  It stays because deleting it
        # moves Fig 17's interleaved write rows (4.0 -> 3.9, 3.8 -> 3.7)
        # and its average NI gain (37.0 % -> 39.5 %, paper 17 %).
        (9, None, None),
    ], ids=["none", "create-adopt", "create-commit", "append", "commit",
            "cow-page", "adopt", "grow-link"])
    def test_skipped_fence_is_caught(self, monkeypatch, skip, kind, note):
        m = Machine()
        fs = NovaFS(m, datalog=True)
        t = m.thread()
        real = ThreadCtx.sfence
        sites = []

        def sfence(thread):
            sites.append(sys._getframe(1).f_code.co_name)
            if len(sites) != skip:
                real(thread)

        with checking(m) as checker:
            monkeypatch.setattr(ThreadCtx, "sfence", sfence)
            checker.op_begin(t, "create")
            inode = fs.create(t)
            checker.op_ack(t)
            for offset, data in ((0, b"A" * 3000), (PAGE, b"B" * PAGE),
                                 (100, b"C" * 1000)):
                checker.op_begin(t, "write")
                fs.write(t, inode, offset, data)
                checker.op_ack(t)
            monkeypatch.undo()
            violations = checker.summary()["violations"]
        if kind is None:
            assert violations == []
        else:
            assert any(v["kind"] == kind
                       and (note is None or v["note"].startswith(note))
                       for v in violations), violations
        assert sites == self.SITES


class TestCleaner:
    def test_clean_compacts_log(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"A" * PAGE)
        for i in range(100):
            fs.write(t, inode, (i * 7) % PAGE, b"x")
        before = fs._files[inode].log.length
        fs.clean(t, inode)
        after = fs._files[inode].log.length
        assert after < before

    def test_clean_preserves_contents(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"A" * PAGE)
        fs.write(t, inode, 10, b"BC")
        fs.clean(t, inode)
        assert fs.read(t, inode, 9, 4) == b"ABCA"
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        assert fs2.read_persistent_file(inode, 9, 4) == b"ABCA"

    def test_cleaner_reclaims_log_pages(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"A" * PAGE)
        for i in range(300):
            fs.write(t, inode, (i * 13) % PAGE, b"y")
        free_before = fs.policy.allocators[0].free_pages
        fs.clean(t, inode)
        assert fs.policy.allocators[0].free_pages >= free_before

    # -- a page is recycled only after the commit that stops
    # referencing it (the allocator is LIFO: freed on the spot, it is
    # the next page handed out and overwritten) ---------------------------

    SLOT = 128

    def _slotted_file(self, datalog=True, pages=3):
        """A file of ``pages`` distinct pages, every 128 B slot of it
        re-written by an embed; returns (machine, thread, fs, inode,
        model bytes)."""
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=datalog)
        inode = fs.create(t)
        model = bytearray()
        for pgoff in range(pages):
            model += bytes([0x41 + pgoff]) * PAGE
        fs.write(t, inode, 0, bytes(model))
        if datalog:
            for slot in range(pages * PAGE // self.SLOT):
                data = bytes([0x61 + slot % 26]) * 100
                fs.write(t, inode, slot * self.SLOT, data)
                model[slot * self.SLOT:slot * self.SLOT + 100] = data
        return m, t, fs, inode, bytes(model)

    def _crash_everywhere(self, operation, datalog):
        """Run ``operation(fs, thread, inode)`` once per persist boundary
        it has, cutting the power there; yields what ``mount`` reads
        back next to the contents acknowledged before the operation."""
        m, t, fs, inode, model = self._slotted_file(datalog)
        counter = FaultController(m)
        operation(fs, t, inode)
        assert counter.persists > 2 * PAGE // 64
        for crash_at in range(1, counter.persists + 1):
            m, t, fs, inode, model = self._slotted_file(datalog)
            fc = FaultController(m, crash_at=crash_at)
            with pytest.raises(SimulatedPowerFailure):
                operation(fs, t, inode)
            fc.crash_at = None
            m.power_fail()
            fs2 = NovaFS.mount(m, datalog=datalog)
            yield fs2.read_persistent_file(inode, 0, len(model)), model

    def test_crash_at_every_persist_of_a_clean(self):
        # A clean changes no byte of the file, so whichever log the
        # crash leaves in charge must still read back all of it.
        for got, model in self._crash_everywhere(
                lambda fs, t, inode: fs.clean(t, inode), datalog=True):
            assert got == model

    def _overlapping_file(self):
        """Two pages and a hole under embeds that cover each other in
        whole and in part; returns (machine, thread, fs, inode, model
        bytes)."""
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"P" * (2 * PAGE))
        model = bytearray(b"P" * (2 * PAGE) + bytes(PAGE))
        rng = random.Random(5)
        for i in range(16):
            offset = rng.randrange(3) * PAGE + rng.randrange(400)
            data = bytes([0x61 + i]) * rng.randrange(1, 200)
            fs.write(t, inode, offset, data)
            model[offset:offset + len(data)] = data
        return m, t, fs, inode, bytes(model[:fs.stat_size(inode)])

    @pytest.mark.parametrize("tear_keep", [None, 1])
    def test_torn_crash_at_every_persist_of_an_in_place_fold(self,
                                                             tear_keep):
        # Until the commit the old log rules, and replaying its embeds
        # over a page that holds any prefix of the folded bytes, torn
        # XPLine or not, gives the same file.
        m, t, fs, inode, model = self._overlapping_file()
        extents = fs._files[inode].overlays
        assert 2 in extents and 2 not in fs._files[inode].pages
        assert any(a[0] < b[0] < a[0] + a[1] < b[0] + b[1]
                   for page in extents.values()
                   for a in page for b in page)
        counter = FaultController(m)
        fs.clean(t, inode)
        for crash_at in range(1, counter.persists + 1):
            m, t, fs, inode, model = self._overlapping_file()
            fc = FaultController(m, seed=crash_at, tear=True,
                                 tear_keep=tear_keep, crash_at=crash_at)
            with pytest.raises(SimulatedPowerFailure):
                fs.clean(t, inode)
            fc.crash_at = None
            m.power_fail()
            fs2 = NovaFS.mount(m, datalog=True)
            assert fs2.read_persistent_file(inode, 0, len(model)) == model

    def test_clean_folds_in_place_without_a_load(self, monkeypatch):
        # Every page exists, so each live extent is written into its
        # page: the clean loads nothing and allocates only the new chain.
        m, t, fs, inode, model = self._slotted_file()
        f = fs._files[inode]
        pages = dict(f.pages)
        alloc_for = fs.policy.alloc_for
        handed_out = []

        def counted(thread):
            handed_out.append(alloc_for(thread))
            return handed_out[-1]
        monkeypatch.setattr(fs.policy, "alloc_for", counted)
        before = t.bytes_read
        fs.clean(t, inode)
        assert t.bytes_read == before
        assert handed_out == f.log.chain_pages()
        assert f.pages == pages and not f.overlays
        assert fs.read(t, inode, 0, len(model)) == model

    @pytest.mark.parametrize("skip", [(), (1, 2, 3, 4)],
                             ids=["none", "fold-to-commit"])
    def test_a_fence_orders_the_fold_before_the_commit(self, monkeypatch,
                                                        skip):
        # The sim persists in program order, so only the checker sees
        # the folded lines land in the commit's own fence.
        m, t, fs, inode, model = self._slotted_file()
        real = ThreadCtx.sfence
        fences = []

        def sfence(thread):
            fences.append(thread)
            if len(fences) not in skip:
                real(thread)

        with checking(m) as checker:
            monkeypatch.setattr(ThreadCtx, "sfence", sfence)
            fs.clean(t, inode)
            monkeypatch.undo()
            violations = checker.summary()["violations"]
        assert len(fences) == 5       # new head, three WriteEntries, commit
        if not skip:
            assert violations == []
            return
        assert any(v["kind"] == V_UNORDERED
                   and v["note"].startswith("nova clean")
                   for v in violations), violations

    def test_crash_at_every_persist_of_a_two_page_cow_write(self):
        new = b"N" * (2 * PAGE)
        for got, model in self._crash_everywhere(
                lambda fs, t, inode: fs.write(t, inode, 0, new),
                datalog=False):
            assert got in (model, new + model[2 * PAGE:])

    def test_failure_mid_clean_leaves_the_file_as_it_was(self, monkeypatch):
        m, t, fs, inode, model = self._slotted_file()
        f = fs._files[inode]
        pages, log, overlays, free = dict(f.pages), f.log, \
            dict(f.overlays), fs.policy.allocators[0].free_pages

        def runs_dry(thread):
            raise RuntimeError("out of pages")
        monkeypatch.setattr(fs.policy, "alloc_for", runs_dry)
        with pytest.raises(RuntimeError):
            fs.clean(t, inode)     # every page folded, then the new head
        monkeypatch.undo()
        assert (f.pages, f.log, f.overlays) == (pages, log, overlays)
        assert fs.policy.allocators[0].free_pages == free
        assert fs.read(t, inode, 0, len(model)) == model
        # The next clean folds the same bytes again; the crash after it
        # must find every page where the committed log says.
        fs.clean(t, inode)
        assert not f.overlays
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        assert fs2.read_persistent_file(inode, 0, len(model)) == model

    def test_clean_goes_around_a_page_it_cannot_read(self):
        m, t, fs, inode, model = self._slotted_file()
        fc = FaultController(m)
        f = fs._files[inode]
        dead = f.pages[1]
        dev, off = split_gaddr(dead)
        fc.poison(fs.devices[dev], off + 512, 1)
        live = list(f.overlays[1])
        fs.clean(t, inode)                    # page 1 is known poisoned
        # Pages 0 and 2 are folded; page 1 stays put, its live embeds
        # re-appended behind the three WriteEntries.
        assert f.pages[1] == dead and f.overlays == {1: live}
        assert f.log.length == len(f.pages) + len(live)
        assert fs.read(t, inode, 0, PAGE) == model[:PAGE]
        assert fs.read(t, inode, 2 * PAGE, PAGE) == model[2 * PAGE:]
        with pytest.raises(MediaError):
            fs.read(t, inode, PAGE + 512, self.SLOT)
        # Nothing left to reclaim, and nothing to fail on: the writes
        # that follow do not each re-run (and pay for) a doomed clean.
        fs.clean(t, inode)
        assert f.pages[1] == dead and f.overlays == {1: live}
        assert f.log.length == len(f.pages) + len(live)
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        f2 = fs2._files[inode]
        assert (f2.pages, f2.overlays) == (f.pages, f.overlays)
        # A full-page write replaces the dead page; the crash after it
        # must still find pages 0 and 2 where the committed log says.
        t2 = m.thread()
        fs2.write(t2, inode, PAGE, b"R" * PAGE)
        assert fs2.quarantined == [dead]
        model = model[:PAGE] + b"R" * PAGE + model[2 * PAGE:]
        m.power_fail()
        fs3 = NovaFS.mount(m, datalog=True)
        assert fs3.read_persistent_file(inode, 0, len(model)) == model
        # The write that replaced the dead page quarantined it, but a
        # mount rebuilds the allocator from the logs alone: scrub it as
        # the repair would before it can be handed out again.
        fc.clear_poison(fs.devices[dev], off + 512, 1)
        fs3.clean(m.thread(), inode)
        assert not fs3._files[inode].overlays
        m.power_fail()
        fs4 = NovaFS.mount(m, datalog=True)
        assert fs4.read_persistent_file(inode, 0, len(model)) == model
        assert fs4.recovery_report.truncated == 0
        assert fs4.recovery_report.lost == 0


    # -- a retired page the media reports poisoned is quarantined, not
    # recycled: stores do not scrub poison, so the next file to get it
    # would write blind and fail every read -------------------------------

    def test_cow_write_quarantines_a_poisoned_page(self):
        m = Machine()
        fc = FaultController(m)
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"a" * PAGE)
        dead = fs._files[inode].pages[0]
        dev, off = split_gaddr(dead)
        fc.poison(fs.devices[dev], off + 1024, 1)
        fs.write(t, inode, 0, b"b" * PAGE)    # COW: retires the dead page
        assert dead not in {fs.policy.alloc_for(t) for _ in range(8)}
        assert fs.quarantined == [dead]
        assert fs.read(t, inode, 0, PAGE) == b"b" * PAGE

    def test_clean_quarantines_a_poisoned_log_page(self):
        m, t, fs, inode, model = self._slotted_file()
        fc = FaultController(m)
        head = fs._files[inode].log.head
        dev, off = split_gaddr(head)
        fc.poison(fs.devices[dev], off + PAGE // 2, 1)
        fs.clean(t, inode)                    # retires the whole old chain
        assert head not in {fs.policy.alloc_for(t) for _ in range(8)}
        assert fs.quarantined == [head]
        assert fs.read(t, inode, 0, len(model)) == model

    def test_a_poisoned_log_page_header_does_not_stop_the_cleaner(self):
        # The chain is recycled from DRAM: a walk of its next-pointers
        # would raise on the poisoned header, at this clean and every
        # later one.
        m, t, fs, inode, model = self._slotted_file()
        fc = FaultController(m)
        log = fs._files[inode].log
        chain = log.chain_pages()
        assert len(chain) > 1
        dev, off = split_gaddr(log.head)
        fc.poison(fs.devices[dev], off, 1)
        fs.clean(t, inode)
        assert not fs._files[inode].overlays
        assert fs.quarantined == [log.head]
        assert fs._files[inode].log.head not in chain
        assert fs.read(t, inode, 0, len(model)) == model
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        assert fs2.read_persistent_file(inode, 0, len(model)) == model


class TestDAX:
    def test_in_place_write_read(self):
        m = Machine()
        t = m.thread()
        fs = DAXFileSystem(m, flavor="ext4")
        inode = fs.create(t, npages=4)
        fs.write(t, inode, 100, b"data", sync=True)
        assert fs.read(t, inode, 100, 4) == b"data"

    def test_unsynced_write_can_be_lost(self):
        m = Machine()
        t = m.thread()
        fs = DAXFileSystem(m, flavor="xfs")
        inode = fs.create(t, npages=4)
        fs.write(t, inode, 0, b"gone", sync=False)
        base, _, _ = fs._files[inode]
        m.power_fail()
        assert fs.ns.read_persistent(base, 4) == b"\x00" * 4

    def test_sync_is_slower_than_nosync(self):
        m = Machine()
        t = m.thread()
        fs = DAXFileSystem(m, flavor="ext4")
        inode = fs.create(t, npages=4)
        t0 = t.now
        fs.write(t, inode, 0, b"x" * 64, sync=False)
        unsynced = t.now - t0
        t0 = t.now
        fs.write(t, inode, 64, b"x" * 64, sync=True)
        synced = t.now - t0
        assert synced > 3 * unsynced

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            DAXFileSystem(Machine(), flavor="btrfs")


class TestRecoveryResumesCleanly:
    """Regression: a mounted file system must not reallocate live pages."""

    def test_writes_after_mount_do_not_corrupt(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"A" * PAGE)
        for i in range(50):
            fs.write(t, inode, i * 8, b"x")
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        t2 = m.thread()
        other = fs2.create(t2)             # allocates fresh pages
        fs2.write(t2, other, 0, b"B" * PAGE)
        # The original file is untouched by the new allocations.
        assert fs2.read(t2, inode, 400, 4) == b"AAAA"
        assert fs2.read(t2, other, 0, 4) == b"BBBB"

    def test_clean_after_mount(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"C" * PAGE)
        for i in range(80):
            fs.write(t, inode, (i * 11) % PAGE, b"z")
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        t2 = m.thread()
        fs2.clean(t2, inode)
        m.power_fail()
        fs3 = NovaFS.mount(m, datalog=True)
        data = fs3.read_persistent_file(inode, 0, PAGE)
        shadow = bytearray(b"C" * PAGE)
        for i in range(80):
            shadow[(i * 11) % PAGE] = ord("z")
        assert data == bytes(shadow)

    def test_appends_resume_at_recovered_tail(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"D" * PAGE)
        fs.write(t, inode, 5, b"early")
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        t2 = m.thread()
        fs2.write(t2, inode, 50, b"late")   # must not clobber old entries
        m.power_fail()
        fs3 = NovaFS.mount(m, datalog=True)
        assert fs3.read_persistent_file(inode, 5, 5) == b"early"
        assert fs3.read_persistent_file(inode, 50, 4) == b"late"


class TestMmap:
    def test_mmap_merges_embedded_writes_first(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"M" * PAGE)
        fs.write(t, inode, 100, b"patched")     # embedded in the log
        gaddr = fs.mmap(t, inode)
        assert not fs._files[inode].overlays    # merged before mapping
        from repro.fs.layout import split_gaddr
        dev, off = split_gaddr(gaddr)
        raw = fs.devices[dev].read_volatile(off, PAGE)
        assert raw[100:107] == b"patched"

    def test_mmap_direct_store_is_visible(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"x" * PAGE)
        gaddr = fs.mmap(t, inode)
        from repro.fs.layout import split_gaddr
        dev, off = split_gaddr(gaddr)
        ns = fs.devices[dev]
        ns.pwrite(t, off + 10, b"DIRECT", instr="ntstore")
        assert fs.read(t, inode, 10, 6) == b"DIRECT"

    def test_mmap_sparse_page_allocates(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        gaddr = fs.mmap(t, inode, pgoff=2)
        assert gaddr

    @pytest.mark.parametrize("datalog", [False, True])
    def test_mapping_survives_power_fail(self, datalog):
        # Regression: mmap appended its COW entry without committing
        # the log tail, so recovery dropped the entry and remapped the
        # file to the page mmap had already freed.
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=datalog)
        inode = fs.create(t)
        other = fs.create(t)
        fs.write(t, inode, 0, b"M" * PAGE)
        fs.write(t, inode, 100, b"patched")     # an embed under datalog
        mapped = {}
        for pgoff in (0, 3):                    # merged page, sparse page
            gaddr = fs.mmap(t, inode, pgoff=pgoff)
            assert not fs._files[inode].log.uncommitted
            dev, off = split_gaddr(gaddr)
            fs.devices[dev].pwrite(t, off + 10, b"DIRECT", instr="ntstore")
            t.sfence()
            mapped[pgoff] = gaddr
        # Another file takes whatever pages mmap's COW freed.
        fs.write(t, other, 0, b"o" * (2 * PAGE))
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=datalog)
        assert fs2._files[inode].pages == mapped
        page0 = fs2.read_persistent_file(inode, 0, PAGE)
        assert page0[10:16] == b"DIRECT"
        assert page0[100:107] == b"patched"
        assert b"o" not in page0


class TestRangeReads:
    """Reads load only the byte ranges they return."""

    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_bytearray_model(self, seed, datalog):
        rng = random.Random(seed)
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=datalog)
        inode = fs.create(t)
        span = 6 * PAGE
        model = bytearray(span + PAGE)
        size = 0
        for _ in range(30):
            # No operation may return with entries past the committed
            # tail: a crash would drop them.
            assert not fs._files[inode].log.uncommitted
            if rng.random() < 0.1:
                fs.mmap(t, inode, pgoff=rng.randrange(6))
            elif rng.random() < 0.4:
                kind = rng.choice(("sub", "cross", "page"))
                if kind == "page":             # COW, drops the overlays
                    offset = rng.randrange(6) * PAGE
                    length = PAGE
                elif kind == "cross":          # embed on either side
                    offset = rng.randrange(1, 6) * PAGE - rng.randrange(1, 200)
                    length = rng.randrange(200, 600)
                else:
                    offset = rng.randrange(span - 300)
                    length = rng.randrange(1, 300)
                data = bytes(rng.getrandbits(8) for _ in range(length))
                fs.write(t, inode, offset, data)
                model[offset:offset + length] = data
                size = max(size, offset + length)
            else:
                # Sub-page, page-crossing, hole-spanning and past-EOF.
                offset = rng.randrange(span + PAGE)
                length = rng.choice((1, 2, 100, 300, PAGE, 2 * PAGE + 17))
                want = bytes(model[offset:min(offset + length, size)])
                assert fs.read(t, inode, offset, length) == want

    def test_small_read_loads_only_its_lines(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        fs.write(t, inode, 0, b"A" * (2 * PAGE))
        before = t.bytes_read
        assert fs.read(t, inode, PAGE + 130, 100) == b"A" * 100
        assert 0 < t.bytes_read - before <= 3 * 64
        before = t.bytes_read
        fs.read(t, inode, PAGE, PAGE)
        assert t.bytes_read - before == 64 * 64

    def test_hole_and_past_eof_load_nothing(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m)
        inode = fs.create(t)
        fs.write(t, inode, 2 * PAGE, b"far")
        before = t.bytes_read
        assert fs.read(t, inode, 100, PAGE) == b"\x00" * PAGE
        assert fs.read(t, inode, 2 * PAGE + 3, 500) == b""
        assert fs.read(t, inode, 5 * PAGE, 8) == b""
        assert t.bytes_read == before

    def test_aligned_4k_read_cost_is_pinned(self):
        # Recorded on the commit before reads became range-granular:
        # a page-aligned 4 KiB read must cost exactly what it did.
        from repro.fs.study import figure12
        bars = figure12(systems=("nova", "nova-datalog"), ops=250)
        assert bars["nova", "read", 4096].mean_ns == 1991.6967999999767
        assert bars["nova-datalog", "read", 4096].mean_ns == \
            1991.6967999999767


class TestLiveExtentIndex:
    """The overlay index holds live extents only, and recovery rebuilds
    the same index from the same log."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_embed_cow_truncate_match_model_and_remount(self, seed):
        rng = random.Random(seed)
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        npages, slot = 4, 128
        model = bytearray(npages * PAGE)
        size = 0
        ranges = {}               # pgoff -> distinct ranges embedded
        for _ in range(60):
            op = rng.choice(("slot", "slot", "slot", "sub", "cross",
                             "page", "truncate", "clean", "remount"))
            if op in ("slot", "sub", "cross", "page"):
                if op == "slot":           # the KV adapter's re-put
                    offset = rng.randrange(npages * PAGE // slot) * slot
                    length = rng.choice((2, 50, 102))
                elif op == "sub":
                    offset = rng.randrange(npages * PAGE - 300)
                    length = rng.randrange(1, 300)
                elif op == "cross":
                    offset = rng.randrange(1, npages) * PAGE \
                        - rng.randrange(1, 200)
                    length = rng.randrange(200, 600)
                else:                      # COW: the page's embeds die
                    offset = rng.randrange(npages) * PAGE
                    length = PAGE
                    ranges.pop(offset // PAGE, None)
                data = bytes(rng.getrandbits(8) for _ in range(length))
                fs.write(t, inode, offset, data)
                model[offset:offset + length] = data
                size = max(size, offset + length)
                pos = offset
                while length < PAGE and pos < offset + length:
                    pgoff, in_off = divmod(pos, PAGE)
                    chunk = min(PAGE - in_off, offset + length - pos)
                    ranges.setdefault(pgoff, set()).add((in_off, chunk))
                    pos += chunk
            elif op == "truncate":
                new_size = rng.randrange(npages * PAGE + 1)
                fs.truncate(t, inode, new_size)
                if new_size < size:        # the cut page is COWed
                    model[new_size:] = bytes(len(model) - new_size)
                    for pgoff in [p for p in ranges
                                  if p >= new_size // PAGE]:
                        del ranges[pgoff]
                size = new_size
            elif op == "clean":
                fs.clean(t, inode)
                ranges.clear()
                f = fs._files[inode]
                assert f.log.length == len(f.pages) and not f.overlays
            else:
                live = fs._files[inode]
                m.power_fail()
                fs = NovaFS.mount(m, datalog=True)
                t = m.thread()
                f = fs._files[inode]
                assert f.overlays == live.overlays
                assert (f.pages, f.size) == (live.pages, live.size)
                assert f.log.length == live.log.length
            overlays = fs._files[inode].overlays
            assert all(extents for extents in overlays.values())
            for pgoff, extents in overlays.items():
                assert len(extents) <= len(ranges[pgoff])
            assert fs.read(t, inode, 0, len(model)) == bytes(model[:size])

    def test_reput_replaces_its_predecessor(self):
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        for version in range(40):
            for slot in range(4):
                fs.write(t, inode, slot * 128, bytes([version + 1]) * 102)
        extents = fs._files[inode].overlays[0]
        assert [(o, n) for o, n, _ in extents] == [
            (slot * 128, 102) for slot in range(4)]
        # A shorter re-put leaves its predecessor's tail visible: both
        # stay, and the read patches them in oldest first.
        fs.write(t, inode, 128, b"s" * 10)
        assert len(extents) == 5
        assert fs.read(t, inode, 128, 102) == b"s" * 10 + bytes([40]) * 92
        # One that covers both drops both.
        fs.write(t, inode, 100, b"c" * 200)
        assert [(o, n) for o, n, _ in extents] == [
            (0, 102), (256, 102), (384, 102), (100, 200)]


class TestRecycledLogPages:
    """Regression: recovery replayed stale entries left in recycled log
    pages — behind a page's last entry and beyond the committed tail."""

    def test_recovery_ignores_stale_entries(self):
        rng = random.Random(3)
        m = Machine()
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        slots, stride = 256, 128
        model = {}
        cleans = 0
        for _ in range(4 * CLEANER_THRESHOLD + 100):
            slot = rng.randrange(slots)
            # Two entry sizes, so pages end with slack behind the
            # last entry that fits.
            value = bytes(rng.getrandbits(8)
                          for _ in range(rng.choice((102, 30))))
            before = fs._files[inode].log.length
            fs.write(t, inode, slot * stride, value)
            cleans += fs._files[inode].log.length < before
            model[slot] = value
        assert cleans >= 3                    # log pages were recycled
        live_length = fs._files[inode].log.length
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        stale = [slot for slot, value in model.items()
                 if fs2.read_persistent_file(
                     inode, slot * stride, len(value)) != value]
        assert stale == []
        assert fs2._files[inode].log.length == live_length
        assert fs2.recovery_report.truncated == 0

    def test_hole_before_terminator_does_not_resync_into_slack(self):
        m = Machine()
        fc = FaultController(m)
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        # A page whose previous life left CRC-valid entries all over it.
        stale = fs.policy.alloc_for(t)
        dev, off = split_gaddr(stale)
        ns = fs.devices[dev]
        ns.ntstore(t, off + 64, PAGE - 64,
                   data=encode_entry(WRITE_ENTRY, 7, 999,
                                     page_gaddr=stale) * 63)
        t.sfence()
        fs.policy.free(stale)
        inode = fs.create(t)
        log = fs._files[inode].log
        assert log.head == stale              # the log head recycles it
        fs.write(t, inode, 0, b"A" * PAGE)    # one 64 B write entry
        for i in range(29):                   # 29 embed entries of 128 B
            fs.write(t, inode, i * 64, b"e" * 64)
        assert (log.tail_page, log.tail_off) == (stale, 3840)
        fs.write(t, inode, 0, b"g" * 200)     # does not fit: the log grows
        assert log.tail_page != stale         # terminator at +3840
        fc.poison(ns, off + 3584, 1)          # the page's last two entries
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        assert 999 not in fs2._files[inode].pages
        assert fs2.recovery_report.lost >= 1
        assert fs2.read_persistent_file(inode, 0, 200) == b"g" * 200

    def test_hole_over_a_page_end_does_not_replay_its_previous_life(self):
        m = Machine()
        fc = FaultController(m)
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        # File A fills one log page with 63 WriteEntries, then goes: the
        # LIFO allocator hands A's log page to B's head and A's pgoff-62
        # data page to B's second log page.
        a = fs.create(t)
        for pgoff in range(63):
            fs.write(t, a, pgoff * PAGE, bytes([pgoff]) * PAGE)
        assert fs._files[a].log.tail_off == PAGE
        stale_head = fs._files[a].log.head
        fs.unlink(t, a)
        b = fs.create(t)
        log = fs._files[b].log
        assert log.head == stale_head
        model = {}
        for i in range(10):                   # 512 B embed entries
            value = bytes([0x80 + i]) * 448
            fs.write(t, b, i * 512, value)
            model[i * 512] = value
            if i == 6:                        # the head page ends here
                assert (log.tail_page, log.tail_off) == (stale_head, 3648)
        assert log.tail_page != stale_head
        dev, off = split_gaddr(stale_head)
        fc.poison(fs.devices[dev], off + 3584, 1)   # entry 7 and slack
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        assert fs2.recovery_report.lost >= 1
        assert fs2._files[b].pages == {}      # B never wrote a whole page
        del model[6 * 512]                    # its entry was poisoned
        t2 = m.thread()
        for pgoff in (62, 63, 64, 65):
            value = bytes([pgoff]) * PAGE
            fs2.write(t2, b, pgoff * PAGE, value)
            model[pgoff * PAGE] = value
        m.power_fail()
        fs3 = NovaFS.mount(m, datalog=True)
        assert set(fs3._files[b].pages) == {62, 63, 64, 65}
        for offset, value in model.items():
            assert fs3.read_persistent_file(b, offset, len(value)) == value

    def test_unreadable_page_header_abandons_the_chain(self):
        m = Machine()
        fc = FaultController(m)
        t = m.thread()
        fs = NovaFS(m, datalog=True)
        inode = fs.create(t)
        log = fs._files[inode].log
        for i in range(20):                   # 512 B entries: three pages
            fs.write(t, inode, i * 512, bytes([0x40 + i]) * 448)
        head, middle, tail = log.chain_pages()
        dev, off = split_gaddr(middle)
        fc.poison(fs.devices[dev], off, 1)    # the middle page's header
        m.power_fail()
        fs2 = NovaFS.mount(m, datalog=True)
        assert fs2.recovery_report.lost >= 1
        assert any("header unreadable" in note
                   for note in fs2.recovery_report.details)
        log2 = fs2._files[inode].log
        assert log2.pages_seen == [head, middle]     # chain abandoned
        assert log2.length == 7               # the head page's entries only
        for i in range(20):
            got = fs2.read_persistent_file(inode, i * 512, 448)
            want = bytes([0x40 + i]) * 448 if i < 7 else bytes(448)
            assert got == want[:len(got)]
