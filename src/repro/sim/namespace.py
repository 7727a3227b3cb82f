"""A pmem namespace: the byte-addressable window applications use.

A namespace binds an address range to a set of DIMMs (interleaved or
not), a socket, and a backing :class:`~repro.sim.address.DataStore`.
All simulated memory instructions live here:

* ``load`` / ``store`` — cached accesses (stores are write-allocate,
  i.e. a store miss costs a read of the line, which is the extra read
  that makes ``store+clwb`` lose to ``ntstore`` for large transfers);
* ``ntstore`` — bypasses the cache, straight at the WPQ;
* ``clwb`` / ``clflush`` / ``clflushopt`` — flush instructions;
* data convenience wrappers ``pread`` / ``pwrite`` used by the
  application substrates.

Persistence semantics: a line is durable once it is inserted into the
iMC's WPQ (the ADR domain).  ``ThreadCtx.sfence`` waits for exactly the
pending insertions this thread ordered.
"""

import weakref

from repro._units import CACHELINE
from repro.sim.address import DataStore, line_addresses
from repro.sim.imc import wpq_insert_latency

# Cache-index hash constants, kept in lockstep with
# repro.sim.cache.CacheModel._index (the per-line bodies inline the
# hash so the tag lookup and the later mutation share one table
# reference).
_HASH_MULT = 2654435761
_HASH_MIX = 0x45D9F3B

_UNALIGNED_RUN = "run address %#x is not cache-line aligned"


class Namespace:
    """One /dev/pmem-style device, byte-addressable by simulated threads."""

    def __init__(self, machine, name, devices, mapping, socket, is_optane):
        # The machine owns its namespaces; a namespace reaches back
        # weakly, so a dropped machine is freed by refcount (DESIGN.md,
        # "Who owns whom").  The per-line bodies deref it once per call
        # (``machine = self._machine()``), never through the property.
        self._machine = weakref.ref(machine)
        self.name = name
        self.ns_id = machine._register_namespace(self)
        self.socket = socket
        self.is_optane = is_optane
        self._devices = devices              # [(channel, dimm), ...]
        self._mapping = mapping
        self.data = DataStore()
        self._cfg = machine.config
        # Hot-path bindings: the per-line paths run millions of times
        # per sweep, so chained attribute lookups are hoisted here.  The
        # config *objects* are stable after construction (individual
        # fields like media.power_budget may still be mutated later and
        # are re-read per access); WPQ insert latencies are pure
        # functions of construction-time config, so they are folded.
        self._cache_cfg = machine.config.cache
        self._caches = machine.caches
        self._insert_nt_ns = wpq_insert_latency(
            machine.config.wpq, "nt", is_optane)
        self._insert_clwb_ns = wpq_insert_latency(
            machine.config.wpq, "clwb", is_optane)
        # Per-device hot tuples unwrap the MemoryChannel so the per-line
        # paths can book its links without going through the thin
        # transfer_* wrappers.  The channel cfg object rides along (its
        # fields are read per access, like the other config objects).
        self._dev = tuple(
            (ch._read_link, ch._write_link, ch._cfg, dimm)
            for ch, dimm in devices)
        if getattr(mapping, "dimms", 0) == 1:
            # Non-interleaved: one device, device address == address.
            self._only_dev = self._dev[getattr(mapping, "dimm_index", 0)]
            self._block_bytes = 0
            self._ndimms = 1
        else:
            self._only_dev = None
            self._block_bytes = mapping.block_bytes
            self._ndimms = mapping.dimms

    # -- helpers --------------------------------------------------------------

    @property
    def machine(self):
        """The owning machine; ReferenceError once it has been freed."""
        machine = self._machine()
        if machine is None:
            raise ReferenceError(
                "namespace %r outlived its machine: keep the Machine (or "
                "one of its threads) alive while using it" % (self.name,))
        return machine

    def _remote(self, thread):
        return thread.socket != self.socket

    def _cache(self, thread):
        return self._caches[thread.socket]

    @property
    def dimms(self):
        return [dimm for _, dimm in self._devices]

    # -- loads ----------------------------------------------------------------

    def load(self, thread, addr, size=CACHELINE):
        """Issue loads covering ``[addr, addr+size)``; returns last completion."""
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            return self._load_line(thread, addr)
        completion = thread.now
        for line in line_addresses(addr, size):
            completion = self._load_line(thread, line)
        return completion

    def _load_line(self, thread, line):
        cfg = self._cache_cfg
        thread.now += cfg.issue_ns
        issued = thread.now
        cache = self._caches[thread.socket]
        ns_id = self.ns_id
        tag = line | ns_id                       # cache.pack, inlined
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                             # cache.probe, inlined
        h = (h * _HASH_MIX) & 0xFFFFFFFF
        sets = cache._sets
        index = (h ^ (h >> 13)) % cache._nsets
        table = sets.get(index)
        if table is None:
            table = sets[index] = {}
        ready = table.pop(tag, None)
        if ready is not None:
            table[tag] = ready                   # now most recent
            cache.hits += 1
            completion = thread.now + cfg.hit_ns
            thread.now = completion
            thread.bytes_read += CACHELINE
            if thread.latencies is not None:
                thread.latencies.append(completion - issued)
            return completion
        cache.misses += 1
        loads = thread._loads
        if len(loads) >= thread.load_window:     # admit_load, inlined
            done = loads.popleft()
            if done > thread.now:
                thread.now = done
        start = thread.now
        machine = self._machine()
        remote = thread.socket != self.socket
        if remote:
            start = machine.upi.read_transfer(
                start, source=thread.tid, heavy=self.is_optane)
        only = self._only_dev
        if only is None:
            block, offset = divmod(line, self._block_bytes)
            sub, index = divmod(block, self._ndimms)
            rlink, _, ccfg, dimm = self._dev[index]
            dev_addr = sub * self._block_bytes + offset
        else:
            rlink, _, ccfg, dimm = only
            dev_addr = line
        _, ch_end = rlink.acquire(start, ccfg.read_occ_ns)
        data_ready = dimm.read(ch_end, dev_addr)
        if remote:
            data_ready += machine.upi.read_extra_ns
        if len(table) >= cache._ways:
            vtag = next(iter(table))             # fill_in, inlined: evict
            del table[vtag]                      # the least recently used
            table[tag] = data_ready
            dirty = cache._dirty
            if vtag in dirty:
                dirty.remove(vtag)
                machine._evict_writeback(vtag, thread.now)
        else:
            table[tag] = data_ready
        loads.append(data_ready)                 # track_load, inlined
        thread.bytes_read += CACHELINE
        if thread.latencies is not None:
            thread.latencies.append(data_ready - issued)
        if machine.tracer is not None:
            machine.tracer.complete(
                issued, "mem", "load.fill", data_ready - issued,
                track="t%d" % thread.tid,
                args={"line": line, "ns": self.name, "remote": remote})
        return data_ready

    # -- temporal stores --------------------------------------------------------

    def store(self, thread, addr, size=CACHELINE, data=None):
        """Cached stores covering the range (durable only after a flush)."""
        if data is not None:
            self.data.write(addr, data)
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            self._store_line(thread, addr)
            return
        for line in line_addresses(addr, size):
            self._store_line(thread, line)

    def _store_line(self, thread, line):
        machine = self._machine()
        pmcheck = machine.pmcheck
        if pmcheck is not None:
            pmcheck.on_store(thread, self.ns_id, line)
        thread.now += self._cache_cfg.issue_ns
        cache = self._caches[thread.socket]
        ns_id = self.ns_id
        tag = line | ns_id                       # cache.pack, inlined
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                        # cache.store_probe, inlined
        h = (h * _HASH_MIX) & 0xFFFFFFFF
        sets = cache._sets
        index = (h ^ (h >> 13)) % cache._nsets
        table = sets.get(index)
        if table is None:
            table = sets[index] = {}
        ready = table.pop(tag, None)
        if ready is not None:
            table[tag] = ready                   # now most recent
            cache._dirty.add(tag)
            return
        # Write-allocate: fetch the line before modifying it (RFO).
        loads = thread._loads
        if len(loads) >= thread.load_window:     # admit_load, inlined
            done = loads.popleft()
            if done > thread.now:
                thread.now = done
        start = thread.now
        remote = thread.socket != self.socket
        if remote:
            start = machine.upi.read_transfer(
                start, source=thread.tid, heavy=self.is_optane)
        only = self._only_dev
        if only is None:
            block, offset = divmod(line, self._block_bytes)
            sub, index = divmod(block, self._ndimms)
            rlink, _, ccfg, dimm = self._dev[index]
            dev_addr = sub * self._block_bytes + offset
        else:
            rlink, _, ccfg, dimm = only
            dev_addr = line
        _, ch_end = rlink.acquire(start, ccfg.read_occ_ns)
        data_ready = dimm.read(ch_end, dev_addr)
        if remote:
            data_ready += machine.upi.read_extra_ns
        dirty = cache._dirty
        if len(table) >= cache._ways:
            vtag = next(iter(table))             # fill_in, inlined: evict
            del table[vtag]                      # the least recently used
            table[tag] = data_ready
            dirty.add(tag)
            if vtag in dirty:
                dirty.remove(vtag)
                machine._evict_writeback(vtag, thread.now)
        else:
            table[tag] = data_ready
            dirty.add(tag)
        loads.append(data_ready)                 # track_load, inlined

    # -- flushes ----------------------------------------------------------------

    def clwb(self, thread, addr, size=CACHELINE):
        """Write back (without evicting) every line of the range."""
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            self._clwb_line(thread, addr)
            return
        clwb_line = self._clwb_line
        for line in line_addresses(addr, size):
            clwb_line(thread, line)

    def clflushopt(self, thread, addr, size=CACHELINE):
        """Write back and evict every line of the range (non-blocking)."""
        cache = self._caches[thread.socket]
        sets = cache._sets
        dirty = cache._dirty
        flush_issue_ns = self._cache_cfg.flush_issue_ns
        ns_id = self.ns_id
        pmcheck = self._machine().pmcheck
        for line in line_addresses(addr, size):
            thread.now += flush_issue_ns
            tag = line | ns_id
            h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
            h ^= h >> 16                         # cache.invalidate,
            h = (h * _HASH_MIX) & 0xFFFFFFFF     # inlined, keeping the
            table = sets.get(                    # popped ready time
                (h ^ (h >> 13)) % cache._nsets)
            ready = table.pop(tag, None) if table is not None else None
            was_dirty = tag in dirty             # dirty tags are resident
            if was_dirty:
                dirty.remove(tag)
            if pmcheck is not None:
                pmcheck.on_flush(thread, ns_id, line)
            if was_dirty:
                self._send_store(thread, line, ready)

    # clflush has the same simulated cost; its serialization is modelled
    # by callers fencing after each line.
    clflush = clflushopt

    def _clwb_line(self, thread, line):
        """Write back one (line-aligned) cache line; ``clwb`` semantics."""
        thread.now += self._cache_cfg.flush_issue_ns
        dirty, ready = self._caches[thread.socket].clean_ready(
            (self.ns_id, line))
        pmcheck = self._machine().pmcheck
        if pmcheck is not None:
            pmcheck.on_flush(thread, self.ns_id, line)
        if dirty:
            self._send_store(thread, line, ready)

    # -- non-temporal stores -------------------------------------------------------

    def ntstore(self, thread, addr, size=CACHELINE, data=None):
        """Write-combined stores that bypass the cache hierarchy."""
        if data is not None:
            self.data.write(addr, data)
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            self._ntstore_line(thread, addr)
            return
        nt_line = self._ntstore_line
        for line in line_addresses(addr, size):
            nt_line(thread, line)

    def _ntstore_line(self, thread, line):
        """One (line-aligned) non-temporal store: the only ntstore body.

        Cache invalidate, then the WPQ -> channel -> DIMM pipeline of
        :meth:`_send_store` at ``ntstore`` latency and occupancy, in
        one frame (composing the two cost ``device-sweep`` +4 %, see
        DESIGN.md).  Checker and tracer hooks ride inline.
        """
        machine = self._machine()
        ns_id = self.ns_id
        if machine.pmcheck is not None:
            machine.pmcheck.on_ntstore(thread, ns_id, line)
        thread.now += self._cache_cfg.issue_ns
        cache = self._caches[thread.socket]
        tag = line | ns_id                       # cache.pack, inlined
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                             # cache.invalidate,
        h = (h * _HASH_MIX) & 0xFFFFFFFF         # inlined (its result
        table = cache._sets.get(                 # is unused here)
            (h ^ (h >> 13)) % cache._nsets)
        if table is not None and table.pop(tag, None) is not None:
            cache._dirty.discard(tag)
        insert_lat = self._insert_nt_ns
        remote = thread.socket != self.socket
        lead = insert_lat
        if remote:
            lead += machine.upi.write_extra_ns
        issued = thread.now
        stores = thread._stores
        if len(stores) >= thread.store_window:   # admit_store, inlined
            done = stores.popleft()
            if done - lead > thread.now:
                thread.now = done - lead
        insert = thread.now + insert_lat
        if remote:
            insert = machine.upi.write_transfer(
                thread.now, source=thread.tid,
                heavy=self.is_optane) + insert_lat
            insert += machine.upi.write_extra_ns
        thread.pending_persists.append(insert)
        if machine.tracer is not None:
            machine.tracer.complete(
                issued, "wpq", "wpq.insert.nt", insert - issued,
                track="t%d" % thread.tid,
                args={"line": line, "ns": self.name,
                      "stall_ns": thread.now - issued, "remote": remote})
        if thread.latencies is not None:
            thread.latencies.append(insert - issued)
        only = self._only_dev
        if only is None:
            block, offset = divmod(line, self._block_bytes)
            sub, index = divmod(block, self._ndimms)
            _, wlink, ccfg, dimm = self._dev[index]
            dev_addr = sub * self._block_bytes + offset
        else:
            _, wlink, ccfg, dimm = only
            dev_addr = line
        occ = ccfg.ntstore_occ_ns
        free = wlink._free                       # single-server write
        earliest = free[0]                       # link, inlined
        wstart = earliest if earliest > insert else insert
        ch_end = wstart + occ
        free[0] = ch_end
        wlink.busy_ns += occ
        if ch_end > wlink._last_end:
            wlink._last_end = ch_end
        accept = dimm.ingest_write(ch_end, dev_addr)
        stores.append(accept)
        thread.bytes_written += CACHELINE
        faults = machine.faults                  # _persist_line, inlined
        if faults is not None:
            faults.persist(self, line)
        else:
            # data.persist_line, inlined: the line is durable as the
            # CPU sees it, so its pre-image goes.  Bandwidth kernels
            # carry no payload and leave the undo map empty.
            undo = self.data._undo
            if undo:
                undo.pop(line, None)

    def _store_clwb_line(self, thread, line):
        """``store`` then ``clwb`` of one line — the Figure 2/14 pairing.

        The only store+clwb body: :meth:`_store_line` +
        :meth:`_clwb_line` + :meth:`_send_store` flattened into one
        frame, with the cache hash computed once and its set table
        shared between the store's probe/fill and the flush's clean.
        State mutations happen in exactly the order of the composed
        calls (composing them cost ``device-sweep`` +12 %, see
        DESIGN.md).  Checker and tracer hooks ride inline.
        """
        machine = self._machine()
        ns_id = self.ns_id
        pmcheck = machine.pmcheck
        if pmcheck is not None:
            pmcheck.on_store(thread, ns_id, line)
        cfg = self._cache_cfg
        thread.now += cfg.issue_ns
        cache = self._caches[thread.socket]
        tag = line | ns_id                       # cache.pack, inlined
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                             # CacheModel._index
        h = (h * _HASH_MIX) & 0xFFFFFFFF
        sets = cache._sets
        index = (h ^ (h >> 13)) % cache._nsets
        table = sets.get(index)
        if table is None:
            table = sets[index] = {}
        remote = thread.socket != self.socket
        only = self._only_dev
        if only is None:
            block, offset = divmod(line, self._block_bytes)
            sub, di = divmod(block, self._ndimms)
            rlink, wlink, ccfg, dimm = self._dev[di]
            dev_addr = sub * self._block_bytes + offset
        else:
            rlink, wlink, ccfg, dimm = only
            dev_addr = line
        ready = table.pop(tag, None)             # store_probe, inlined
        if ready is not None:
            table[tag] = ready                   # now most recent
            cache._dirty.discard(tag)            # stored, then cleaned
        else:
            # Write-allocate: fetch the line before modifying it (RFO).
            loads = thread._loads
            if len(loads) >= thread.load_window:  # admit_load, inlined
                done = loads.popleft()
                if done > thread.now:
                    thread.now = done
            start = thread.now
            if remote:
                start = machine.upi.read_transfer(
                    start, source=thread.tid, heavy=self.is_optane)
            _, ch_end = rlink.acquire(start, ccfg.read_occ_ns)
            ready = dimm.read(ch_end, dev_addr)
            if remote:
                ready += machine.upi.read_extra_ns
            if len(table) >= cache._ways:
                vtag = next(iter(table))         # fill_in, inlined: evict
                del table[vtag]                  # the least recently used
                table[tag] = ready
                dirty = cache._dirty
                if vtag in dirty:
                    # The line is dirty while its victim is written
                    # back (a crash there sees it so); the clwb below
                    # cleans it.  Without a write-back it never enters
                    # the dirty set.
                    dirty.remove(vtag)
                    dirty.add(tag)
                    machine._evict_writeback(vtag, thread.now)
                    dirty.discard(tag)
            else:
                table[tag] = ready
            loads.append(ready)
        # -- clwb of the line just stored (always present, now clean) --
        thread.now += cfg.flush_issue_ns
        if pmcheck is not None:
            pmcheck.on_flush(thread, ns_id, line)
        insert_lat = self._insert_clwb_ns        # _send_store, inlined
        lead = insert_lat
        if remote:
            lead += machine.upi.write_extra_ns
        issued = thread.now
        stores = thread._stores
        if len(stores) >= thread.store_window:   # admit_store, inlined
            done = stores.popleft()
            if done - lead > thread.now:
                thread.now = done - lead
        insert = thread.now + insert_lat
        nb = ready + insert_lat
        if nb > insert:
            insert = nb
        if remote:
            insert = machine.upi.write_transfer(
                thread.now, source=thread.tid,
                heavy=self.is_optane) + insert_lat
            insert += machine.upi.write_extra_ns
        thread.pending_persists.append(insert)
        if machine.tracer is not None:
            machine.tracer.complete(
                issued, "wpq", "wpq.insert.clwb", insert - issued,
                track="t%d" % thread.tid,
                args={"line": line, "ns": self.name,
                      "stall_ns": thread.now - issued, "remote": remote})
        if thread.latencies is not None:
            thread.latencies.append(insert - issued)
        occ = ccfg.writeback_occ_ns
        free = wlink._free                       # single-server write
        earliest = free[0]                       # link, inlined
        wstart = earliest if earliest > insert else insert
        ch_end = wstart + occ
        free[0] = ch_end
        wlink.busy_ns += occ
        if ch_end > wlink._last_end:
            wlink._last_end = ch_end
        accept = dimm.ingest_write(ch_end, dev_addr)
        stores.append(accept)
        thread.bytes_written += CACHELINE
        faults = machine.faults                  # _persist_line, inlined
        if faults is not None:
            faults.persist(self, line)
        else:
            # data.persist_line, inlined: the line is durable as the
            # CPU sees it, so its pre-image goes.  Bandwidth kernels
            # carry no payload and leave the undo map empty.
            undo = self.data._undo
            if undo:
                undo.pop(line, None)

    # -- batched run entry points ----------------------------------------------
    #
    # One call per contiguous run of cache lines: each loops the exact
    # per-line body (`_load_line`, `_store_line`, `_store_clwb_line`,
    # `_ntstore_line`), so timing, counters, bookings and trace events
    # are those of issuing the lines one by one.  The LATTester kernels
    # do not use them (they call the per-line bodies themselves);
    # perfbench's namespace rows and the instrumented goldens still do.
    # ``addr`` must be cache-line aligned (the cache packs ns_id into a
    # line's low six bits), so an unaligned run raises.

    def load_run(self, thread, addr, n_lines):
        """Load ``n_lines`` consecutive lines; returns last completion."""
        if addr % CACHELINE:
            raise ValueError(_UNALIGNED_RUN % addr)
        load_line = self._load_line
        completion = thread.now
        for _ in range(n_lines):
            completion = load_line(thread, addr)
            addr += CACHELINE
        return completion

    def store_run(self, thread, addr, n_lines, clwb=False):
        """Store ``n_lines`` consecutive lines, optionally clwb-ing each.

        With ``clwb=True`` every line is written back right after its
        store, matching the ``store; clwb`` instruction pairing of the
        flush microbenchmarks.
        """
        if addr % CACHELINE:
            raise ValueError(_UNALIGNED_RUN % addr)
        if not clwb:
            store_line = self._store_line
            for _ in range(n_lines):
                store_line(thread, addr)
                addr += CACHELINE
            return
        store_clwb = self._store_clwb_line
        for _ in range(n_lines):
            store_clwb(thread, addr)
            addr += CACHELINE

    def ntstore_run(self, thread, addr, n_lines):
        """Issue ``n_lines`` consecutive non-temporal stores."""
        if addr % CACHELINE:
            raise ValueError(_UNALIGNED_RUN % addr)
        nt_line = self._ntstore_line
        for _ in range(n_lines):
            nt_line(thread, addr)
            addr += CACHELINE

    # -- the store pipeline ---------------------------------------------------------

    def _send_store(self, thread, line, not_before):
        """Write one dirty 64 B line back: WPQ -> channel -> DIMM.

        The pipeline behind ``clwb`` / ``clflushopt``.  ``not_before``
        delays the WPQ insertion until the line's cache fill has
        completed (a write-back cannot outrun its own RFO).
        """
        insert_lat = self._insert_clwb_ns
        machine = self._machine()
        remote = thread.socket != self.socket
        lead = insert_lat
        if remote:
            lead += machine.upi.write_extra_ns
        issued = thread.now
        stores = thread._stores
        if len(stores) >= thread.store_window:   # admit_store, inlined
            done = stores.popleft()
            if done - lead > thread.now:
                thread.now = done - lead
        insert = max(thread.now + insert_lat, not_before + insert_lat)
        if remote:
            insert = machine.upi.write_transfer(
                thread.now, source=thread.tid,
                heavy=self.is_optane) + insert_lat
            insert += machine.upi.write_extra_ns
        thread.pending_persists.append(insert)
        if machine.tracer is not None:
            # stall_ns: per-thread WPQ back-pressure.
            machine.tracer.complete(
                issued, "wpq", "wpq.insert.clwb", insert - issued,
                track="t%d" % thread.tid,
                args={"line": line, "ns": self.name,
                      "stall_ns": thread.now - issued, "remote": remote})
        if thread.latencies is not None:
            # A store's latency, as seen by software, is the time until
            # it reaches the ADR domain — including any back-pressure
            # from a full per-thread WPQ allotment.
            thread.latencies.append(insert - issued)
        only = self._only_dev
        if only is None:
            block, offset = divmod(line, self._block_bytes)
            sub, index = divmod(block, self._ndimms)
            _, wlink, ccfg, dimm = self._dev[index]
            dev_addr = sub * self._block_bytes + offset
        else:
            _, wlink, ccfg, dimm = only
            dev_addr = line
        occ = ccfg.writeback_occ_ns
        free = wlink._free                       # single-server channel
        earliest = free[0]                       # write link: Resource
        wstart = earliest if earliest > insert else insert   # .acquire,
        ch_end = wstart + occ                    # inlined
        free[0] = ch_end
        wlink.busy_ns += occ
        if ch_end > wlink._last_end:
            wlink._last_end = ch_end
        accept = dimm.ingest_write(ch_end, dev_addr)
        stores.append(accept)                    # track_store, inlined
        thread.bytes_written += CACHELINE
        faults = machine.faults                  # _persist_line, inlined
        if faults is not None:
            faults.persist(self, line)
        else:
            # data.persist_line, inlined: the line is durable as the
            # CPU sees it, so its pre-image goes.  Bandwidth kernels
            # carry no payload and leave the undo map empty.
            undo = self.data._undo
            if undo:
                undo.pop(line, None)

    def _persist_line(self, line):
        """Commit one line to the ADR domain, through the machine's
        fault controller when it has one (torn writes, crash points)."""
        faults = self._machine().faults
        if faults is not None:
            faults.persist(self, line)
        else:
            self.data.persist_line(line)

    def _evict_writeback(self, line, now):
        """A natural cache eviction wrote this dirty line back."""
        pmcheck = self._machine().pmcheck
        if pmcheck is not None:
            pmcheck.on_evict(self.ns_id, line)
        only = self._only_dev
        if only is None:
            block, offset = divmod(line, self._block_bytes)
            sub, index = divmod(block, self._ndimms)
            _, wlink, ccfg, dimm = self._dev[index]
            dev_addr = sub * self._block_bytes + offset
        else:
            _, wlink, ccfg, dimm = only
            dev_addr = line
        _, ch_end = wlink.acquire(now, ccfg.writeback_occ_ns)
        dimm.ingest_write(ch_end, dev_addr)
        self._persist_line(line)

    # -- data-carrying convenience API (used by the app substrates) -----------------

    def pwrite(self, thread, addr, data, instr="ntstore", fence=True):
        """Write ``data`` durably using the chosen persistence path.

        ``instr``: ``"ntstore"`` (cache-bypassing), ``"clwb"`` (store +
        per-line clwb) or ``"store"`` (no flush — *not* durable until
        something else writes the lines back).
        """
        if instr == "ntstore":
            self.ntstore(thread, addr, len(data), data=data)
        elif instr == "clwb":
            self.store(thread, addr, len(data), data=data)
            self.clwb(thread, addr, len(data))
        elif instr == "store":
            self.store(thread, addr, len(data), data=data)
        else:
            raise ValueError("unknown persistence instruction: %r" % (instr,))
        if fence and instr != "store":
            thread.sfence()

    def pread(self, thread, addr, size):
        """Load ``size`` bytes (paying simulated time) and return them.

        Raises :class:`~repro.faults.model.MediaError` when the range
        hits a poisoned XPLine or a pending transient read fault.
        """
        faults = self._machine().faults
        if faults is not None:
            faults.check_read(self, addr, size, timed=True)
        self.load(thread, addr, size)
        return self.data.read(addr, size)

    def read_volatile(self, addr, size):
        """Peek at the CPU-visible contents without simulated cost."""
        faults = self.machine.faults
        if faults is not None:
            faults.check_read(self, addr, size)
        return self.data.read(addr, size)

    def read_persistent(self, addr, size):
        """Read the post-crash (durable) contents without simulated cost."""
        faults = self.machine.faults
        if faults is not None:
            faults.check_read(self, addr, size)
        return self.data.read_persistent(addr, size)

    # -- counters -------------------------------------------------------------------

    def counter_snapshots(self):
        return [dimm.counters.snapshot() for dimm in self.dimms]

    def counter_deltas(self, snapshots):
        return [
            dimm.counters.delta(snap)
            for dimm, snap in zip(self.dimms, snapshots)
        ]
