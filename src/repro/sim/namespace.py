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

from repro._units import CACHELINE
from repro.sim import engine as _engine
from repro.sim.address import DataStore, line_addresses
from repro.sim.imc import wpq_insert_latency

# Cache-index hash constants, kept in lockstep with
# repro.sim.cache.CacheModel._index (the fused per-line paths inline
# the hash so the tag lookup and the later mutation share one table
# reference).
_HASH_MULT = 2654435761
_HASH_MIX = 0x45D9F3B


class Namespace:
    """One /dev/pmem-style device, byte-addressable by simulated threads."""

    def __init__(self, machine, name, devices, mapping, socket, is_optane):
        self.machine = machine
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
            self._only = devices[getattr(mapping, "dimm_index", 0)]
            self._only_dev = self._dev[getattr(mapping, "dimm_index", 0)]
            self._block_bytes = 0
            self._ndimms = 1
        else:
            self._only = None
            self._only_dev = None
            self._block_bytes = mapping.block_bytes
            self._ndimms = mapping.dimms
        # The fused per-line paths (_store_clwb_line, _ntstore_line)
        # flatten the whole store pipeline into one function.  They are
        # only equivalent when no subclass specializes the primitives
        # they fold together and nothing is tracing; otherwise — and
        # under REPRO_FASTPATH=0 — the composed generic path runs.
        self._recompute_plain()

    def _recompute_plain(self):
        """(Re)derive eligibility for the fused per-line fast paths.

        Called at construction and whenever a persistency checker is
        installed/uninstalled on the machine: while a checker observes
        the persist path, the composed reference paths must run so the
        per-event hooks fire (PR 4 proved them byte-identical to the
        fused bodies, so results do not change — only speed).
        """
        cls = type(self)
        self._plain = (
            cls._send_store is Namespace._send_store
            and cls._store_line is Namespace._store_line
            and cls._load_line is Namespace._load_line
            and self.machine.tracer is None
            and self.machine.pmcheck is None)

    # -- helpers --------------------------------------------------------------

    def _route(self, line_addr):
        index, dev_addr = self._mapping.locate(line_addr)
        return self._devices[index]

    def _remote(self, thread):
        return thread.socket != self.socket

    def _cache(self, thread):
        return self.machine.caches[thread.socket]

    @property
    def dimms(self):
        return [dimm for _, dimm in self._devices]

    # -- loads ----------------------------------------------------------------

    def load(self, thread, addr, size=CACHELINE):
        """Issue loads covering ``[addr, addr+size)``; returns last completion."""
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            return self._load_line(thread, addr)
        if self._plain and _engine.FASTPATH_ENABLED:
            return self._load_lines_fused(thread,
                                          line_addresses(addr, size))
        completion = thread.now
        for line in line_addresses(addr, size):
            completion = self._load_line(thread, line)
        return completion

    def _load_lines_fused(self, thread, lines):
        """Multi-line load with the loop invariants hoisted.

        The loop body is :meth:`_load_line` statement for statement —
        same state mutations in the same order, so timing, counters and
        shared-resource bookings are byte-identical — with the cache,
        config and routing lookups that cannot change between the lines
        of one call lifted out.  Only runs when ``_plain`` (no tracer,
        no checker, no subclass overrides); fault hooks do not observe
        loads, so fault injection does not force the composed path.
        """
        cfg = self._cache_cfg
        issue_ns = cfg.issue_ns
        hit_ns = cfg.hit_ns
        cache = self._caches[thread.socket]
        sets = cache._sets
        nsets = cache._nsets
        ways = cache._ways
        ns_id = self.ns_id
        ns_salt = ns_id * 40503
        loads = thread._loads
        load_window = thread.load_window
        machine = self.machine
        remote = thread.socket != self.socket
        upi = machine.upi
        is_optane = self.is_optane
        tid = thread.tid
        only = self._only_dev
        if only is not None:
            rlink, _w, ccfg, dimm = only
            occ_r = ccfg.read_occ_ns
            dimm_read = dimm.read
        else:
            block_bytes = self._block_bytes
            ndimms = self._ndimms
            dev = self._dev
        latencies = thread.latencies
        completion = thread.now
        for line in lines:
            issued = thread.now + issue_ns
            thread.now = issued
            key = (ns_id, line)
            h = ((line >> 6) * _HASH_MULT + ns_salt) & 0xFFFFFFFF
            h ^= h >> 16                         # cache.probe, inlined
            h = (h * _HASH_MIX) & 0xFFFFFFFF
            index = (h ^ (h >> 13)) % nsets
            table = sets.get(index)
            if table is None:
                table = sets[index] = {}
            entry = table.pop(key, None)
            if entry is not None:
                table[key] = entry               # now most recent
                cache.hits += 1
                completion = issued + hit_ns
                thread.now = completion
                thread.bytes_read += CACHELINE
                if latencies is not None:
                    latencies.append(completion - issued)
                continue
            cache.misses += 1
            if len(loads) >= load_window:        # admit_load, inlined
                done = loads.popleft()
                if done > thread.now:
                    thread.now = done
            start = thread.now
            if remote:
                start = upi.read_transfer(start, source=tid,
                                          heavy=is_optane)
            if only is None:
                block, offset = divmod(line, block_bytes)
                sub, di = divmod(block, ndimms)
                rlink, _w, ccfg, dimm = dev[di]
                dev_addr = sub * block_bytes + offset
                occ_r = ccfg.read_occ_ns
                dimm_read = dimm.read
            else:
                dev_addr = line
            if rlink._gap_start:
                _s, ch_end = rlink.acquire(start, occ_r)
            else:
                # Gap list empty: tail booking only (acquire, inlined).
                rlink.busy_ns += occ_r
                tail = rlink._tail
                rstart = tail if tail > start else start
                if rstart - tail > 1e-9:
                    rlink._gap_start.append(tail)
                    rlink._gap_end.append(rstart)
                ch_end = rstart + occ_r
                rlink._tail = ch_end
            data_ready = dimm_read(ch_end, dev_addr)
            if remote:
                data_ready += upi.read_extra_ns
            if len(table) >= ways:
                victim = cache.fill_in(table, key, ready_ns=data_ready)
                if victim is not None and victim[1]:
                    machine._evict_writeback(victim[0], thread.now)
            else:
                # fill_in sans victim, inlined
                table[key] = [False, data_ready]
            loads.append(data_ready)             # track_load, inlined
            thread.bytes_read += CACHELINE
            if latencies is not None:
                latencies.append(data_ready - issued)
            completion = data_ready
        return completion

    def _load_line(self, thread, line):
        cfg = self._cache_cfg
        thread.now += cfg.issue_ns
        issued = thread.now
        cache = self._caches[thread.socket]
        ns_id = self.ns_id
        key = (ns_id, line)
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                             # cache.probe, inlined
        h = (h * _HASH_MIX) & 0xFFFFFFFF
        sets = cache._sets
        index = (h ^ (h >> 13)) % cache._nsets
        table = sets.get(index)
        if table is None:
            table = sets[index] = {}
        entry = table.pop(key, None)
        if entry is not None:
            table[key] = entry                   # now most recent
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
        machine = self.machine
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
        occ_r = ccfg.read_occ_ns
        if rlink._gap_start:
            _, ch_end = rlink.acquire(start, occ_r)
        else:
            # Gap list empty: tail booking only (acquire, inlined; the
            # gap this booking may open behind itself cannot overflow
            # the bound since the list was empty).
            rlink.busy_ns += occ_r
            tail = rlink._tail
            rstart = tail if tail > start else start
            if rstart - tail > 1e-9:
                rlink._gap_start.append(tail)
                rlink._gap_end.append(rstart)
            ch_end = rstart + occ_r
            rlink._tail = ch_end
        data_ready = dimm.read(ch_end, dev_addr)
        if remote:
            data_ready += machine.upi.read_extra_ns
        if len(table) >= cache._ways:
            victim = cache.fill_in(table, key, ready_ns=data_ready)
            if victim is not None and victim[1]:
                machine._evict_writeback(victim[0], thread.now)
        else:
            # fill_in sans victim, inlined
            table[key] = [False, data_ready]
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

    def _dev_addr(self, line):
        _, dev_addr = self._mapping.locate(line)
        return dev_addr

    # -- temporal stores --------------------------------------------------------

    def store(self, thread, addr, size=CACHELINE, data=None):
        """Cached stores covering the range (durable only after a flush)."""
        if data is not None:
            self.data.write(addr, data)
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            self._store_line(thread, addr)
            return
        if self._plain and _engine.FASTPATH_ENABLED:
            self._store_lines_fused(thread, line_addresses(addr, size))
            return
        for line in line_addresses(addr, size):
            self._store_line(thread, line)

    def _store_lines_fused(self, thread, lines):
        """Multi-line cached store with the loop invariants hoisted.

        Statement-for-statement :meth:`_store_line` per line (the
        pmcheck hook is vacuously absent — ``_plain`` implies no
        checker), so hit/miss counters, RFO fills, evictions and the
        thread clock advance identically.
        """
        issue_ns = self._cache_cfg.issue_ns
        cache = self._caches[thread.socket]
        sets = cache._sets
        nsets = cache._nsets
        ways = cache._ways
        ns_id = self.ns_id
        ns_salt = ns_id * 40503
        loads = thread._loads
        load_window = thread.load_window
        machine = self.machine
        remote = thread.socket != self.socket
        upi = machine.upi
        is_optane = self.is_optane
        tid = thread.tid
        only = self._only_dev
        if only is not None:
            rlink, _w, ccfg, dimm = only
            occ_r = ccfg.read_occ_ns
            dimm_read = dimm.read
        else:
            block_bytes = self._block_bytes
            ndimms = self._ndimms
            dev = self._dev
        for line in lines:
            thread.now += issue_ns
            key = (ns_id, line)
            h = ((line >> 6) * _HASH_MULT + ns_salt) & 0xFFFFFFFF
            h ^= h >> 16                    # cache.store_probe, inlined
            h = (h * _HASH_MIX) & 0xFFFFFFFF
            index = (h ^ (h >> 13)) % nsets
            table = sets.get(index)
            if table is None:
                table = sets[index] = {}
            entry = table.pop(key, None)
            if entry is not None:
                entry[0] = True
                table[key] = entry               # now most recent
                continue
            # Write-allocate: fetch the line before modifying it (RFO).
            if len(loads) >= load_window:        # admit_load, inlined
                done = loads.popleft()
                if done > thread.now:
                    thread.now = done
            start = thread.now
            if remote:
                start = upi.read_transfer(start, source=tid,
                                          heavy=is_optane)
            if only is None:
                block, offset = divmod(line, block_bytes)
                sub, di = divmod(block, ndimms)
                rlink, _w, ccfg, dimm = dev[di]
                dev_addr = sub * block_bytes + offset
                occ_r = ccfg.read_occ_ns
                dimm_read = dimm.read
            else:
                dev_addr = line
            if rlink._gap_start:
                _s, ch_end = rlink.acquire(start, occ_r)
            else:
                # Gap list empty: tail booking only (acquire, inlined).
                rlink.busy_ns += occ_r
                tail = rlink._tail
                rstart = tail if tail > start else start
                if rstart - tail > 1e-9:
                    rlink._gap_start.append(tail)
                    rlink._gap_end.append(rstart)
                ch_end = rstart + occ_r
                rlink._tail = ch_end
            data_ready = dimm_read(ch_end, dev_addr)
            if remote:
                data_ready += upi.read_extra_ns
            if len(table) >= ways:
                victim = cache.fill_in(table, key, dirty=True,
                                       ready_ns=data_ready)
                if victim is not None and victim[1]:
                    machine._evict_writeback(victim[0], thread.now)
            else:
                # fill_in sans victim, inlined
                table[key] = [True, data_ready]
            loads.append(data_ready)             # track_load, inlined

    def _store_line(self, thread, line):
        pmcheck = self.machine.pmcheck
        if pmcheck is not None:
            pmcheck.on_store(thread, self.ns_id, line)
        thread.now += self._cache_cfg.issue_ns
        cache = self._caches[thread.socket]
        ns_id = self.ns_id
        key = (ns_id, line)
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                        # cache.store_probe, inlined
        h = (h * _HASH_MIX) & 0xFFFFFFFF
        sets = cache._sets
        index = (h ^ (h >> 13)) % cache._nsets
        table = sets.get(index)
        if table is None:
            table = sets[index] = {}
        entry = table.pop(key, None)
        if entry is not None:
            entry[0] = True
            table[key] = entry                   # now most recent
            return
        # Write-allocate: fetch the line before modifying it (RFO).
        loads = thread._loads
        if len(loads) >= thread.load_window:     # admit_load, inlined
            done = loads.popleft()
            if done > thread.now:
                thread.now = done
        start = thread.now
        machine = self.machine
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
        occ_r = ccfg.read_occ_ns
        if rlink._gap_start:
            _, ch_end = rlink.acquire(start, occ_r)
        else:
            # Gap list empty: tail booking only (acquire, inlined; the
            # gap this booking may open behind itself cannot overflow
            # the bound since the list was empty).
            rlink.busy_ns += occ_r
            tail = rlink._tail
            rstart = tail if tail > start else start
            if rstart - tail > 1e-9:
                rlink._gap_start.append(tail)
                rlink._gap_end.append(rstart)
            ch_end = rstart + occ_r
            rlink._tail = ch_end
        data_ready = dimm.read(ch_end, dev_addr)
        if remote:
            data_ready += machine.upi.read_extra_ns
        if len(table) >= cache._ways:
            victim = cache.fill_in(table, key, dirty=True,
                                   ready_ns=data_ready)
            if victim is not None and victim[1]:
                machine._evict_writeback(victim[0], thread.now)
        else:
            # fill_in sans victim, inlined
            table[key] = [True, data_ready]
        loads.append(data_ready)                 # track_load, inlined

    # -- flushes ----------------------------------------------------------------

    def clwb(self, thread, addr, size=CACHELINE):
        """Write back (without evicting) every line of the range."""
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            self._clwb_line(thread, addr)
            return
        self._flush(thread, addr, size, invalidate=False)

    def clflushopt(self, thread, addr, size=CACHELINE):
        """Write back and evict every line of the range (non-blocking)."""
        self._flush(thread, addr, size, invalidate=True)

    # clflush has the same simulated cost; its serialization is modelled
    # by callers fencing after each line.
    clflush = clflushopt

    def _clwb_line(self, thread, line):
        """Write back one (line-aligned) cache line; ``clwb`` semantics.

        Exactly the single-line body of :meth:`_flush` without the
        range plumbing — the per-line kernel paths call this directly.
        """
        thread.now += self._cache_cfg.flush_issue_ns
        dirty, ready = self._caches[thread.socket].clean_ready(
            (self.ns_id, line))
        pmcheck = self.machine.pmcheck
        if pmcheck is not None:
            pmcheck.on_flush(thread, self.ns_id, line)
        if dirty:
            self._send_store(thread, line, instr="clwb", ordered=True,
                             not_before=ready)

    def _flush(self, thread, addr, size, invalidate):
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            lines = (addr,)
        else:
            lines = line_addresses(addr, size)
        if self._plain and _engine.FASTPATH_ENABLED:
            self._flush_lines_fused(thread, lines, invalidate)
            return
        cache = self._caches[thread.socket]
        flush_issue_ns = self._cache_cfg.flush_issue_ns
        ns_id = self.ns_id
        send = self._send_store
        pmcheck = self.machine.pmcheck
        for line in lines:
            thread.now += flush_issue_ns
            key = (ns_id, line)
            if invalidate:
                ready = cache.ready_time(key)
                dirty = cache.invalidate(key)
            else:
                dirty, ready = cache.clean_ready(key)
            if pmcheck is not None:
                pmcheck.on_flush(thread, ns_id, line)
            if dirty:
                send(thread, line, instr="clwb", ordered=True,
                     not_before=ready)

    def _flush_lines_fused(self, thread, lines, invalidate):
        """Multi-line flush with the write-back pipeline inlined.

        Per line this performs exactly the composed
        ``cache.ready_time``/``invalidate`` (or ``clean_ready``) and —
        for dirty lines — the full :meth:`_send_store` clwb body, on
        the same state in the same order.  The cache hash is computed
        once per line and shared by the ready-time read and the
        invalidate/clean mutation, which is invisible to results (both
        address the same entry).
        """
        flush_issue_ns = self._cache_cfg.flush_issue_ns
        cache = self._caches[thread.socket]
        sets = cache._sets
        nsets = cache._nsets
        ns_id = self.ns_id
        ns_salt = ns_id * 40503
        insert_lat = self._insert_clwb_ns
        machine = self.machine
        remote = thread.socket != self.socket
        upi = machine.upi
        is_optane = self.is_optane
        tid = thread.tid
        lead = insert_lat
        if remote:
            lead += upi.write_extra_ns
        stores = thread._stores
        store_window = thread.store_window
        pending = thread.pending_persists
        latencies = thread.latencies
        only = self._only_dev
        if only is not None:
            _r, wlink, ccfg, dimm = only
            occ = ccfg.writeback_occ_ns
            free = wlink._free
            ingest = dimm.ingest_write
        else:
            block_bytes = self._block_bytes
            ndimms = self._ndimms
            dev = self._dev
        faults = machine.faults
        data = self.data
        hook = machine._persist_hook
        for line in lines:
            thread.now += flush_issue_ns
            key = (ns_id, line)
            h = ((line >> 6) * _HASH_MULT + ns_salt) & 0xFFFFFFFF
            h ^= h >> 16                         # CacheModel._index
            h = (h * _HASH_MIX) & 0xFFFFFFFF
            table = sets.get((h ^ (h >> 13)) % nsets)
            if invalidate:
                # ready_time + invalidate, one lookup (same entry).
                entry = table.pop(key, None) if table is not None \
                    else None
                if entry is None or not entry[0]:
                    continue
                ready = entry[1]
            else:
                # clean_ready, inlined.
                entry = table.get(key) if table is not None else None
                if entry is None or not entry[0]:
                    continue
                entry[0] = False
                ready = entry[1]
            # -- _send_store(instr="clwb", not_before=ready), inlined --
            issued = thread.now
            if len(stores) >= store_window:      # admit_store, inlined
                done = stores.popleft()
                if done - lead > thread.now:
                    thread.now = done - lead
            insert = max(thread.now + insert_lat, ready + insert_lat)
            if remote:
                insert = upi.write_transfer(
                    thread.now, source=tid, heavy=is_optane) + insert_lat
                insert += upi.write_extra_ns
            pending.append(insert)
            if latencies is not None:
                latencies.append(insert - issued)
            if only is None:
                block, offset = divmod(line, block_bytes)
                sub, di = divmod(block, ndimms)
                _r, wlink, ccfg, dimm = dev[di]
                dev_addr = sub * block_bytes + offset
                occ = ccfg.writeback_occ_ns
                free = wlink._free
                ingest = dimm.ingest_write
            else:
                dev_addr = line
            earliest = free[0]                   # single-server write
            wstart = earliest if earliest > insert else insert
            ch_end = wstart + occ                # link, inlined
            free[0] = ch_end
            wlink.busy_ns += occ
            if ch_end > wlink._last_end:
                wlink._last_end = ch_end
            accept = ingest(ch_end, dev_addr)
            stores.append(accept)                # track_store, inlined
            thread.bytes_written += CACHELINE
            if faults is not None:               # _persist_line, inlined
                faults.before_persist(self, line)
            if data._volatile:
                data.persist_line(line)
            if hook is not None:
                hook()

    # -- non-temporal stores -------------------------------------------------------

    def ntstore(self, thread, addr, size=CACHELINE, data=None):
        """Write-combined stores that bypass the cache hierarchy."""
        if data is not None:
            self.data.write(addr, data)
        if not addr % CACHELINE and 0 < size <= CACHELINE:
            self._ntstore_line(thread, addr)
            return
        if self._plain and _engine.FASTPATH_ENABLED:
            self._ntstore_lines_fused(thread,
                                      line_addresses(addr, size))
            return
        invalidate = self._caches[thread.socket].invalidate
        issue_ns = self._cache_cfg.issue_ns
        ns_id = self.ns_id
        send = self._send_store
        pmcheck = self.machine.pmcheck
        for line in line_addresses(addr, size):
            if pmcheck is not None:
                pmcheck.on_ntstore(thread, ns_id, line)
            thread.now += issue_ns
            invalidate((ns_id, line))
            send(thread, line, instr="nt", ordered=True)

    def _ntstore_lines_fused(self, thread, lines):
        """Multi-line non-temporal store, the whole pipeline inlined.

        Per line this is exactly :meth:`_ntstore_line`'s fused body
        (itself proven byte-identical to the composed
        ``invalidate`` + ``_send_store`` pair), with the per-call
        invariants — WPQ latency, window references, routing for
        non-interleaved namespaces — hoisted out of the loop.  Fault
        hooks and the crash-injection persist hook still run per line,
        in order, so chaos scenarios interrupt at exactly the same
        store as the composed path.
        """
        issue_ns = self._cache_cfg.issue_ns
        cache = self._caches[thread.socket]
        sets = cache._sets
        nsets = cache._nsets
        ns_id = self.ns_id
        ns_salt = ns_id * 40503
        insert_lat = self._insert_nt_ns
        machine = self.machine
        remote = thread.socket != self.socket
        upi = machine.upi
        is_optane = self.is_optane
        tid = thread.tid
        lead = insert_lat
        if remote:
            lead += upi.write_extra_ns
        stores = thread._stores
        store_window = thread.store_window
        pending = thread.pending_persists
        latencies = thread.latencies
        only = self._only_dev
        if only is not None:
            _r, wlink, ccfg, dimm = only
            occ = ccfg.ntstore_occ_ns
            free = wlink._free
            ingest = dimm.ingest_write
        else:
            block_bytes = self._block_bytes
            ndimms = self._ndimms
            dev = self._dev
        faults = machine.faults
        data = self.data
        hook = machine._persist_hook
        for line in lines:
            thread.now += issue_ns
            h = ((line >> 6) * _HASH_MULT + ns_salt) & 0xFFFFFFFF
            h ^= h >> 16                         # cache.invalidate,
            h = (h * _HASH_MIX) & 0xFFFFFFFF     # inlined (the dirty
            table = sets.get((h ^ (h >> 13)) % nsets)    # flag is
            if table is not None:                # unused here)
                table.pop((ns_id, line), None)
            issued = thread.now
            if len(stores) >= store_window:      # admit_store, inlined
                done = stores.popleft()
                if done - lead > issued:
                    thread.now = done - lead
            insert = thread.now + insert_lat
            if remote:
                insert = upi.write_transfer(
                    thread.now, source=tid, heavy=is_optane) + insert_lat
                insert += upi.write_extra_ns
            pending.append(insert)
            if latencies is not None:
                latencies.append(insert - issued)
            if only is None:
                block, offset = divmod(line, block_bytes)
                sub, di = divmod(block, ndimms)
                _r, wlink, ccfg, dimm = dev[di]
                dev_addr = sub * block_bytes + offset
                occ = ccfg.ntstore_occ_ns
                free = wlink._free
                ingest = dimm.ingest_write
            else:
                dev_addr = line
            earliest = free[0]                   # single-server write
            wstart = earliest if earliest > insert else insert
            ch_end = wstart + occ                # link, inlined
            free[0] = ch_end
            wlink.busy_ns += occ
            if ch_end > wlink._last_end:
                wlink._last_end = ch_end
            accept = ingest(ch_end, dev_addr)
            stores.append(accept)                # track_store, inlined
            thread.bytes_written += CACHELINE
            if faults is not None:               # _persist_line, inlined
                faults.before_persist(self, line)
            if data._volatile:
                data.persist_line(line)
            if hook is not None:
                hook()

    def _ntstore_line(self, thread, line):
        """One (line-aligned) non-temporal store; per-line kernel path.

        The fused body below is :meth:`_send_store` with the ``nt``
        branches resolved and the channel booking inlined — same
        operations on the same state in the same order, minus the call
        chain.  Falls back to the composed path whenever a subclass
        specializes a primitive, a tracer is attached, or the fast path
        is globally disabled.
        """
        pmcheck = self.machine.pmcheck
        if pmcheck is not None:
            pmcheck.on_ntstore(thread, self.ns_id, line)
        thread.now += self._cache_cfg.issue_ns
        cache = self._caches[thread.socket]
        ns_id = self.ns_id
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                             # cache.invalidate,
        h = (h * _HASH_MIX) & 0xFFFFFFFF         # inlined (the dirty
        table = cache._sets.get(                 # flag is unused here)
            (h ^ (h >> 13)) % cache._nsets)
        if table is not None:
            table.pop((ns_id, line), None)
        if not (self._plain and _engine.FASTPATH_ENABLED):
            self._send_store(thread, line, instr="nt", ordered=True)
            return
        insert_lat = self._insert_nt_ns
        machine = self.machine
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
        if machine.faults is not None:           # _persist_line, inlined
            machine.faults.before_persist(self, line)
        data = self.data
        if data._volatile:
            # An empty volatile store means persist_line would no-op;
            # skip the call (bandwidth kernels never write payloads).
            data.persist_line(line)
        if machine._persist_hook is not None:
            machine._persist_hook()

    def _store_clwb_line(self, thread, line):
        """``store`` then ``clwb`` of one line — the Figure 2/14 pairing.

        The per-line body of :meth:`_store_line` + :meth:`_clwb_line` +
        :meth:`_send_store` flattened into one frame, with the cache
        hash computed once and its set table shared between the store's
        probe/fill and the flush's clean.  State mutations happen in
        exactly the order of the composed calls; the composition runs
        instead whenever it might diverge (subclass overrides, tracer,
        ``REPRO_FASTPATH=0``).
        """
        if not (self._plain and _engine.FASTPATH_ENABLED):
            self._store_line(thread, line)
            self._clwb_line(thread, line)
            return
        cfg = self._cache_cfg
        thread.now += cfg.issue_ns
        cache = self._caches[thread.socket]
        ns_id = self.ns_id
        key = (ns_id, line)
        h = ((line >> 6) * _HASH_MULT + ns_id * 40503) & 0xFFFFFFFF
        h ^= h >> 16                             # CacheModel._index
        h = (h * _HASH_MIX) & 0xFFFFFFFF
        sets = cache._sets
        index = (h ^ (h >> 13)) % cache._nsets
        table = sets.get(index)
        if table is None:
            table = sets[index] = {}
        machine = self.machine
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
        entry = table.pop(key, None)             # store_probe, inlined
        if entry is not None:
            entry[0] = True
            table[key] = entry                   # now most recent
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
            occ_r = ccfg.read_occ_ns
            if rlink._gap_start:
                _, ch_end = rlink.acquire(start, occ_r)
            else:
                # Gap list empty: tail booking only (acquire, inlined;
                # the gap this booking may open behind itself cannot
                # overflow the bound since the list was empty).
                rlink.busy_ns += occ_r
                tail = rlink._tail
                rstart = tail if tail > start else start
                if rstart - tail > 1e-9:
                    rlink._gap_start.append(tail)
                    rlink._gap_end.append(rstart)
                ch_end = rstart + occ_r
                rlink._tail = ch_end
            data_ready = dimm.read(ch_end, dev_addr)
            if remote:
                data_ready += machine.upi.read_extra_ns
            if len(table) >= cache._ways:
                victim = cache.fill_in(table, key, dirty=True,
                                       ready_ns=data_ready)
                if victim is not None and victim[1]:
                    machine._evict_writeback(victim[0], thread.now)
                entry = table[key]
            else:
                # fill_in sans victim, inlined
                entry = table[key] = [True, data_ready]
            loads.append(data_ready)
        # -- clwb of the line just stored (always present and dirty) --
        thread.now += cfg.flush_issue_ns
        entry[0] = False                         # clean_ready, inlined
        ready = entry[1]
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
        if machine.faults is not None:           # _persist_line, inlined
            machine.faults.before_persist(self, line)
        data = self.data
        if data._volatile:
            # An empty volatile store means persist_line would no-op;
            # skip the call (bandwidth kernels never write payloads).
            data.persist_line(line)
        if machine._persist_hook is not None:
            machine._persist_hook()

    # -- batched run entry points ----------------------------------------------
    #
    # One call per contiguous run of cache lines instead of one call
    # per line: the per-line work goes through the exact same
    # primitives (`_load_line`, `_store_line`, `_send_store`) in the
    # same order, so timing, counters, shared-resource bookings and
    # trace events are identical to issuing the lines one by one.  Only
    # the Python wrapper overhead (argument parsing, `line_addresses`
    # ranges, method dispatch) is amortized.  ``addr`` must be
    # cache-line aligned — unaligned run batching would straddle an
    # extra line and is not semantics-preserving (see README).

    def load_run(self, thread, addr, n_lines):
        """Load ``n_lines`` consecutive lines; returns last completion."""
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
        nt_line = self._ntstore_line
        for _ in range(n_lines):
            nt_line(thread, addr)
            addr += CACHELINE

    # -- the store pipeline ---------------------------------------------------------

    def _send_store(self, thread, line, instr, ordered, not_before=0.0):
        """Push one 64 B line through WPQ -> channel -> DIMM.

        ``not_before`` delays the WPQ insertion until the line's cache
        fill has completed (a write-back cannot outrun its own RFO).
        """
        nt = instr == "nt"
        insert_lat = self._insert_nt_ns if nt else self._insert_clwb_ns
        machine = self.machine
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
        stalled = thread.now - issued       # per-thread WPQ back-pressure
        insert = max(thread.now + insert_lat, not_before + insert_lat)
        if remote:
            insert = machine.upi.write_transfer(
                thread.now, source=thread.tid,
                heavy=self.is_optane) + insert_lat
            insert += machine.upi.write_extra_ns
        if ordered:
            thread.pending_persists.append(insert)
        if machine.tracer is not None:
            machine.tracer.complete(
                issued, "wpq", "wpq.insert." + instr, insert - issued,
                track="t%d" % thread.tid,
                args={"line": line, "ns": self.name,
                      "stall_ns": stalled, "remote": remote})
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
        occ = ccfg.ntstore_occ_ns if nt else ccfg.writeback_occ_ns
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
        if machine.faults is not None:           # _persist_line, inlined
            machine.faults.before_persist(self, line)
        data = self.data
        if data._volatile:
            # An empty volatile store means persist_line would no-op;
            # skip the call (bandwidth kernels never write payloads).
            data.persist_line(line)
        if machine._persist_hook is not None:
            machine._persist_hook()
        return insert

    def _persist_line(self, line):
        """Commit one line to the ADR domain, with fault/crash hooks.

        The fault controller snapshots the line *before* it persists
        (torn-write rollback needs the old contents); the crash hook
        runs after, so a crash at persist #N leaves line N durable —
        modulo any tearing applied at power failure.
        """
        if self.machine.faults is not None:
            self.machine.faults.before_persist(self, line)
        self.data.persist_line(line)
        if self.machine._persist_hook is not None:
            self.machine._persist_hook()

    def _evict_writeback(self, line, now):
        """A natural cache eviction wrote this dirty line back."""
        pmcheck = self.machine.pmcheck
        if pmcheck is not None:
            pmcheck.on_evict(self.ns_id, line)
        channel, dimm = self._route(line)
        ch_end = channel.transfer_writeback(now)
        dimm.ingest_write(ch_end, self._dev_addr(line))
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
        if self.machine.faults is not None:
            self.machine.faults.check_read(self, addr, size, timed=True)
        self.load(thread, addr, size)
        return self.data.read(addr, size)

    def read_volatile(self, addr, size):
        """Peek at the CPU-visible contents without simulated cost."""
        if self.machine.faults is not None:
            self.machine.faults.check_read(self, addr, size)
        return self.data.read(addr, size)

    def read_persistent(self, addr, size):
        """Read the post-crash (durable) contents without simulated cost."""
        if self.machine.faults is not None:
            self.machine.faults.check_read(self, addr, size)
        return self.data.read_persistent(addr, size)

    # -- counters -------------------------------------------------------------------

    def counter_snapshots(self):
        return [dimm.counters.snapshot() for dimm in self.dimms]

    def counter_deltas(self, snapshots):
        return [
            dimm.counters.delta(snap)
            for dimm, snap in zip(self.dimms, snapshots)
        ]
