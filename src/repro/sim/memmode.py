"""Memory Mode: 3D XPoint as big volatile memory behind a DRAM cache.

The platform's second operating mode (Section 2.1.2): each memory
channel's DRAM DIMM becomes a direct-mapped, 64 B-block, write-back
cache for its 3D XPoint DIMM ("near memory" caching "far memory"),
managed transparently by the iMC.  The CPU sees one big volatile
address space; nothing persists across power failure.

The paper studies App Direct mode and notes that the DRAM cache
"mitigates most or all of the effects" its guidelines account for
(Section 6) — which is exactly what this model shows: cache-resident
working sets behave like DRAM, larger ones degrade toward raw Optane.
"""

from repro._units import CACHELINE
from repro.sim.cache import pack
from repro.sim.interleave import InterleavedMapping
from repro.sim.namespace import Namespace


class NearMemoryCache:
    """Direct-mapped DRAM cache in front of one 3D XPoint DIMM.

    Tracks tags and dirtiness exactly; timing charges one DRAM access
    per hit, and on a miss an Optane fill plus (if the victim block is
    dirty) an Optane write-back.
    """

    def __init__(self, dram_dimm, xp_dimm, capacity_bytes):
        self.dram = dram_dimm
        self.xp = xp_dimm
        self.blocks = capacity_bytes // CACHELINE
        self._tags = {}              # set index -> (tag, dirty)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, dev_addr):
        block = dev_addr // CACHELINE
        return block % self.blocks, block // self.blocks

    def access(self, now, dev_addr, is_write):
        """Serve one 64 B access; returns the data-ready/accept time."""
        index, tag = self._locate(dev_addr)
        entry = self._tags.get(index)
        if entry is not None and entry[0] == tag:
            self.hits += 1
            if is_write:
                self._tags[index] = (tag, True)
                return self.dram.ingest_write(now, dev_addr)
            return self.dram.read(now, dev_addr)
        # Miss: write back a dirty victim, fill from far memory.
        self.misses += 1
        t = now
        if entry is not None and entry[1]:
            self.writebacks += 1
            victim_addr = (entry[0] * self.blocks + index) * CACHELINE
            t = self.xp.ingest_write(t, victim_addr)
        ready = self.xp.read(t, dev_addr)
        self._tags[index] = (tag, is_write)
        if is_write:
            return self.dram.ingest_write(ready, dev_addr)
        self.dram.ingest_write(ready, dev_addr)     # install, off path
        return ready


class MemoryModeNamespace(Namespace):
    """A volatile namespace backed by DRAM-cached 3D XPoint."""

    def __init__(self, machine, name, devices, caches, mapping, socket):
        super().__init__(machine, name, devices, mapping, socket,
                         is_optane=True)
        self.volatile = True          # Memory Mode never persists
        self._near = caches

    def _dimm_access(self, thread, line, is_write):
        index, dev_addr = self._mapping.locate(line)
        channel, _ = self._devices[index]
        start = thread.now
        if self._remote(thread):
            start = self._machine().upi.read_transfer(
                start, source=thread.tid, heavy=True)
        ch_end = channel.transfer_read(start)
        return self._near[index].access(ch_end, dev_addr, is_write)

    def _load_line(self, thread, line):
        cfg = self._cfg.cache
        thread.now += cfg.issue_ns
        issued = thread.now
        cache = self._cache(thread)
        key = (self.ns_id, line)
        if cache.lookup(key):
            completion = thread.now + cfg.hit_ns
            thread.now = completion
            thread.bytes_read += CACHELINE
            thread.record_latency(completion - issued)
            return completion
        thread.admit_load()
        data_ready = self._dimm_access(thread, line, is_write=False)
        victim = cache.fill(key, ready_ns=data_ready)
        if victim is not None and victim[1]:
            self._machine()._evict_writeback(pack(victim[0]), thread.now)
        thread.track_load(data_ready)
        thread.bytes_read += CACHELINE
        thread.record_latency(data_ready - issued)
        return data_ready

    def _store_line(self, thread, line):
        cfg = self._cfg.cache
        thread.now += cfg.issue_ns
        cache = self._cache(thread)
        key = (self.ns_id, line)
        if cache.mark_dirty(key):
            return
        thread.admit_load()
        data_ready = self._dimm_access(thread, line, is_write=False)
        victim = cache.fill(key, dirty=True, ready_ns=data_ready)
        if victim is not None and victim[1]:
            self._machine()._evict_writeback(pack(victim[0]), thread.now)
        thread.track_load(data_ready)

    def _ntstore_line(self, thread, line):
        pmcheck = self._machine().pmcheck
        if pmcheck is not None:
            pmcheck.on_ntstore(thread, self.ns_id, line)
        thread.now += self._cfg.cache.issue_ns
        self._cache(thread).invalidate((self.ns_id, line))
        self._send_store(thread, line, 0.0)

    def _store_clwb_line(self, thread, line):
        self._store_line(thread, line)
        self._clwb_line(thread, line)

    def _send_store(self, thread, line, not_before):
        """Write-backs land in the near-memory cache, not the media."""
        insert_lat = 40.0
        thread.admit_store(lead_ns=insert_lat)
        issued = thread.now
        insert = max(thread.now, not_before) + insert_lat
        thread.pending_persists.append(insert)
        if thread.latencies is not None:
            thread.record_latency(insert - issued)
        accept = self._dimm_access_at(insert, line)
        thread.track_store(accept)
        thread.bytes_written += CACHELINE
        # Memory Mode is volatile: no line ever becomes durable, so a
        # written line keeps its pre-image until power_fail restores it.

    def _dimm_access_at(self, now, line):
        index, dev_addr = self._mapping.locate(line)
        channel, _ = self._devices[index]
        ch_end = channel.transfer_writeback(now)
        return self._near[index].access(ch_end, dev_addr, is_write=True)

    def _evict_writeback(self, line, now):
        self._dimm_access_at(now, line)

    def hit_rate(self):
        """Aggregate near-memory hit rate across the DIMM pairs."""
        hits = sum(c.hits for c in self._near)
        misses = sum(c.misses for c in self._near)
        return hits / (hits + misses) if hits + misses else 0.0


def make_memory_mode_namespace(machine, socket=0):
    """Configure a socket's DIMMs in Memory Mode (one namespace).

    Pairs each channel's DRAM DIMM (as the direct-mapped cache) with
    its 3D XPoint DIMM, interleaved exactly like App Direct.
    """
    cfg = machine.config
    devices = machine.optane[socket]
    caches = []
    for d, (channel, xp) in enumerate(devices):
        _, dram = machine.dram[socket][d]
        caches.append(NearMemoryCache(dram, xp, cfg.dram_capacity))
    mapping = InterleavedMapping(cfg.interleave.block_bytes, len(devices))
    return MemoryModeNamespace(
        machine, "memory-mode", devices, caches, mapping, socket)
