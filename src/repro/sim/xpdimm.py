"""One 3D XPoint DIMM: XPController + XPBuffer + AIT + media.

The controller receives 64 B DDR-T transfers from the iMC and turns
them into 256 B media accesses:

* a write that hits a buffered XPLine merges in ``ingest_ns``;
* a write that misses allocates a buffer entry, evicting the set's
  oldest line if needed — a fully written (or fully valid) victim costs
  one media write, a partially written one a read-modify-write;
* a read that hits the buffer returns quickly; a miss fetches the whole
  XPLine from media (and the allocation can evict a dirty victim).

Eviction back-pressure is what bounds sustained write bandwidth: the
controller's accept time for a miss waits for the media bank *booking*
(posted write), so once the banks backlog, accepts — and therefore the
WPQ, and therefore the application's stores — stall.

The buffer transitions live inline in :meth:`XPDimm.ingest_write` and
:meth:`XPDimm.read`, which run once per 64 B beat; every media access
goes through :meth:`XPMedia.read_line` / :meth:`XPMedia.write_line`,
traced or not.
"""

from repro._units import CACHELINE
from repro.sim.counters import DimmCounters
from repro.sim.media import XPMedia
from repro.sim.xpbuffer import BufferEntry, XPBuffer


class XPDimm:
    """A single Optane DC PMM as seen from its memory channel."""

    def __init__(self, machine_config, name, tracer=None):
        self.name = name
        self._buf_cfg = machine_config.xpbuffer
        self._tracer = tracer
        self.counters = DimmCounters()
        self.buffer = XPBuffer(machine_config.xpbuffer)
        self.media = XPMedia(
            machine_config.media, machine_config.ait, self.counters,
            name=name + ".media", tracer=tracer)

    @property
    def thermal_stalls(self):
        return self.media.ait.thermal_stalls

    # -- controller entry points -------------------------------------------

    def ingest_write(self, now, dev_addr):
        """Accept one 64 B write from the WPQ; returns the accept time.

        A write to a resident line's clean subline combines into it
        without moving the line in its set's FIFO.  Combining is
        write-once per subline: overwriting a dirty subline flushes the
        line's previous version to media and restarts the entry.  A
        miss allocates, evicting the set's oldest line when it is full.
        """
        self.counters.imc_write_bytes += CACHELINE
        xpline = dev_addr >> 8                   # divmod by XPLINE (256)
        subline = (dev_addr >> 6) & 3            # ... // CACHELINE (64)
        bit = 1 << subline
        buf = self.buffer
        table = buf._table[xpline % buf._sets]
        entry = table.get(xpline)
        hit = False
        evicted = None
        if entry is not None:
            if not entry.dirty_mask & bit:
                entry.dirty_mask |= bit
                buf.hits += 1
                hit = True
            else:
                # Overwrite: flush the old version, restart the entry.
                del table[xpline]
                table[xpline] = BufferEntry(xpline, dirty_mask=bit)
                buf.misses += 1
                evicted = entry
        else:
            buf.misses += 1
            if len(table) >= buf._ways:
                _, evicted = table.popitem(last=False)
            table[xpline] = BufferEntry(xpline, dirty_mask=bit)
        ingest_ns = self._buf_cfg.ingest_ns
        accept = now + ingest_ns
        if evicted is not None and evicted.dirty_mask:
            bank_start = self._evict(now, evicted)
            if bank_start + ingest_ns > accept:
                accept = bank_start + ingest_ns
        if self._tracer is not None:
            if hit:
                name = "xpbuffer.combine"
            elif evicted is not None and evicted.dirty:
                name = "xpbuffer.evict"
            else:
                name = "xpbuffer.alloc"
            self._tracer.complete(
                now, "xpbuffer", name, accept - now, track=self.name,
                args={"xpline": xpline, "subline": subline,
                      "occupancy": self.buffer.occupancy(),
                      "rmw": (evicted.needs_rmw()
                              if evicted is not None else False)})
        return accept

    def read(self, now, dev_addr):
        """Serve one 64 B read; returns the data-ready time.

        A hit does not move the line in its set's FIFO.  A miss
        allocates a fully valid entry (the whole XPLine comes from
        media), and that allocation can push a dirty write out.
        """
        self.counters.imc_read_bytes += CACHELINE
        xpline = dev_addr >> 8                   # // XPLINE (256)
        buf = self.buffer
        table = buf._table[xpline % buf._sets]
        if xpline in table:
            buf.hits += 1
            ready = now + self._buf_cfg.read_hit_ns + \
                self.media._cfg.read_extra_ns
            if self._tracer is not None:
                self._tracer.complete(
                    now, "xpbuffer", "xpbuffer.read_hit", ready - now,
                    track=self.name, args={"xpline": xpline})
            return ready
        buf.misses += 1
        evicted = None
        if len(table) >= buf._ways:
            _, evicted = table.popitem(last=False)
        table[xpline] = BufferEntry(xpline, valid=True)
        if evicted is not None and evicted.dirty_mask:
            self._evict(now, evicted)
        data_ready = self.media.read_line(now, xpline)[1]
        if self._tracer is not None:
            self._tracer.complete(
                now, "xpbuffer", "xpbuffer.read_miss", data_ready - now,
                track=self.name,
                args={"xpline": xpline,
                      "evicted_dirty": (evicted is not None
                                        and evicted.dirty)})
        return data_ready

    def _evict(self, now, entry):
        """Write a victim line back to media.

        Returns the bank's end time less the line's unscaled occupancy:
        the booking's start unless a stall or a throttle stretched it.
        """
        rmw = entry.needs_rmw()
        end = self.media.write_line(now, entry.xpline, rmw)
        cfg = self.media._cfg
        if rmw:
            return end - (cfg.read_occupancy_ns + cfg.write_occupancy_ns)
        return end - cfg.write_occupancy_ns

    # -- management ----------------------------------------------------------

    def drain(self, now):
        """Flush every dirty buffered line to media (namespace teardown)."""
        t = now
        for entry in self.buffer.flush_all():
            t = self._evict(t, entry)
        return t
