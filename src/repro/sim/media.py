"""3D XPoint media model.

The media behind one DIMM is a pool of ``banks`` concurrently busy
units accessed at XPLine (256 B) granularity.  Reads and writes have
strongly asymmetric occupancies (the paper measures a 2.9x per-DIMM
read/write bandwidth gap); wear-levelling stalls from the AIT are
charged to the access that triggered them.

Each access has one body: :meth:`XPMedia.read_line` and
:meth:`XPMedia.write_line` (a partial-line eviction is a write with
``rmw=True``).  Both book their bank inline, and the tracer sits in
them as ``is None`` tests that only emit events.
"""

from heapq import heapreplace as _heapreplace

from repro._units import XPLINE
from repro.sim.ait import AddressIndirectionTable
from repro.sim.engine import Resource


class XPMedia:
    """Banked 256 B-granularity storage media with wear levelling."""

    def __init__(self, config, ait_config, counters, name="media",
                 tracer=None):
        self._cfg = config
        self.name = name
        self._banks = Resource(name, config.banks)
        phase = sum(name.encode()) * 97          # deterministic per DIMM
        self.ait = AddressIndirectionTable(ait_config, phase=phase)
        self.counters = counters
        self._tracer = tracer
        # Optional FaultController (repro.faults.model): thermal
        # throttle windows stretch occupancies while they are open.
        self.fault_controller = None

    def read_line(self, now, xpline):
        """Fetch one XPLine; returns (bank_free_at, data_ready_at)."""
        cfg = self._cfg
        budget = cfg.power_budget
        if budget <= 0:
            raise ValueError("power budget must be positive")
        occ = cfg.read_occupancy_ns / budget
        if self.fault_controller is not None:
            occ *= self.fault_controller.throttle_factor(now)
        banks = self._banks                      # acquire, inlined
        free = banks._free
        earliest = free[0]
        start = earliest if earliest > now else now
        end = start + occ
        if banks._single:
            free[0] = end
        else:
            _heapreplace(free, end)
        banks.busy_ns += occ
        if end > banks._last_end:
            banks._last_end = end
        self.counters.media_read_bytes += XPLINE
        if self._tracer is not None:
            self._tracer.complete(
                start, "media", "media.read", end - start,
                track=self.name, args={"xpline": xpline,
                                       "queued_ns": start - now})
        return end, end + cfg.read_extra_ns

    def write_line(self, now, xpline, rmw=False):
        """Write one XPLine back; returns the time the bank frees up.

        ``rmw`` marks a partially written line: the media reads it
        first, and the read and the write occupy the same bank back to
        back, which is why small stores with poor locality are so
        expensive.  Wear-levelling migrations and thermal stalls extend
        the occupancy, which is how the 50 us outliers back-pressure the
        pipeline all the way to the application store.
        """
        cfg = self._cfg
        budget = cfg.power_budget
        if budget <= 0:
            raise ValueError("power budget must be positive")
        controller = self.fault_controller
        counters = self.counters
        if rmw:
            if controller is not None:
                factor = controller.throttle_factor(now)
                occ = (cfg.read_occupancy_ns / budget * factor
                       + cfg.write_occupancy_ns / budget * factor)
            else:
                occ = cfg.read_occupancy_ns / budget + \
                    cfg.write_occupancy_ns / budget
        else:
            occ = cfg.write_occupancy_ns / budget
            if controller is not None:
                occ *= controller.throttle_factor(now)
        ait = self.ait
        tracer = self._tracer
        if tracer is not None:
            migrations = ait.migrations
            thermal = ait.thermal_stalls
        stall = ait.record_write(xpline)
        if tracer is not None:
            # The AIT's counters tell a migration from a thermal stall.
            tracer.instant(now, "ait", "ait.lookup", track=self.name,
                           args={"xpline": xpline,
                                 "hot": ait.hot_of(xpline)})
            if stall and ait.migrations > migrations:
                tracer.instant(now, "ait", "ait.migrate", track=self.name,
                               args={"xpline": xpline, "stall_ns": stall})
            if stall and ait.thermal_stalls > thermal:
                tracer.instant(now, "ait", "ait.thermal", track=self.name,
                               args={"xpline": xpline, "stall_ns": stall})
        if stall:
            counters.migrations += 1
        occ += stall
        banks = self._banks                      # acquire, inlined
        free = banks._free
        earliest = free[0]
        start = earliest if earliest > now else now
        end = start + occ
        if banks._single:
            free[0] = end
        else:
            _heapreplace(free, end)
        banks.busy_ns += occ
        if end > banks._last_end:
            banks._last_end = end
        # Both byte counts move here, after the AIT instants: a tracer's
        # counter sample taken at one of them must not count the line.
        if rmw:
            counters.media_read_bytes += XPLINE
        counters.media_write_bytes += XPLINE
        if tracer is not None:
            tracer.complete(
                start, "media", "media.rmw" if rmw else "media.write",
                end - start, track=self.name,
                args={"xpline": xpline, "queued_ns": start - now,
                      "stall_ns": stall})
        return end
