"""3D XPoint media model.

The media behind one DIMM is a pool of ``banks`` concurrently busy
units accessed at XPLine (256 B) granularity.  Reads and writes have
strongly asymmetric occupancies (the paper measures a 2.9x per-DIMM
read/write bandwidth gap); wear-levelling stalls from the AIT are
charged to the access that triggered them.
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

    def _scaled(self, occupancy, now=0.0):
        budget = self._cfg.power_budget
        if budget <= 0:
            raise ValueError("power budget must be positive")
        occ = occupancy / budget
        if self.fault_controller is not None:
            occ *= self.fault_controller.throttle_factor(now)
        return occ

    def read_line(self, now, xpline):
        """Fetch one XPLine; returns (bank_free_at, data_ready_at)."""
        cfg = self._cfg
        budget = cfg.power_budget                # _scaled, inlined
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

    def write_line(self, now, xpline):
        """Write one full XPLine; returns the time the bank frees up.

        Wear-levelling migrations extend the bank occupancy by the
        migration stall, which is how the 50 us outliers back-pressure
        the pipeline all the way to the application store.
        """
        cfg = self._cfg
        budget = cfg.power_budget                # _scaled, inlined
        if budget <= 0:
            raise ValueError("power budget must be positive")
        occ = cfg.write_occupancy_ns / budget
        if self.fault_controller is not None:
            occ *= self.fault_controller.throttle_factor(now)
        if self._tracer is None:                 # _record_write, inlined
            stall = self.ait.record_write(xpline)
            if stall:
                self.counters.migrations += 1
        else:
            stall = self._record_write(now, xpline)
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
        self.counters.media_write_bytes += XPLINE
        if self._tracer is not None:
            self._tracer.complete(
                start, "media", "media.write", end - start,
                track=self.name,
                args={"xpline": xpline, "queued_ns": start - now,
                      "stall_ns": stall})
        return end

    def rmw_line(self, now, xpline):
        """Read-modify-write of one XPLine (partial-line eviction).

        The read and the write occupy the same bank back to back, which
        is why small stores with poor locality are so expensive.
        """
        cfg = self._cfg
        budget = cfg.power_budget                # _scaled x2, inlined
        if budget <= 0:
            raise ValueError("power budget must be positive")
        occ = cfg.read_occupancy_ns / budget + \
            cfg.write_occupancy_ns / budget
        if self.fault_controller is not None:
            factor = self.fault_controller.throttle_factor(now)
            occ = (cfg.read_occupancy_ns / budget * factor
                   + cfg.write_occupancy_ns / budget * factor)
        if self._tracer is None:                 # _record_write, inlined
            stall = self.ait.record_write(xpline)
            if stall:
                self.counters.migrations += 1
        else:
            stall = self._record_write(now, xpline)
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
        counters = self.counters
        counters.media_read_bytes += XPLINE
        counters.media_write_bytes += XPLINE
        if self._tracer is not None:
            self._tracer.complete(
                start, "media", "media.rmw", end - start,
                track=self.name,
                args={"xpline": xpline, "queued_ns": start - now,
                      "stall_ns": stall})
        return end

    def _record_write(self, now, xpline):
        """AIT housekeeping for one media write; returns the stall ns.

        When tracing, migration and thermal stalls additionally surface
        as instant events (the AIT's counters tell the two apart).
        """
        if self._tracer is None:
            stall = self.ait.record_write(xpline)
            if stall:
                self.counters.migrations += 1
            return stall
        migrations = self.ait.migrations
        thermal = self.ait.thermal_stalls
        stall = self.ait.record_write(xpline)
        self._tracer.instant(
            now, "ait", "ait.lookup", track=self.name,
            args={"xpline": xpline, "hot": self.ait.hot_of(xpline)})
        if stall:
            self.counters.migrations += 1
            if self.ait.migrations > migrations:
                self._tracer.instant(
                    now, "ait", "ait.migrate", track=self.name,
                    args={"xpline": xpline, "stall_ns": stall})
            if self.ait.thermal_stalls > thermal:
                self._tracer.instant(
                    now, "ait", "ait.thermal", track=self.name,
                    args={"xpline": xpline, "stall_ns": stall})
        return stall

    def next_free_at(self):
        return self._banks.next_free_at()

    def reset(self):
        self._banks.reset()
        self.ait.reset()
