"""DDR4 DRAM DIMM model (the comparison baseline throughout the paper).

DRAM is modelled as a pool of banks with a row buffer each: an access
that hits the open row is cheap; a row miss pays activate+precharge.
Unlike the Optane model there is no access-granularity mismatch, no
write-combining buffer and no wear levelling — which is precisely why
DRAM "emulation" of persistent memory misses so much behaviour.
"""

from heapq import heapreplace as _heapreplace

from repro._units import CACHELINE
from repro.sim.counters import DimmCounters
from repro.sim.engine import Resource


class DRAMDimm:
    """One DDR4 DIMM with a simple per-bank open-row policy.

    Reads and writes are served by separate pools: the iMC schedules
    demand reads with priority and drains buffered writes opportunist-
    ically, so a read issued now is never stalled behind write slots
    the WPQ booked into the future.
    """

    WRITE_SLOTS = 4

    def __init__(self, config, name, tracer=None):
        self.name = name
        self._cfg = config
        self._tracer = tracer
        self._banks = Resource(name + ".banks", config.banks)
        self._write_slots = Resource(name + ".wr", self.WRITE_SLOTS)
        self._open_rows = {}
        self.counters = DimmCounters()

    def read(self, now, dev_addr):
        """Serve one 64 B read; returns the data-ready time."""
        cfg = self._cfg
        self.counters.imc_read_bytes += CACHELINE
        row = dev_addr // cfg.row_bytes
        bank = row % cfg.banks
        rows = self._open_rows
        row_hit = rows.get(bank) == row
        rows[bank] = row
        if row_hit:
            occ = cfg.row_hit_occupancy_ns
        else:
            occ = cfg.row_miss_occupancy_ns
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
        if self._tracer is not None:
            self._tracer.complete(
                start, "dram", "dram.read", end - start, track=self.name,
                args={"row_hit": row_hit, "queued_ns": start - now})
        return end + cfg.read_extra_ns

    def ingest_write(self, now, dev_addr):
        """Accept one 64 B write; returns the accept time."""
        cfg = self._cfg
        self.counters.imc_write_bytes += CACHELINE
        row = dev_addr // cfg.row_bytes
        self._open_rows[row % cfg.banks] = row
        occ = cfg.write_occupancy_ns
        slots = self._write_slots                # acquire, inlined
        free = slots._free
        earliest = free[0]
        start = earliest if earliest > now else now
        end = start + occ
        if slots._single:
            free[0] = end
        else:
            _heapreplace(free, end)
        slots.busy_ns += occ
        if end > slots._last_end:
            slots._last_end = end
        if self._tracer is not None:
            self._tracer.complete(
                start, "dram", "dram.write", end - start, track=self.name,
                args={"queued_ns": start - now})
        return end

    def drain(self, now):
        return now
