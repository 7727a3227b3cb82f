"""Integrated memory controller: channels and the WPQ/ADR boundary.

Each DIMM hangs off its own :class:`MemoryChannel`.  The channel is a
single-server resource whose per-64 B occupancy differs by traffic type
(reads, cache write-backs, non-temporal stores); for DRAM the channel
is the bandwidth cap, for Optane the media is.

The write pending queue (WPQ) sits inside the ADR domain: a store is
*persistent* the moment it is inserted, long before the DIMM accepts
it.  Insert latencies differ per instruction path and device, and are
calibrated so the end-to-end fenced store sequences of Figure 2 land on
the published numbers.  WPQ capacity per thread (256 B = 4 lines) is
enforced by the per-thread store window in :class:`~repro.sim.engine.ThreadCtx`.
"""

from repro.sim.engine import BackfillResource, Resource


class MemoryChannel:
    """The DDR4/DDR-T link between one iMC port and one DIMM.

    Reads (RPQ) and writes (WPQ) are separate queues on real hardware:
    the read path backfills idle slots (a demand load issued "now" is
    not blocked by write-backs the WPQ already booked a few hundred ns
    into the future), while the write path drains strictly in FIFO
    arrival order — which is what makes the DIMM-side write-combining
    behaviour depend on cross-thread arrival interleaving.
    """

    def __init__(self, config, name):
        self._cfg = config
        self._read_link = BackfillResource(name + ".rd", max_gaps=32)
        self._write_link = Resource(name + ".wr", 1)

    def transfer_read(self, now):
        _, end = self._read_link.acquire(now, self._cfg.read_occ_ns)
        return end

    def transfer_writeback(self, now):
        _, end = self._write_link.acquire(now, self._cfg.writeback_occ_ns)
        return end


def wpq_insert_latency(wpq_config, instr, is_optane):
    """WPQ insertion latency for a store travelling ``instr`` path.

    ``instr`` is ``"clwb"`` for the cached write-back path (clwb,
    clflush, clflushopt and natural evictions share it) or ``"nt"`` for
    non-temporal stores.
    """
    if instr == "nt":
        if is_optane:
            return wpq_config.insert_nt_optane_ns
        return wpq_config.insert_nt_ns
    if is_optane:
        return wpq_config.insert_clwb_optane_ns
    return wpq_config.insert_clwb_ns
