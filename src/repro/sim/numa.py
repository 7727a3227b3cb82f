"""Cross-socket topology: the UPI interconnect.

Remote accesses pay a fixed latency adder plus occupancy on a shared
directional link.  The link charges a turnaround penalty whenever
consecutive transfers change direction — under multi-threaded mixed
read/write traffic the turnarounds dominate and remote bandwidth
collapses (up to ~30x in the paper), which is guideline #4: avoid
mixed or multi-threaded accesses to remote NUMA nodes.
"""

from repro.sim.engine import DirectionalLink


class Interconnect:
    """The UPI link between the two sockets."""

    def __init__(self, config, name="upi", tracer=None):
        self._cfg = config
        self.name = name
        self._tracer = tracer
        self._link = DirectionalLink(name, config.turnaround_ns)

    @property
    def read_extra_ns(self):
        return self._cfg.read_extra_ns

    @property
    def write_extra_ns(self):
        return self._cfg.write_extra_ns

    def read_transfer(self, now, source=None, heavy=True):
        """Book a 64 B read-response transfer; returns its end time."""
        turnarounds = self._link.turnarounds
        start, end = self._link.transfer(now, self._cfg.read_occ_ns,
                                         "rd", source=source, heavy=heavy)
        if self._tracer is not None:
            self._trace(now, start, end, "rd", source, turnarounds)
        return end

    def write_transfer(self, now, source=None, heavy=True):
        """Book a 64 B write transfer; returns its end time."""
        occ = self._cfg.write_occ_ns if heavy \
            else self._cfg.write_occ_light_ns
        turnarounds = self._link.turnarounds
        start, end = self._link.transfer(now, occ, "wr",
                                         source=source, heavy=heavy)
        if self._tracer is not None:
            self._trace(now, start, end, "wr", source, turnarounds)
        return end

    def _trace(self, now, start, end, direction, source, turnarounds):
        """One UPI transfer span, plus a turnaround instant if it paid one."""
        self._tracer.complete(
            start, "upi", "upi." + direction, end - start,
            track=self.name,
            args={"source": source, "queued_ns": start - now})
        if self._link.turnarounds > turnarounds:
            self._tracer.instant(
                start, "upi", "upi.turnaround", track=self.name,
                args={"direction": direction, "source": source})
