"""The emulation methodologies: plain DRAM, DRAM-Remote and PMEP.

Intel PMEP is DRAM with latency and bandwidth knobs, in the standard
configuration used by NOVA, Mojim and others: +300 ns on load
instructions, write bandwidth throttled to 1/8 of DRAM's.  The paper
shows this captures neither the XPLine granularity nor the pattern
sensitivity of real 3D XPoint.
"""

from repro.sim.dram import DRAMDimm
from repro.sim.engine import Resource
from repro.sim.imc import MemoryChannel
from repro.sim.interleave import InterleavedMapping
from repro.sim.namespace import Namespace

#: The standard PMEP configuration from the papers that used it.
PMEP_READ_EXTRA_NS = 300.0
PMEP_WRITE_THROTTLE_FACTOR = 8


class PMEPDimm:
    """A DRAM DIMM behind PMEP's latency adder and write throttle."""

    def __init__(self, dram_config, throttle, name):
        self._dram = DRAMDimm(dram_config, name)
        self._throttle = throttle
        self.name = name

    @property
    def counters(self):
        return self._dram.counters

    def read(self, now, dev_addr):
        return self._dram.read(now, dev_addr) + PMEP_READ_EXTRA_NS

    def ingest_write(self, now, dev_addr):
        # The throttle is global across the emulated device, as PMEP's
        # bandwidth limiter was.
        _, gate = self._throttle.acquire(now, self._throttle_occ_ns)
        return self._dram.ingest_write(gate, dev_addr)

    @property
    def _throttle_occ_ns(self):
        # DRAM writes drain one 64 B line per write_occupancy/banks; the
        # throttle stretches that by the configured factor.
        cfg = self._dram._cfg
        per_line = cfg.write_occupancy_ns / cfg.banks
        return per_line * PMEP_WRITE_THROTTLE_FACTOR

    def drain(self, now):
        return now


def make_pmep_namespace(machine):
    """A plain (non-Optane) namespace on PMEP-emulated persistent
    memory, interleaved on the local socket."""
    cfg = machine.config
    throttle = Resource("pmep.throttle", 1)
    devices = []
    for d in range(cfg.dimms_per_socket):
        channel = MemoryChannel(cfg.channel, "ch.pmep.%d" % d)
        devices.append((channel, PMEPDimm(cfg.dram, throttle,
                                          "pmep.%d" % d)))
    mapping = InterleavedMapping(cfg.interleave.block_bytes, len(devices))
    return Namespace(machine, "pmep", devices, mapping, socket=0,
                     is_optane=False)


def make_emulated_namespace(machine, methodology="dram"):
    """Build an emulated-NVM namespace on a machine.

    ``methodology``: "dram" (plain local DRAM), "dram-remote" (DRAM on
    the far socket) or "pmep" (latency/bandwidth-throttled DRAM).
    """
    if methodology in ("dram", "dram-remote"):
        return machine.namespace(methodology)
    if methodology == "pmep":
        return make_pmep_namespace(machine)
    raise ValueError("unknown emulation methodology: %r" % (methodology,))


__all__ = [
    "PMEPDimm", "PMEP_READ_EXTRA_NS", "PMEP_WRITE_THROTTLE_FACTOR",
    "make_emulated_namespace", "make_pmep_namespace",
]
