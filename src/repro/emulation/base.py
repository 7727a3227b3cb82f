"""Common plumbing for emulated-NVM namespaces.

An emulated namespace *is* a namespace (it subclasses
:class:`repro.sim.namespace.Namespace`), so LATTester kernels and the
application substrates run on it unchanged.  Factories below configure
the three methodologies the paper compares.
"""

from repro.sim.namespace import Namespace


class EmulatedNamespace(Namespace):
    """A namespace whose persistence is only pretend.

    Emulation treats DRAM contents as durable; ``pretend_persistent``
    makes ``power_fail`` keep everything, mimicking experiments that
    simply declared DRAM persistent.
    """

    def __init__(self, machine, name, devices, mapping, socket,
                 pretend_persistent=True):
        super().__init__(machine, name, devices, mapping, socket,
                         is_optane=False)
        self.pretend_persistent = pretend_persistent


def make_emulated_namespace(machine, methodology="dram"):
    """Build an emulated-NVM namespace on a machine.

    ``methodology``: "dram" (plain local DRAM), "dram-remote" (DRAM on
    the far socket) or "pmep" (latency/bandwidth-throttled DRAM).
    """
    if methodology == "dram":
        return machine.namespace("dram")
    if methodology == "dram-remote":
        return machine.namespace("dram-remote")
    if methodology == "pmep":
        from repro.emulation.pmep import make_pmep_namespace
        return make_pmep_namespace(machine)
    raise ValueError("unknown emulation methodology: %r" % (methodology,))
