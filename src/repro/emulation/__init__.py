"""NVM emulation methodologies the paper evaluates (Section 4).

Researchers emulated persistent memory before real DIMMs existed; the
paper shows every methodology misses key Optane behaviour.  Each
emulator is a plain namespace, so any experiment (or application
substrate) runs unchanged on top of it
(:func:`~repro.emulation.pmep.make_emulated_namespace`):

* plain local DRAM;
* DRAM-Remote — plain DRAM on the far socket (NUMA emulation);
* PMEP — Intel's Persistent Memory Emulator Platform: DRAM plus a
  fixed load-latency adder and a write-bandwidth throttle (the
  "300 ns / BW/8" standard config).
"""

from repro.emulation.pmep import make_emulated_namespace
from repro.emulation.study import figure7

__all__ = ["figure7", "make_emulated_namespace"]
