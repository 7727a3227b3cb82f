"""repro — reproduction of "An Empirical Guide to the Behavior and Use of
Scalable Persistent Memory" (Yang et al., FAST 2020).

The package builds, in pure Python, everything the paper's evaluation
needs: a calibrated simulator of the Optane DC PMM memory hierarchy
(:mod:`repro.sim`), the LATTester microbenchmark suite
(:mod:`repro.lattester`), the emulation methodologies the paper debunks
(:mod:`repro.emulation`), the paper's four guidelines as a programmatic
advisor (:mod:`repro.core`), and the application case studies: an LSM
key-value store (:mod:`repro.kvstore`), a NOVA-like file system
(:mod:`repro.fs`), a PMDK-like transactional library
(:mod:`repro.pmdk`) and a concurrent persistent KV engine
(:mod:`repro.pmemkv`).
"""

from repro.sim import Machine, MachineConfig, default_config

__version__ = "1.10.5"

__all__ = ["Machine", "MachineConfig", "default_config", "__version__"]
