"""The simulated Cascade Lake + Optane DC PMM platform.

Public surface::

    from repro.sim import Machine, MachineConfig, default_config

    m = Machine()
    pmem = m.namespace("optane")          # 6 DIMMs, 4 KB interleaved
    t = m.thread()
    pmem.pwrite(t, 0, b"hello", instr="ntstore")
    m.power_fail()
    assert pmem.read_persistent(0, 5) == b"hello"
"""

from repro.sim.config import (
    AITConfig, CacheConfig, ChannelConfig, DRAMConfig, InterleaveConfig,
    MachineConfig, MediaConfig, NUMAConfig, WPQConfig, XPBufferConfig,
    default_config,
)
from repro.sim.counters import (
    EWR_UNDEFINED, CounterSnapshot, aggregate, effective_write_ratio,
    is_ewr_defined, write_amplification,
)
from repro.sim.engine import (
    BackfillResource, DirectionalLink, Resource, ThreadCtx, run_workloads,
)
from repro.sim.memmode import (
    MemoryModeNamespace, NearMemoryCache, make_memory_mode_namespace,
)
from repro.sim.namespace import Namespace
from repro.sim.platform import Machine

__all__ = [
    "AITConfig", "BackfillResource", "CacheConfig", "ChannelConfig",
    "CounterSnapshot", "DRAMConfig", "DirectionalLink", "EWR_UNDEFINED",
    "InterleaveConfig", "Machine", "MachineConfig", "MediaConfig",
    "MemoryModeNamespace", "NUMAConfig", "Namespace", "NearMemoryCache",
    "Resource", "ThreadCtx", "WPQConfig", "XPBufferConfig", "aggregate",
    "default_config", "effective_write_ratio", "is_ewr_defined",
    "make_memory_mode_namespace", "run_workloads", "write_amplification",
]
