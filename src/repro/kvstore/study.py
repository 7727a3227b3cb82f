"""The RocksDB migration study (Figure 8).

db_bench-style SET workload: 20-byte keys, 100-byte values, database
synced after every operation — run against the three durability
strategies on DRAM-backed "persistent" memory and on real (simulated)
Optane.  The paper's punchline: DRAM emulation favours the persistent
memtable (+19 %), real 3D XPoint favours the FLEX WAL (+10 %) —
emulation inverts the design decision.
"""

import random
from dataclasses import dataclass

from repro._units import NS_PER_S
from repro.kvstore.lsm import LSMStore
from repro.sim import Machine

KEY_SIZE = 20
VALUE_SIZE = 100

#: Fixed per-operation engine overhead (request parsing, versioning,
#: db_bench accounting) charged as compute time, calibrated to put
#: absolute throughput in the paper's few-hundred-KOps range.
ENGINE_OVERHEAD_NS = 400.0


@dataclass
class SetResult:
    """Throughput of one db_bench SET run."""

    mode: str
    kind: str
    ops: int
    elapsed_ns: float

    @property
    def kops_per_sec(self):
        return self.ops / (self.elapsed_ns / NS_PER_S) / 1e3


def make_key(i):
    return b"%019d" % i


def make_value(rng):
    return bytes(rng.getrandbits(8) for _ in range(4)) * (VALUE_SIZE // 4)


def set_benchmark(mode, kind="optane", ops=8000, machine=None, seed=11,
                  sync=True, memtable_bytes=None):
    """Run SET for ``ops`` operations; returns a :class:`SetResult`."""
    m = machine if machine is not None else Machine()
    kwargs = {} if memtable_bytes is None else \
        {"memtable_bytes": memtable_bytes}
    store = LSMStore(m, mode=mode, kind=kind, seed=seed, **kwargs)
    t = m.thread()
    rng = random.Random(seed)
    keys = list(range(ops))
    rng.shuffle(keys)
    start = t.now
    for i in keys:
        t.sleep(ENGINE_OVERHEAD_NS)
        store.put(t, make_key(i), make_value(rng), sync=sync)
    return SetResult(mode=mode, kind=kind, ops=ops, elapsed_ns=t.now - start)


def figure8(ops=25000, modes=("wal-posix", "wal-flex",
                              "persistent-memtable"),
            kinds=("dram", "optane")):
    """Both panels of Figure 8: ``{(kind, mode): SetResult}``.

    Run at the paper's working-set relationship: the memtable is larger
    than the LLC (RocksDB defaults to a 64 MB memtable vs a 33 MB LLC),
    so skiplist splice targets are cache-cold.  We scale both down
    (8 MB memtable, 2 MB LLC) to keep the simulation fast.
    """
    from repro._units import MIB
    from repro.sim import MachineConfig
    results = {}
    for kind in kinds:
        for mode in modes:
            cfg = MachineConfig()
            cfg.cache.capacity_bytes = 2 * MIB
            machine = Machine(cfg)
            results[kind, mode] = set_benchmark(
                mode, kind=kind, ops=ops, machine=machine,
                memtable_bytes=8 * MIB)
    return results
