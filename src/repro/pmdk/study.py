"""Micro-buffering instruction tuning (Figure 15).

Latency of a no-op transaction (stage the object, commit it unchanged)
for object sizes 64 B - 8 KB, with non-temporal (PGL-NT) versus cached
store+clwb (PGL-CLWB) write-back.  The paper's crossover sits at
~1 KB, the simulator's between 256 B and 512 B
(:data:`~repro.core.guidelines.NTSTORE_CROSSOVER_BYTES`): below it, the
flush path's cheaper WPQ insertion wins; above it, the non-temporal
path's lower per-line cost and avoided cache traffic win.
"""

import statistics
from dataclasses import dataclass

from repro._units import KIB, MIB
from repro.pmdk.microbuffer import MicroBufferTx
from repro.pmdk.pool import PmemPool
from repro.sim import Machine


@dataclass
class TxLatency:
    """Mean no-op transaction latency for one configuration."""

    variant: str
    object_size: int
    mean_ns: float


def noop_tx_latency(writeback, object_size, reps=100, machine=None,
                    kind="optane"):
    """One point of Figure 15."""
    m = machine if machine is not None else Machine()
    setup = m.thread()
    pool = PmemPool.create(m, setup, kind=kind, size=64 * MIB)
    t = m.thread()
    offsets = [pool.heap.alloc(object_size) - pool.base
               for _ in range(reps)]
    # Materialise the objects once so staging reads hit real data.
    for off in offsets:
        pool.write(setup, off, b"\x5A" * object_size, instr="ntstore")
    lats = []
    for off in offsets:
        start = t.now
        tx = MicroBufferTx(pool, t, writeback=writeback)
        tx.open(off, object_size)
        tx.commit()
        lats.append(t.now - start)
    return TxLatency(variant="PGL-NT" if writeback == "ntstore"
                     else "PGL-CLWB",
                     object_size=object_size,
                     mean_ns=statistics.fmean(lats))


def figure15(sizes=(64, 128, 256, 512, 1 * KIB, 2 * KIB, 4 * KIB,
                    8 * KIB), reps=60):
    """Both curves; returns ``{variant: [(size, mean_ns)]}``."""
    curves = {"PGL-NT": [], "PGL-CLWB": []}
    for size in sizes:
        for wb in ("ntstore", "clwb"):
            r = noop_tx_latency(wb, size, reps=reps)
            curves[r.variant].append((size, r.mean_ns))
    return curves


def crossover_size(curves):
    """The smallest size at which PGL-NT beats PGL-CLWB."""
    nt = dict(curves["PGL-NT"])
    clwb = dict(curves["PGL-CLWB"])
    for size in sorted(nt):
        if nt[size] < clwb[size]:
            return size
    return None
