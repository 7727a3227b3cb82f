"""Idle-latency measurement (Figure 2).

Read latency is the average of individual 8-byte loads to sequential
or random addresses with an ``mfence`` between measurements (emptying
the pipeline, exactly as LATTester does).  Write latency times the two
fenced persistence sequences: ``store; clwb; sfence`` on a pre-loaded
line, and ``ntstore; sfence``.
"""

import random
import statistics
from dataclasses import dataclass

from repro._units import CACHELINE, MIB
from repro.sim import Machine


@dataclass
class LatencyResult:
    """Mean and standard deviation of one latency experiment, in ns."""

    mean_ns: float
    stdev_ns: float
    samples: int


def _result(latencies):
    return LatencyResult(
        mean_ns=statistics.fmean(latencies),
        stdev_ns=statistics.pstdev(latencies),
        samples=len(latencies),
    )


def read_latency(kind="optane", pattern="seq", samples=512, span=32 * MIB,
                 machine=None, socket=0):
    """Average 8 B load latency over fresh lines (no cache hits)."""
    m = machine if machine is not None else Machine()
    ns = m.namespace(kind)
    t = m.thread(socket=socket).collect_latencies()
    if pattern == "seq":
        addrs = [i * CACHELINE for i in range(samples)]
    elif pattern == "rand":
        rng = random.Random(9)
        slots = span // CACHELINE
        addrs = [rng.randrange(slots) * CACHELINE for _ in range(samples)]
    else:
        raise ValueError("unknown pattern: %r" % (pattern,))
    for addr in addrs:
        ns.load(t, addr, 8)
        t.mfence()
    return _result(t.latencies)


def write_latency(kind="optane", instr="clwb", samples=512, machine=None,
                  socket=0):
    """Latency of one fenced persistent store sequence.

    ``instr="clwb"`` measures ``store; clwb; sfence`` on a cached line
    (the line is loaded first, as in the paper's experiment);
    ``instr="ntstore"`` measures ``ntstore; sfence``.
    """
    m = machine if machine is not None else Machine()
    ns = m.namespace(kind)
    t = m.thread(socket=socket)
    for i in range(samples):
        ns.load(t, i * CACHELINE)
    t.mfence()
    lats = []
    for i in range(samples):
        addr = i * CACHELINE
        start = t.now
        if instr == "ntstore":
            ns.ntstore(t, addr)
        elif instr == "clwb":
            ns.store(t, addr)
            ns.clwb(t, addr)
        else:
            raise ValueError("unknown instr: %r" % (instr,))
        t.sfence()
        lats.append(t.now - start)
    return _result(lats)


def figure2(kinds=("dram", "optane")):
    """All eight bars of Figure 2, keyed (kind, operation)."""
    out = {}
    for kind in kinds:
        out[kind, "read-seq"] = read_latency(kind, "seq")
        out[kind, "read-rand"] = read_latency(kind, "rand")
        out[kind, "write-ntstore"] = write_latency(kind, "ntstore")
        out[kind, "write-clwb"] = write_latency(kind, "clwb")
    return out
