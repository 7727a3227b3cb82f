"""The emulation-fidelity study (Figure 7).

Left panel: sequential-write latency/bandwidth curves for each
methodology against real (simulated) Optane.  Right panel: bandwidth
under three thread mixes (all readers, 1:1 readers:writers, all
writers).  The point of the figure is the *disagreement*: no emulator
tracks Optane.
"""

import random
import statistics

from repro._units import CACHELINE, KIB, gb_per_s
from repro.lattester.access import staggered_base
from repro.sim import Machine, run_workloads

from repro.emulation.pmep import make_emulated_namespace

METHODOLOGIES = ("optane", "dram", "dram-remote", "pmep")


def _namespace_for(machine, methodology):
    if methodology == "optane":
        return machine.namespace("optane")
    return make_emulated_namespace(machine, methodology)


def write_latency_bandwidth(methodology, threads=4, per_thread=96 * KIB,
                            delay_ns=0.0):
    """One point of the Figure 7 (left) curve for a methodology."""
    m = Machine()
    ns = _namespace_for(m, methodology)
    ts = [t.collect_latencies() for t in m.threads(threads)]

    def worker(t):
        base = staggered_base(t.tid, per_thread)
        for i in range(per_thread // CACHELINE):
            ns.ntstore(t, base + i * CACHELINE)
            if delay_ns:
                t.sleep(delay_ns)
            yield
        t.sfence()

    elapsed = run_workloads([(t, worker(t)) for t in ts])
    lats = [x for t in ts for x in t.latencies]
    return (gb_per_s(per_thread * threads, elapsed),
            statistics.fmean(lats))


def seq_write_curve(methodology, delays=(0, 25, 50, 100, 200, 800),
                    threads=4, per_thread=64 * KIB):
    """Latency/bandwidth curve (sweeping offered load via delays)."""
    return [
        write_latency_bandwidth(methodology, threads=threads,
                                per_thread=per_thread, delay_ns=d)
        for d in delays
    ]


def mix_bandwidth(methodology, read_frac, threads=8, per_thread=64 * KIB):
    """Figure 7 (right): bandwidth for a reader/writer thread mix.

    ``read_frac`` of the threads only read; the rest only write.
    """
    m = Machine()
    ns = _namespace_for(m, methodology)
    ts = m.threads(threads)
    nreaders = round(threads * read_frac)

    def worker(t, is_reader):
        base = staggered_base(t.tid, per_thread)
        rng = random.Random(3 + t.tid)
        slots = per_thread // CACHELINE
        for _ in range(slots):
            addr = base + rng.randrange(slots) * CACHELINE
            if is_reader:
                ns.load(t, addr)
            else:
                ns.ntstore(t, addr)
            yield
        if not is_reader:
            t.sfence()

    pairs = [(t, worker(t, i < nreaders)) for i, t in enumerate(ts)]
    elapsed = run_workloads(pairs)
    return gb_per_s(per_thread * threads, elapsed)


def figure7(methodologies=METHODOLOGIES):
    """Both panels of Figure 7.

    Returns ``{"curves": {methodology: [(GB/s, ns), ...]},
               "mixes": {methodology: {label: GB/s}}}``.
    """
    curves = {m: seq_write_curve(m) for m in methodologies}
    mixes = {}
    for m in methodologies:
        mixes[m] = {
            "All Rd.": mix_bandwidth(m, 1.0),
            "1:1 Wr.:Rd.": mix_bandwidth(m, 0.5),
            "All Wr.": mix_bandwidth(m, 0.0),
        }
    return {"curves": curves, "mixes": mixes}
