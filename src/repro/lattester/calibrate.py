"""Calibration probe: the simulator's headline numbers against the
paper's published values (Figures 2, 4 and 5, Sections 5.1 and 5.4).
Run after touching any timing constant in repro.sim.config.

Usage: python -m repro calibrate
       python scripts/calibrate.py [section ...]
Sections: latency bandwidth ewr numa (default: all)
"""

from repro._units import KIB
from repro.lattester.bandwidth import measure_bandwidth
from repro.lattester.ewr import ewr_experiment
from repro.lattester.latency import read_latency, write_latency


def show(label, measured, target):
    flag = ""
    if isinstance(target, (int, float)) and target:
        ratio = measured / target
        if not 0.8 <= ratio <= 1.25:
            flag = "  <-- off (%.2fx)" % ratio
    print("  %-42s %10.1f   (paper: %s)%s" % (label, measured, target, flag))


def latency_section():
    print("Idle latency (ns), Figure 2:")
    show("DRAM read seq", read_latency("dram", "seq").mean_ns, 81)
    show("DRAM read rand", read_latency("dram", "rand").mean_ns, 101)
    show("Optane read seq", read_latency("optane", "seq").mean_ns, 169)
    show("Optane read rand", read_latency("optane", "rand").mean_ns, 305)
    show("DRAM store+clwb+fence",
         write_latency("dram", "clwb").mean_ns, 57)
    show("Optane store+clwb+fence",
         write_latency("optane", "clwb").mean_ns, 62)
    show("DRAM ntstore+fence",
         write_latency("dram", "ntstore").mean_ns, 86)
    show("Optane ntstore+fence",
         write_latency("optane", "ntstore").mean_ns, 90)


def bandwidth_section():
    print("Peak bandwidth (GB/s), Figures 4/5:")
    cases = [
        ("Optane-NI read x4", "optane-ni", "read", 4, 6.6),
        ("Optane-NI ntstore x1", "optane-ni", "ntstore", 1, 2.3),
        ("Optane-NI ntstore x8 (declines)", "optane-ni", "ntstore", 8, 1.2),
        ("Optane-NI clwb x1", "optane-ni", "clwb", 1, 1.8),
        ("Optane read x24", "optane", "read", 24, 38.0),
        ("Optane ntstore x4", "optane", "ntstore", 4, 11.0),
        ("Optane clwb x12", "optane", "clwb", 12, 12.0),
        ("DRAM read x24", "dram", "read", 24, 105.0),
        ("DRAM ntstore x24", "dram", "ntstore", 24, 57.0),
        ("DRAM clwb x24", "dram", "clwb", 24, 85.0),
    ]
    for label, kind, op, threads, target in cases:
        r = measure_bandwidth(kind=kind, op=op, threads=threads,
                              per_thread=96 * KIB)
        show(label, r.gbps, target)


def ewr_section():
    print("EWR (single DIMM), Section 5.1:")
    show("64B random ntstore x1 (x100)",
         100 * ewr_experiment(access=64).ewr, 25)
    show("256B random ntstore x1 (x100)",
         100 * ewr_experiment(access=256).ewr, 98)
    show("seq ntstore x8 (x100)",
         100 * ewr_experiment(access=256, pattern="seq", threads=8,
                              per_thread=64 * KIB).ewr, 62)


def numa_section():
    print("NUMA (GB/s), Section 5.4:")
    local = measure_bandwidth(kind="optane", op="read", threads=16,
                              per_thread=64 * KIB)
    remote = measure_bandwidth(kind="optane-remote", op="read",
                               threads=16, per_thread=64 * KIB)
    show("remote/local read x16 (x100)",
         100 * remote.gbps / local.gbps, 59.2)
    wl = measure_bandwidth(kind="optane", op="ntstore", threads=4,
                           per_thread=64 * KIB)
    wr = measure_bandwidth(kind="optane-remote", op="ntstore", threads=4,
                           per_thread=64 * KIB)
    show("remote/local write x4 (x100)",
         100 * wr.gbps / wl.gbps, 61.7)


SECTIONS = {
    "latency": latency_section,
    "bandwidth": bandwidth_section,
    "ewr": ewr_section,
    "numa": numa_section,
}


def main(requested=()):
    """Print the requested sections (all when none are named)."""
    for name, fn in SECTIONS.items():
        if not requested or name in requested:
            fn()
