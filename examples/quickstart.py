#!/usr/bin/env python3
"""Quickstart: the simulated Optane platform in five minutes.

Builds the machine, measures the paper's headline numbers, writes some
durable data, pulls the plug, and checks what survived.

Run:  python examples/quickstart.py
"""

from repro import Machine
from repro.core import (
    AccessPlan, audit_access_pattern, recommend_store_instruction,
)
from repro.lattester import read_latency, write_latency, measure_bandwidth


def main():
    # --- 1. Build the machine and a persistent namespace. -----------------
    machine = Machine()
    pmem = machine.namespace("optane")      # 6 DIMMs, 4 KB interleaved
    t = machine.thread()

    # --- 2. Durable writes, and what a power failure keeps. ---------------
    pmem.pwrite(t, 0, b"synced and fenced", instr="ntstore")
    pmem.store(t, 4096, 64, data=b"X" * 64)         # cached, never flushed
    machine.power_fail()
    print("after power failure:")
    print("  fenced ntstore :", pmem.read_persistent(0, 17))
    print("  unflushed store:", pmem.read_persistent(4096, 16), "(lost!)")

    # --- 3. The paper's headline latencies (Figure 2). --------------------
    print("\nidle latency (ns)          DRAM    Optane   (paper)")
    for label, fn, args, paper in (
        ("sequential read ", read_latency, ("seq",), "81 / 169"),
        ("random read     ", read_latency, ("rand",), "101 / 305"),
        ("store+clwb+fence", write_latency, ("clwb",), "57 / 62"),
        ("ntstore+fence   ", write_latency, ("ntstore",), "86 / 90"),
    ):
        dram = fn("dram", *args, samples=200).mean_ns
        opt = fn("optane", *args, samples=200).mean_ns
        print("  %s %7.1f  %7.1f   (%s)" % (label, dram, opt, paper))

    # --- 4. Bandwidth asymmetry (Figure 4). -------------------------------
    read4 = measure_bandwidth(kind="optane-ni", op="read", threads=4)
    write1 = measure_bandwidth(kind="optane-ni", op="ntstore", threads=1)
    write8 = measure_bandwidth(kind="optane-ni", op="ntstore", threads=8)
    print("\nsingle DIMM: read %.1f GB/s, write %.1f GB/s (%.1fx gap)"
          % (read4.gbps, write1.gbps, read4.gbps / write1.gbps))
    print("8 writer threads: %.1f GB/s, EWR %.2f  "
          "<- guideline #3: limit writers" % (write8.gbps, write8.ewr))

    # --- 5. Ask the guidelines before designing your data structure. ------
    print("\nadvisor says: persist a 2 KB object with '%s', "
          "a 64 B object with '%s'"
          % (recommend_store_instruction(2048),
             recommend_store_instruction(64)))
    plan = AccessPlan(access_bytes=64, pattern="rand", is_write=True,
                      threads=24, dimms=6, remote=True,
                      mixed_read_write=True)
    print("auditing a worst-practice plan:")
    for violation in audit_access_pattern(plan):
        print("  ", violation)


if __name__ == "__main__":
    main()
