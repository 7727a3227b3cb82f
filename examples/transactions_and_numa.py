#!/usr/bin/env python3
"""Transactions, micro-buffering, and the NUMA trap.

Part 1 — a persistent object updated with PMDK-style undo-log
transactions, including a crash mid-transaction and recovery.
Part 2 — the micro-buffering instruction crossover (Figure 15).
Part 3 — why you keep persistent memory NUMA-local (Figures 18/19).

Run:  python examples/transactions_and_numa.py
"""

import struct

from repro.pmdk import PmemPool, Transaction, recover
from repro.pmdk.study import noop_tx_latency
from repro.pmemkv import CMap, overwrite_benchmark
from repro.sim import Machine

ACCOUNT = struct.Struct("<Q56x")          # one cache line per account


def transfer(pool, t, a_off, b_off, amount):
    """Atomically move money between two persistent accounts."""
    with Transaction(pool, t) as tx:
        a = ACCOUNT.unpack(pool.read_volatile(a_off, ACCOUNT.size))[0]
        b = ACCOUNT.unpack(pool.read_volatile(b_off, ACCOUNT.size))[0]
        tx.store(a_off, ACCOUNT.pack(a - amount))
        tx.store(b_off, ACCOUNT.pack(b + amount))


def part1_transactions():
    machine = Machine()
    t = machine.thread()
    pool = PmemPool.create(machine, t)
    a = pool.heap.alloc(ACCOUNT.size) - pool.base
    b = pool.heap.alloc(ACCOUNT.size) - pool.base
    pool.write(t, a, ACCOUNT.pack(1000), instr="ntstore")
    pool.write(t, b, ACCOUNT.pack(0), instr="ntstore")

    transfer(pool, t, a, b, 250)

    # Crash in the middle of a transfer: snapshots taken, new values
    # partially flushed, no commit.
    tx = Transaction(pool, t)
    tx.begin()
    tx.store(a, ACCOUNT.pack(999999))
    pool.ns.clwb(t, pool.addr(a), 64)
    t.sfence()
    machine.power_fail()

    pool2 = PmemPool.open(machine)
    t2 = machine.thread()
    rolled_back = recover(pool2, t2)
    bal_a = ACCOUNT.unpack(pool2.read_persistent(a, ACCOUNT.size))[0]
    bal_b = ACCOUNT.unpack(pool2.read_persistent(b, ACCOUNT.size))[0]
    print("part 1: after crash + recovery (%d range(s) rolled back): "
          "a=%d b=%d, total %d" % (rolled_back, bal_a, bal_b,
                                   bal_a + bal_b))
    assert bal_a + bal_b == 1000


def part2_microbuffering():
    print("\npart 2: micro-buffering no-op tx latency (ns)")
    print("  size      PGL-NT   PGL-CLWB   winner")
    for size in (64, 256, 1024, 4096):
        nt = noop_tx_latency("ntstore", size, reps=30).mean_ns
        cl = noop_tx_latency("clwb", size, reps=30).mean_ns
        print("  %5d B  %7.0f  %9.0f   %s"
              % (size, nt, cl, "clwb" if cl < nt else "ntstore"))
    print("  -> flush small objects, stream large ones (guideline #2)")


def part3_numa():
    print("\npart 3: PMemKV overwrite (read-modify-write), 4 threads")
    for kind in ("optane", "optane-remote", "dram", "dram-remote"):
        r = overwrite_benchmark(kind, threads=4, ops_per_thread=100)
        print("  pool on %-14s %6.2f GB/s" % (kind, r.bandwidth_gbps))
    print("  -> remote 3D XPoint collapses under mixed traffic; remote "
          "DRAM barely notices (guideline #4)")

    # And the store still works remotely — it is just slow.
    machine = Machine()
    t = machine.thread()
    pool = PmemPool.create(machine, t, kind="optane-remote")
    kv = CMap(pool, buckets=64)
    kv.put(t, b"placement", b"matters")
    assert kv.get(t, b"placement") == b"matters"


def main():
    part1_transactions()
    part2_microbuffering()
    part3_numa()


if __name__ == "__main__":
    main()
