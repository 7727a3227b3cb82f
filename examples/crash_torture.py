#!/usr/bin/env python3
"""Crash torture: power-fail at every persist boundary and recover.

The simulator is deterministic, so crash consistency can be tested
*exhaustively*: run a workload once to enumerate every instant at
which a cache line reaches the ADR domain, then replay it once per
instant, cutting power exactly there, and verify that recovery always
lands in a legal state.  This is the style of testing the paper's
crash-consistent systems (NOVA's logs, PMDK's undo transactions)
implicitly demand and rarely get.

Run:  python examples/crash_torture.py
"""

from repro.faults import count_persists, exhaustive_crash_test
from repro.fs import NovaFS, PAGE
from repro.kvstore import LSMStore
from repro.pmdk import PmemPool, Transaction, recover


def torture_kvstore():
    keys = [b"account-%02d" % i for i in range(8)]

    def workload(machine):
        db = LSMStore(machine, mode="wal-flex")
        t = machine.thread()
        for i, key in enumerate(keys):
            db.put(t, key, b"balance-%04d" % (100 * i))

    failures = []

    def check(machine, crashed_at):
        db = LSMStore.recover(machine, mode="wal-flex")
        t = machine.thread()
        present = [db.get(t, k) is not None for k in keys]
        # Synced puts must survive as a prefix: no holes.
        if False in present and any(present[present.index(False):]):
            failures.append(crashed_at)

    total = count_persists(workload)
    exercised = exhaustive_crash_test(workload, check)
    print("kv store : crashed at all %d/%d persist points — %s"
          % (exercised, total,
             "no holes, no torn values" if not failures
             else "FAILURES at %s" % failures))
    assert not failures


def torture_filesystem():
    def workload(machine):
        fs = NovaFS(machine, datalog=True)
        t = machine.thread()
        inode = fs.create(t)
        fs.write(t, inode, 0, b"v1" * (PAGE // 2))
        fs.write(t, inode, 10, b"patch-one")
        fs.write(t, inode, 2000, b"patch-two")

    bad = []

    def check(machine, crashed_at):
        fs = NovaFS.mount(machine, datalog=True)
        if 1 not in fs._files:
            return
        spot = fs.read_persistent_file(1, 10, 9)
        if spot not in (b"", b"v1" * 4 + b"v", b"patch-one"):
            bad.append((crashed_at, spot))

    exercised = exhaustive_crash_test(workload, check, stride=3)
    print("filesystem: crashed at %d points — %s"
          % (exercised, "old-or-new every time" if not bad
             else "TORN: %s" % bad))
    assert not bad


def torture_transactions():
    def workload(machine):
        t = machine.thread()
        pool = PmemPool.create(machine, t)
        obj = pool.heap.alloc(128) - pool.base
        pool.write(t, obj, b"OLD!" * 32, instr="ntstore")
        with Transaction(pool, t) as tx:
            tx.store(obj, b"NEW!" * 32)

    mixed = []

    def check(machine, crashed_at):
        try:
            pool = PmemPool.open(machine)
        except ValueError:
            return
        t = machine.thread()
        recover(pool, t)
        obj = pool.heap.alloc(128) - pool.base - 128
        value = pool.read_persistent(obj, 128)
        if value not in (b"\x00" * 128, b"OLD!" * 32, b"NEW!" * 32):
            mixed.append(crashed_at)

    exercised = exhaustive_crash_test(workload, check, stride=2)
    print("pmdk tx  : crashed at %d points — %s"
          % (exercised, "atomic (old xor new)" if not mixed
             else "MIXED at %s" % mixed))
    assert not mixed


def main():
    torture_kvstore()
    torture_filesystem()
    torture_transactions()
    print("\nall substrates recover to a legal state from every "
          "possible power-failure instant.")


if __name__ == "__main__":
    main()
