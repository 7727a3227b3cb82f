"""Bandwidth measurement (Figures 4, 5, 13, 14, 16, 18).

``measure_bandwidth`` runs N concurrent kernels over private regions
and reports aggregate GB/s plus the EWR observed on the namespace's
DIMMs during the run.
"""

from dataclasses import dataclass

from repro._units import KIB, gb_per_s
from repro.lattester.access import (
    address_stream, auto_yield_every, make_kernel, staggered_base,
    stream_signature,
)
from repro.sim import Machine, aggregate, effective_write_ratio, run_workloads
from repro.telemetry.tracer import current_tracer

#: Within-process memo of experiment points that are provably the same
#: simulation: a fresh machine plus an identical per-line instruction
#: stream yields an identical result, so e.g. the sequential rows of a
#: sweep — whose expanded line sequence does not depend on the access
#: size — are computed once.  Only the four measured numbers are
#: stored; the echo fields (op/access/pattern) always come from the
#: caller's request.  Disabled whenever a tracer is active, a machine
#: is supplied, or non-default kernel arguments are in play.
_POINT_MEMO = {}


def clear_point_memo():
    """Drop all memoized points (tests and long-lived processes)."""
    _POINT_MEMO.clear()


@dataclass
class BandwidthResult:
    """Aggregate outcome of one bandwidth experiment."""

    gbps: float
    elapsed_ns: float
    total_bytes: int
    ewr: float
    threads: int
    op: str
    access: int
    pattern: str


def measure_bandwidth(kind="optane", op="read", threads=4, access=256,
                      pattern="seq", per_thread=256 * KIB, machine=None,
                      socket=0, **kernel_kwargs):
    """Run one bandwidth experiment on a fresh (or given) machine.

    ``kind`` selects the namespace ("optane", "optane-ni", "dram", ...);
    ``op`` is 'read', 'ntstore', 'clwb' or 'store'; threads are pinned
    to ``socket`` while the namespace may live elsewhere (NUMA tests
    pass ``kind="optane-remote"``).
    """
    kernel_kwargs.setdefault("yield_every", auto_yield_every(threads))
    memo_key = None
    if (machine is None and current_tracer() is None
            and not (kernel_kwargs.keys() - {"yield_every"})):
        # Fresh machine, no tracer, default kernel shape: the result is
        # a pure function of the expanded per-line streams and the
        # device/op selection, so an earlier identical point can be
        # replayed (see ``stream_signature`` for the stream proof).
        memo_key = (
            kind, op, threads, socket, per_thread,
            kernel_kwargs["yield_every"],
            tuple(stream_signature(
                staggered_base(tid, per_thread), per_thread, access,
                pattern, seed=77 + tid)
                for tid in range(threads)))
        hit = _POINT_MEMO.get(memo_key)
        if hit is not None:
            gbps, elapsed, total, ewr = hit
            return BandwidthResult(
                gbps=gbps, elapsed_ns=elapsed, total_bytes=total,
                ewr=ewr, threads=threads, op=op, access=access,
                pattern=pattern)
    m = machine if machine is not None else Machine()
    ns = m.namespace(kind)
    ts = m.threads(threads, socket=socket)
    snaps = ns.counter_snapshots()
    pairs = []
    for t in ts:
        base = staggered_base(t.tid, per_thread)
        addrs = address_stream(base, per_thread, access, pattern,
                               seed=77 + t.tid)
        pairs.append((t, make_kernel(op, ns, t, addrs, access,
                                     **kernel_kwargs)))
    elapsed = run_workloads(pairs)
    for dimm in ns.dimms:
        dimm.drain(elapsed)
    deltas = ns.counter_deltas(snaps)
    total = per_thread * threads
    gbps = gb_per_s(total, elapsed)
    ewr = effective_write_ratio(aggregate(deltas))
    if memo_key is not None:
        _POINT_MEMO[memo_key] = (gbps, elapsed, total, ewr)
    return BandwidthResult(
        gbps=gbps,
        elapsed_ns=elapsed,
        total_bytes=total,
        ewr=ewr,
        threads=threads,
        op=op,
        access=access,
        pattern=pattern,
    )


def figure4():
    """Figure 4: 256 B sequential bandwidth as the thread count grows.

    Returns ``{kind: {op: [BandwidthResult per thread count]}}``.
    """
    return {
        kind: {op: [measure_bandwidth(kind=kind, op=op, threads=n,
                                      per_thread=64 * KIB)
                    for n in (1, 2, 4, 8, 16, 24)]
               for op in ("read", "ntstore", "clwb")}
        for kind in ("dram", "optane-ni", "optane")
    }


def figure5():
    """Figure 5: random-access bandwidth as the access size grows, each
    curve at its op's best thread count.

    Returns ``{(kind, op): [BandwidthResult per access size]}``; each
    thread covers at least eight accesses.
    """
    sizes = (64, 256, 1024, 4 * KIB, 8 * KIB, 24 * KIB, 64 * KIB)
    return {
        (kind, op): [measure_bandwidth(kind=kind, op=op, threads=threads,
                                       access=size, pattern="rand",
                                       per_thread=max(256 * KIB, size * 8))
                     for size in sizes]
        for kind, op, threads in (
            ("optane", "read", 16), ("optane", "ntstore", 4),
            ("optane-ni", "ntstore", 1), ("dram", "read", 24))
    }
