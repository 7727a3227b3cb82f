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

    def __repr__(self):
        return ("BandwidthResult(%s %s/%dB x%d: %.2f GB/s, EWR %.2f)"
                % (self.op, self.pattern, self.access, self.threads,
                   self.gbps, self.ewr))


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


def bandwidth_vs_threads(kind, ops, thread_counts, access=256,
                         pattern="seq", per_thread=256 * KIB):
    """Figure 4: one curve per op, bandwidth as thread count grows."""
    curves = {}
    for op in ops:
        curves[op] = [
            measure_bandwidth(kind=kind, op=op, threads=n, access=access,
                              pattern=pattern, per_thread=per_thread)
            for n in thread_counts
        ]
    return curves


def bandwidth_vs_access_size(kind, ops_threads, access_sizes,
                             pattern="rand", per_thread=256 * KIB):
    """Figure 5: one curve per (op, best-thread-count) pair vs access size."""
    curves = {}
    for op, nthreads in ops_threads.items():
        pts = []
        for access in access_sizes:
            span = max(per_thread, access * 8)
            pts.append(measure_bandwidth(
                kind=kind, op=op, threads=nthreads, access=access,
                pattern=pattern, per_thread=span))
        curves[op] = pts
    return curves
