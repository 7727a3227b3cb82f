"""Access kernels: the inner loops every LATTester experiment shares.

A *kernel* is a generator that drives one simulated thread through a
stream of memory accesses, yielding to the scheduler after every 64 B
beat so that cross-thread interleaving at the iMC and DIMM is modelled
at the same granularity as the hardware's.

``yield_every`` batches that: a kernel may process N cache lines per
scheduler interaction through the namespace run entry points
(``load_run`` / ``store_run`` / ``ntstore_run``), which book exactly
the same per-line events in the same order — only the generator/heap
overhead is amortized.  Batching is therefore byte-identical for a
single thread; multi-thread runs must keep ``yield_every=1`` so the
scheduler can interleave beats (``auto_yield_every`` encodes that
rule).

Thread placement matters on this platform: ``staggered_base`` hands
each thread a stripe-aligned private region whose first block lands on
DIMM ``tid % 6``, which is how the paper's peak-bandwidth numbers
spread load evenly across the interleave set.
"""

import random

from repro._units import CACHELINE, KIB, align_up

#: Default batch granularity (in cache lines) for single-thread runs.
BATCH_LINES = 64


def auto_yield_every(threads):
    """The largest semantics-preserving batch size for a run.

    A lone thread has nobody to interleave with, so batching cannot
    change any booking order; concurrent threads must yield per beat or
    contention modelling would coarsen.
    """
    return BATCH_LINES if threads == 1 else 1


def staggered_base(tid, span, block_bytes=4 * KIB, dimms=6):
    """A private, stripe-aligned region base for thread ``tid``.

    The base is shifted by ``(tid % dimms)`` interleave blocks so that
    concurrent sequential streams start on distinct DIMMs.
    """
    stripe = block_bytes * dimms
    region = align_up(span + stripe, stripe)
    return tid * region + (tid % dimms) * block_bytes


def address_stream(base, span, access, pattern, seed=0, stride=None,
                   limit=None):
    """Access addresses of the given size/pattern inside a region.

    Patterns: ``"seq"`` (contiguous), ``"rand"`` (uniform over the
    region) or ``"stride"`` (fixed-stride walk — the third axis of the
    paper's systematic sweep; pass ``stride`` in bytes, default 4x the
    access size).

    Returns a precomputed list so the RNG call stays out of the
    simulation inner loop; ``limit`` truncates to the first ``limit``
    addresses (drawing exactly that many variates for ``"rand"``, so a
    limited stream is a prefix of the unlimited one).
    """
    count = span // access
    if limit is not None and limit < count:
        count = limit
    if pattern == "seq":
        return [base + i * access for i in range(count)]
    if pattern == "rand":
        rng = random.Random(seed)
        randrange = rng.randrange
        slots = span // access
        return [base + randrange(slots) * access for _ in range(count)]
    if pattern == "stride":
        step = stride if stride is not None else 4 * access
        slots = max(1, span // step)
        return [base + (i % slots) * step for i in range(count)]
    raise ValueError("unknown pattern: %r" % (pattern,))


def stream_signature(base, span, access, pattern, seed=0, stride=None):
    """An exact determinant of a stream's expanded cache-line sequence.

    Two parameter sets with equal signatures produce *identical*
    per-line address sequences once the kernels expand each access
    into its ``range(0, access, CACHELINE)`` lines:

    * ``"seq"`` with line-aligned ``access`` expands to the contiguous
      lines of ``[base, base + (span // access) * access)`` — the
      access size cancels out, so it is *not* part of the signature
      (this is why a sweep's sequential rows repeat across the access
      axis: they are the same simulation).
    * every other case (random, strided, or unaligned access) keeps
      the full parameter tuple, since any of them changes the stream.

    Used to memoize whole experiment points that are provably the same
    simulation; see ``measure_bandwidth``.
    """
    if pattern == "seq" and access >= CACHELINE and \
            access % CACHELINE == 0:
        return ("seq", base, span // access * access)
    return (pattern, base, span, access, seed, stride)


def _run_stream(addrs, access, yield_every):
    """Chunk an address stream into contiguous ``(start, n_lines)`` runs.

    Large accesses are split into runs of at most ``yield_every``
    lines; *contiguous* consecutive accesses (a sequential stream of
    small accesses) are merged up to the same cap.  Line order is
    exactly the order the per-line loops would issue, so the run
    boundaries are free to move.
    """
    per_access = len(range(0, access, CACHELINE))
    run_start = 0
    run_lines = 0
    for addr in addrs:
        if run_lines and addr == run_start + run_lines * CACHELINE:
            run_lines += per_access
        else:
            if run_lines:
                yield run_start, run_lines
            run_start = addr
            run_lines = per_access
        while run_lines >= yield_every:
            yield run_start, yield_every
            run_start += yield_every * CACHELINE
            run_lines -= yield_every
    if run_lines:
        yield run_start, run_lines


def read_kernel(ns, thread, addrs, access, delay_ns=0.0, yield_every=1):
    """Issue loads; yields after every ``yield_every`` cache lines."""
    if yield_every > 1:
        load_run = ns.load_run
        if not delay_ns:
            for start, lines in _run_stream(addrs, access, yield_every):
                load_run(thread, start, lines)
                yield
            return
        for addr in addrs:
            for start, lines in _run_stream((addr,), access, yield_every):
                load_run(thread, start, lines)
                yield
            thread.sleep(delay_ns)
        return
    load_line = ns._load_line                # aligned single-line loads
    if not delay_ns:
        # No per-access bookkeeping: issue the precomputed line list in
        # one flat loop (same lines, same order, one yield per line).
        for line in [a + off for a in addrs
                     for off in range(0, access, CACHELINE)]:
            load_line(thread, line)
            yield
        return
    for addr in addrs:
        for off in range(0, access, CACHELINE):
            load_line(thread, addr + off)
            yield
        if delay_ns:
            thread.sleep(delay_ns)


def ntstore_kernel(ns, thread, addrs, access, fence_every=None,
                   delay_ns=0.0, yield_every=1):
    """Issue non-temporal stores; yields after every ``yield_every`` lines.

    ``fence_every`` inserts an sfence after that many bytes (None means
    one fence at the very end, as a bandwidth benchmark would).  Runs
    are split at fence boundaries so the fence lands between the same
    two lines as in the per-line loop.
    """
    if yield_every > 1:
        ntstore_run = ns.ntstore_run
        since_fence = 0
        groups = [addrs] if not delay_ns else ((a,) for a in addrs)
        for group in groups:
            for start, lines in _run_stream(group, access, yield_every):
                while lines:
                    run = lines
                    if fence_every:
                        until = -(-(fence_every - since_fence) // CACHELINE)
                        if run > until:
                            run = until
                    ntstore_run(thread, start, run)
                    start += run * CACHELINE
                    lines -= run
                    since_fence += run * CACHELINE
                    if fence_every and since_fence >= fence_every:
                        thread.sfence()
                        since_fence = 0
                yield
            if delay_ns:
                thread.sleep(delay_ns)
        thread.sfence()
        return
    nt_line = ns._ntstore_line               # aligned single-line stores
    if not fence_every and not delay_ns:
        # Flat variant of the loop below for the common bandwidth shape
        # (one fence at the very end): identical line order and yields.
        for line in [a + off for a in addrs
                     for off in range(0, access, CACHELINE)]:
            nt_line(thread, line)
            yield
        thread.sfence()
        return
    since_fence = 0
    for addr in addrs:
        for off in range(0, access, CACHELINE):
            nt_line(thread, addr + off)
            since_fence += CACHELINE
            if fence_every and since_fence >= fence_every:
                thread.sfence()
                since_fence = 0
            yield
        if delay_ns:
            thread.sleep(delay_ns)
    thread.sfence()


def store_clwb_kernel(ns, thread, addrs, access, flush=True,
                      flush_at_end=False, fence_every=None, delay_ns=0.0,
                      yield_every=1):
    """Cached stores, optionally followed by per-line clwb.

    ``flush=False`` gives the "store only" curve (durability left to
    natural cache evictions); ``flush_at_end`` issues the clwbs after
    the whole access instead of after each line (Figure 14's
    ``clwb(write size)`` variant).
    """
    if yield_every > 1:
        store_run = ns.store_run
        per_line_clwb = flush and not flush_at_end
        since_fence = 0
        per_access = flush_at_end or bool(delay_ns)
        groups = [addrs] if not per_access else ((a,) for a in addrs)
        for group in groups:
            for start, lines in _run_stream(group, access, yield_every):
                while lines:
                    run = lines
                    if fence_every:
                        until = -(-(fence_every - since_fence) // CACHELINE)
                        if run > until:
                            run = until
                    store_run(thread, start, run, clwb=per_line_clwb)
                    start += run * CACHELINE
                    lines -= run
                    since_fence += run * CACHELINE
                    if fence_every and since_fence >= fence_every:
                        thread.sfence()
                        since_fence = 0
                yield
            if flush and flush_at_end:
                for start, lines in _run_stream(group, access, yield_every):
                    ns.clwb(thread, start, lines * CACHELINE)
                    yield
            if delay_ns:
                thread.sleep(delay_ns)
        if flush:
            thread.sfence()
        return
    store_line = ns._store_line              # aligned single-line stores
    clwb_line = ns._clwb_line
    store_clwb = ns._store_clwb_line
    per_line_clwb = flush and not flush_at_end
    if not fence_every and not delay_ns and not (flush and flush_at_end):
        # Flat variant for the common bandwidth shapes (store+clwb per
        # line, or store-only): identical line order and yields.
        line_op = store_clwb if per_line_clwb else store_line
        for line in [a + off for a in addrs
                     for off in range(0, access, CACHELINE)]:
            line_op(thread, line)
            yield
        if flush:
            thread.sfence()
        return
    since_fence = 0
    for addr in addrs:
        for off in range(0, access, CACHELINE):
            line = addr + off
            if per_line_clwb:
                store_clwb(thread, line)
            else:
                store_line(thread, line)
            since_fence += CACHELINE
            if fence_every and since_fence >= fence_every:
                thread.sfence()
                since_fence = 0
            yield
        if flush and flush_at_end:
            for off in range(0, access, CACHELINE):
                clwb_line(thread, addr + off)
                yield
        if delay_ns:
            thread.sleep(delay_ns)
    if flush:
        thread.sfence()


def make_kernel(op, ns, thread, addrs, access, **kwargs):
    """Kernel factory: ``op`` is 'read', 'ntstore', 'clwb' or 'store'."""
    if op == "read":
        return read_kernel(ns, thread, addrs, access, **kwargs)
    if op == "ntstore":
        return ntstore_kernel(ns, thread, addrs, access, **kwargs)
    if op == "clwb":
        return store_clwb_kernel(ns, thread, addrs, access, **kwargs)
    if op == "store":
        return store_clwb_kernel(
            ns, thread, addrs, access, flush=False, **kwargs)
    raise ValueError("unknown op: %r" % (op,))
