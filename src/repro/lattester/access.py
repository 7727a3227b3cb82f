"""Access kernels: the inner loops every LATTester experiment shares.

A *kernel* is a generator that drives one simulated thread through a
stream of memory accesses, yielding to the scheduler after every 64 B
beat so that cross-thread interleaving at the iMC and DIMM is modelled
at the same granularity as the hardware's.

``yield_every`` batches that: every kernel runs one loop that calls
the namespace's per-line bodies (``_load_line``, ``_ntstore_line``,
``_store_line``, ``_store_clwb_line``, ``_clwb_line``) and yields after
every N lines, so only the generator/heap overhead is amortized.
Batching is therefore byte-identical for a single thread; multi-thread
runs must keep ``yield_every=1`` so the scheduler can interleave beats
(``auto_yield_every`` encodes that rule).

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


def _issue(thread, addrs, access, line_op, yield_every, fence_every=None,
           delay_ns=0.0, clwb_line=None, fence_at_end=False):
    """The one kernel loop: ``line_op`` on every line of every access.

    After each line an sfence is issued once ``fence_every`` bytes have
    gone out since the last one; after each access ``clwb_line`` (if
    given) writes its lines back and the thread idles ``delay_ns``.
    Control returns to the scheduler after every ``yield_every`` lines,
    clwbs included.
    """
    offsets = range(0, access, CACHELINE)
    since_fence = 0
    pending = 0
    for addr in addrs:
        for off in offsets:
            line_op(thread, addr + off)
            if fence_every:
                since_fence += CACHELINE
                if since_fence >= fence_every:
                    thread.sfence()
                    since_fence = 0
            pending += 1
            if pending == yield_every:
                pending = 0
                yield
        if clwb_line is not None:
            for off in offsets:
                clwb_line(thread, addr + off)
                pending += 1
                if pending == yield_every:
                    pending = 0
                    yield
        if delay_ns:
            thread.sleep(delay_ns)
    if fence_at_end:
        thread.sfence()


def read_kernel(ns, thread, addrs, access, delay_ns=0.0, yield_every=1):
    """Issue loads; yields after every ``yield_every`` cache lines."""
    return _issue(thread, addrs, access, ns._load_line, yield_every,
                  delay_ns=delay_ns)


def ntstore_kernel(ns, thread, addrs, access, fence_every=None,
                   delay_ns=0.0, yield_every=1):
    """Issue non-temporal stores; yields after every ``yield_every`` lines.

    ``fence_every`` inserts an sfence after that many bytes (None means
    one fence at the very end, as a bandwidth benchmark would).
    """
    return _issue(thread, addrs, access, ns._ntstore_line, yield_every,
                  fence_every, delay_ns, fence_at_end=True)


def store_clwb_kernel(ns, thread, addrs, access, flush=True,
                      flush_at_end=False, fence_every=None, delay_ns=0.0,
                      yield_every=1):
    """Cached stores, optionally followed by per-line clwb.

    ``flush=False`` gives the "store only" curve (durability left to
    natural cache evictions); ``flush_at_end`` issues the clwbs after
    the whole access instead of after each line (Figure 14's
    ``clwb(write size)`` variant).
    """
    if not flush:
        line_op, clwb_line = ns._store_line, None
    elif flush_at_end:
        line_op, clwb_line = ns._store_line, ns._clwb_line
    else:
        line_op, clwb_line = ns._store_clwb_line, None
    return _issue(thread, addrs, access, line_op, yield_every,
                  fence_every, delay_ns, clwb_line, fence_at_end=flush)


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
