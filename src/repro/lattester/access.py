"""Access kernels: the inner loops every LATTester experiment shares.

A *kernel* is a generator that drives one simulated thread through a
stream of memory accesses, yielding to the scheduler after every 64 B
beat so that cross-thread interleaving at the iMC and DIMM is modelled
at the same granularity as the hardware's.

``yield_every`` batches that: every kernel runs one loop that calls
the namespace's per-line bodies (``_load_line``, ``_ntstore_line``,
``_store_line``, ``_store_clwb_line``) and yields after every N lines,
so only the generator/heap overhead is amortized.  Batching is
therefore byte-identical for a single thread; multi-thread runs must
keep ``yield_every=1`` so the scheduler can interleave beats
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


def address_stream(base, span, access, pattern, seed=0, limit=None):
    """Access addresses of the given size/pattern inside a region.

    Patterns: ``"seq"`` (contiguous) or ``"rand"`` (uniform over the
    region).

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
    raise ValueError("unknown pattern: %r" % (pattern,))


def stream_signature(base, span, access, pattern, seed=0):
    """An exact determinant of a stream's expanded cache-line sequence.

    Two parameter sets with equal signatures produce *identical*
    per-line address sequences once the kernels expand each access
    into its ``range(0, access, CACHELINE)`` lines:

    * ``"seq"`` with line-aligned ``access`` expands to the contiguous
      lines of ``[base, base + (span // access) * access)`` — the
      access size cancels out, so it is *not* part of the signature
      (this is why a sweep's sequential rows repeat across the access
      axis: they are the same simulation).
    * every other case (random, or unaligned access) keeps the full
      parameter tuple, since any of them changes the stream.

    Used to memoize whole experiment points that are provably the same
    simulation; see ``measure_bandwidth``.
    """
    if pattern == "seq" and access >= CACHELINE and \
            access % CACHELINE == 0:
        return ("seq", base, span // access * access)
    return (pattern, base, span, access, seed)


def _issue(thread, addrs, access, line_op, yield_every, fence_every=None,
           delay_ns=0.0, fence_at_end=False):
    """The one kernel loop: ``line_op`` on every line of every access.

    After each line an sfence is issued once ``fence_every`` bytes have
    gone out since the last one; after each access the thread idles
    ``delay_ns``.  Control returns to the scheduler after every
    ``yield_every`` lines.
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
                      fence_every=None, delay_ns=0.0, yield_every=1):
    """Cached stores, each line followed by its clwb.

    ``flush=False`` gives the "store only" curve (durability left to
    natural cache evictions).
    """
    line_op = ns._store_clwb_line if flush else ns._store_line
    return _issue(thread, addrs, access, line_op, yield_every,
                  fence_every, delay_ns, fence_at_end=flush)


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
