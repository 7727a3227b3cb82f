"""Virtual-time execution engine.

The simulator does not use wall-clock time at all.  Every simulated
thread owns a clock (in nanoseconds); shared hardware structures are
modelled as :class:`Resource` server pools whose acquisition advances
those clocks.  Multi-threaded workloads are generators driven by
:func:`run_workloads`, which always steps the thread with the smallest
clock; that makes contention results deterministic and independent of
host machine speed.
"""

import heapq
from bisect import bisect_left
from collections import deque


class Resource:
    """A pool of ``servers`` identical units with deterministic service.

    ``acquire(t, occupancy)`` books the earliest available server no
    sooner than time ``t`` and returns ``(start, end)`` where
    ``end = start + occupancy`` is when the server frees up.
    """

    __slots__ = ("name", "_free", "_single", "busy_ns", "_last_end")

    def __init__(self, name, servers):
        if servers < 1:
            raise ValueError("a resource needs at least one server")
        self.name = name
        self._free = [0.0] * servers
        heapq.heapify(self._free)
        self._single = servers == 1
        self.busy_ns = 0.0
        self._last_end = 0.0

    def acquire(self, now, occupancy):
        """Occupy one server for ``occupancy`` ns, starting at or after ``now``."""
        free = self._free
        if self._single:
            # One server: the heap is a single slot, skip heapq entirely.
            earliest = free[0]
            start = earliest if earliest > now else now
            end = start + occupancy
            free[0] = end
        else:
            # The booked server is always the root (the earliest-free
            # one), so pop+push collapses into one sift-down.
            earliest = free[0]
            start = earliest if earliest > now else now
            end = start + occupancy
            heapq.heapreplace(free, end)
        self.busy_ns += occupancy
        if end > self._last_end:
            self._last_end = end
        return start, end


class BackfillResource:
    """A single-server resource that can reuse idle gaps.

    A plain :class:`Resource` books strictly at the tail, so a thread
    whose sparse transfers are spread across its operation leaves holes
    that nobody else can use — which would falsely serialize a shared
    link.  This variant keeps a list of idle gaps and places new work
    into the earliest gap it fits, like a real pipelined link
    interleaving flits from many agents.

    The list holds at most ``max_gaps`` gaps: whenever a booking grows
    it past that, by opening a gap behind a tail booking or by
    splitting a gap in two, the oldest gap is dropped and can no longer
    be backfilled.
    """

    __slots__ = ("name", "_gap_start", "_gap_end", "_tail", "busy_ns",
                 "max_gaps")

    def __init__(self, name, max_gaps=128):
        self.name = name
        # Disjoint idle gaps, sorted: parallel (start, end) lists so the
        # first fitting gap can be located with one bisect instead of a
        # linear scan over dead fragments (the old list-of-tuples scan
        # was the hottest function in a multi-thread sweep).
        self._gap_start = []
        self._gap_end = []
        self._tail = 0.0
        self.busy_ns = 0.0
        self.max_gaps = max_gaps

    def acquire(self, now, occupancy):
        """Book ``occupancy`` ns at or after ``now``; returns (start, end)."""
        self.busy_ns += occupancy
        starts = self._gap_start
        ends = self._gap_end
        # A gap [gs, ge) fits iff max(gs, now) + occupancy <= ge, i.e.
        # min(ge - gs, ge - now) >= occupancy — impossible when
        # ge < now + occupancy.  Gaps are disjoint and sorted, so their
        # ends are increasing and every gap before this bisect point is
        # infeasible: skipping them preserves first-fit placement
        # exactly.
        i = bisect_left(ends, now + occupancy)
        n = len(starts)
        while i < n:
            gs = starts[i]
            ge = ends[i]
            start = gs if gs > now else now
            end = start + occupancy
            if end <= ge:
                keep_s = []
                keep_e = []
                if start - gs > 1e-9:
                    keep_s.append(gs)
                    keep_e.append(start)
                if ge - end > 1e-9:
                    keep_s.append(end)
                    keep_e.append(ge)
                starts[i:i + 1] = keep_s
                ends[i:i + 1] = keep_e
                break
            i += 1
        else:
            tail = self._tail
            start = tail if tail > now else now
            if start - tail > 1e-9:
                starts.append(tail)
                ends.append(start)
            end = start + occupancy
            self._tail = end
        if len(starts) > self.max_gaps:
            del starts[0]
            del ends[0]
        return start, end

    @property
    def _gaps(self):
        """The idle gaps as ``[(start, end)]`` (introspection helper)."""
        return list(zip(self._gap_start, self._gap_end))

    def clear_gaps(self):
        """Drop all backfillable gaps (pipeline stall semantics)."""
        del self._gap_start[:]
        del self._gap_end[:]

    @property
    def _last_end(self):
        return self._tail


class DirectionalLink(BackfillResource):
    """A link that pays a turnaround cost on cross-agent direction change.

    Models the UPI cross-socket interconnect: consecutive transfers in
    the same direction stream back-to-back, but a read-after-write (or
    write-after-read) inserts ``turnaround_ns`` of dead time — *when the
    link is busy*.  A lone thread's sparse, latency-spaced transfers
    arrive with idle gaps that let the link's buffering re-batch them
    (no penalty), which is why the paper finds single-threaded remote
    bandwidth close to local while multi-threaded mixed traffic
    collapses by an order of magnitude (Section 5.4, Figure 18).
    """

    __slots__ = ("turnaround_ns", "idle_reset_ns", "_direction", "_source",
                 "turnarounds")

    def __init__(self, name, turnaround_ns, idle_reset_ns=30.0):
        super().__init__(name)
        self.turnaround_ns = turnaround_ns
        self.idle_reset_ns = idle_reset_ns
        self._direction = None
        self._source = None
        self.turnarounds = 0

    def transfer(self, now, occupancy, direction, source=None, heavy=True):
        """Book the link for one transfer in ``direction`` ('rd' or 'wr').

        ``source`` identifies the requesting agent (thread): a single
        agent's alternating reads and writes coalesce in its request
        queue and pay no turnaround; interleaved switches between
        *different* agents thrash the link scheduler and do.

        ``heavy`` marks transfers against a slow home device (DDR-T):
        only those pay the turnaround, because the penalty models the
        home iMC's read/write scheduling degenerating when its slow
        write queue must drain between remote reads.  DRAM-homed
        traffic switches direction for free, which is why the paper
        sees the mixed-traffic collapse only for remote Optane.
        """
        if now > self._last_end + self.idle_reset_ns:
            # The link went idle: buffered re-batching hides the switch.
            self._direction = None
        cost = occupancy
        if (heavy and self._direction is not None
                and direction != self._direction
                and source != self._source):
            cost += self.turnaround_ns
            self.turnarounds += 1
            # A turnaround stalls the whole pipeline: nothing may be
            # backfilled into earlier idle slots across it.
            self.clear_gaps()
        self._direction = direction
        self._source = source
        return self.acquire(now, cost)


class ThreadCtx:
    """Execution context of one simulated hardware thread.

    Tracks the thread clock and the two per-thread pipelining windows:

    * ``load_window`` outstanding cache-line fills (line fill buffers),
    * ``store_window`` outstanding stores not yet accepted past the WPQ
      (the documented 256 B per-thread WPQ occupancy limit).

    ``pending_persists`` records the completion times of all flushes,
    write-backs and non-temporal stores that an ``sfence`` must drain.

    A thread holds its ``machine`` strongly: holding only a thread
    keeps the whole machine usable, while the machine tracks its
    threads weakly (``__weakref__``) so the two form no cycle.
    """

    __slots__ = (
        "machine", "tid", "socket", "now", "load_window", "store_window",
        "_loads", "_stores", "pending_persists", "bytes_read",
        "bytes_written", "latencies", "fence_ns", "__weakref__",
    )

    def __init__(self, machine, tid, socket, load_window, store_window,
                 fence_ns=10.0):
        self.machine = machine
        self.tid = tid
        self.socket = socket
        self.now = 0.0
        self.load_window = load_window
        self.store_window = store_window
        self.fence_ns = fence_ns
        self._loads = deque()
        self._stores = deque()
        self.pending_persists = []
        self.bytes_read = 0
        self.bytes_written = 0
        self.latencies = None       # enable with collect_latencies()

    # -- window management -------------------------------------------------

    def admit_load(self):
        """Block (advance the clock) until a load slot is free."""
        if len(self._loads) >= self.load_window:
            done = self._loads.popleft()
            if done > self.now:
                self.now = done
        return self.now

    def track_load(self, completion):
        self._loads.append(completion)

    def admit_store(self, lead_ns=0.0):
        """Block until a WPQ slot for this thread will be free.

        ``lead_ns`` is the pipeline latency between issuing the store
        and its arrival at the WPQ: the thread only needs the slot by
        *then*, so issue is delayed to ``oldest_accept - lead_ns`` (the
        store instruction itself retires quickly; the WPQ-occupancy
        window is what back-pressures).
        """
        if len(self._stores) >= self.store_window:
            done = self._stores.popleft()
            if done - lead_ns > self.now:
                self.now = done - lead_ns
        return self.now

    def track_store(self, completion):
        self._stores.append(completion)

    def drain(self):
        """Wait for every outstanding load and store (used by fences)."""
        for done in self._loads:
            if done > self.now:
                self.now = done
        self._loads.clear()
        for done in self._stores:
            if done > self.now:
                self.now = done
        self._stores.clear()

    def drain_persists(self):
        """Advance the clock past all pending persist completions."""
        if self.pending_persists:
            latest = max(self.pending_persists)
            if latest > self.now:
                self.now = latest
            self.pending_persists.clear()

    def sleep(self, ns):
        """Idle the thread for ``ns`` simulated nanoseconds."""
        self.now += ns

    def collect_latencies(self):
        """Start recording per-operation latencies (for latency benches)."""
        self.latencies = []
        return self

    def record_latency(self, ns):
        if self.latencies is not None:
            self.latencies.append(ns)

    # -- fences -------------------------------------------------------------

    def sfence(self):
        """Order prior flushes/write-backs/ntstores: wait for the ADR."""
        machine = self.machine
        if machine is not None and machine.pmcheck is not None:
            machine.pmcheck.on_sfence(self)
        if not self.pending_persists:
            # Nothing to order: a real sfence with an empty store queue
            # retires without stalling, so charging fence_ns here would
            # overstate latency (and the checker's redundant-fence
            # detector depends on an empty sfence being exactly free).
            return self.now
        self.drain_persists()
        self.now += self.fence_ns
        return self.now

    def mfence(self):
        """Full fence: drain loads, stores and pending persists.

        Unlike :meth:`sfence`, an mfence serializes the whole pipeline
        even when nothing is pending, so its cost is unconditional.
        """
        machine = self.machine
        if machine is not None and machine.pmcheck is not None:
            machine.pmcheck.on_mfence(self)
        self.drain()
        self.drain_persists()
        self.now += self.fence_ns
        return self.now


def run_workloads(pairs):
    """Interleave generator workloads in virtual-time order.

    ``pairs`` is ``[(thread, generator), ...]``.  Each generator
    performs simulated memory operations on its thread context and
    ``yield``s at interleaving points (typically once per operation or
    small batch).  The generator whose thread clock is smallest is
    always resumed next, ties going to the earlier pair, which is how
    cross-thread contention on shared resources is captured.  Returns
    the largest finishing thread clock.
    """
    # Heap items carry the thread and the generator's bound __next__
    # to avoid re-indexing pairs every step; idx is unique per pair so
    # ordering is (now, idx) and the trailing fields never compare.
    heap = [(thread.now, i, thread, gen.__next__)
            for i, (thread, gen) in enumerate(pairs)]
    threads = [item[2] for item in heap]
    heapq.heapify(heap)
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    while heap:
        _, idx, thread, step = heap[0]
        # Keys are (now, idx) and idx is unique, so pop order is a
        # total order on current keys.  The root entry's stored key
        # may go stale while we run ahead, but we only do so while
        # its *current* key stays strictly below the smaller root
        # child (the minimum of everything else in the heap), so
        # the workload we step is always the one the pop-push loop
        # would have picked.  While we run ahead the rest of the
        # heap is untouched, so that minimum is computed once per
        # root tenure, not per step.
        n = len(heap)
        if n > 2:
            a = heap[1]
            b = heap[2]
            other = a if a < b else b
        elif n == 2:
            other = heap[1]
        else:
            # One live workload (the only one, or the last): drain
            # it with no ordering work at all.
            try:
                while True:
                    step()
            except StopIteration:
                heappop(heap)
            continue
        onow = other[0]
        oidx = other[1]
        try:
            while True:
                step()
                now = thread.now
                if now > onow or (now == onow and idx > oidx):
                    heapreplace(heap, (now, idx, thread, step))
                    break
        except StopIteration:
            heappop(heap)
    return max((t.now for t in threads), default=0.0)


def run_interleaved(entries):
    """Step bounded per-thread loops in clock order (the closed loop).

    ``entries`` is ``[(thread, budget, step), ...]`` in spawn order;
    each ``step()`` call performs exactly one unit of work (one served
    request) on its thread.  Steps are executed in strictly increasing
    ``(thread.now, spawn index)`` order — the same total order the
    generator-based :func:`run_workloads` produces, because its heap (and
    run-ahead) always resumes the minimum-key workload and a serve
    client yields once per request.  This trades the heap and generator
    machinery for a direct scan over the (few) live clients, and
    extends the single-live-workload bypass to the serving common case:
    once one client remains, its loop drains with no ordering work at
    all.

    Returns the largest finishing thread clock, like
    :func:`run_workloads`.  Exhausted budgets drop out; a zero budget
    never steps (the scheduler equivalent is a generator that raises
    StopIteration on first resume, which performs no simulated work).
    A step that returns ``False`` did not finish its unit (a power
    failure interrupted the request): it is not charged to the budget,
    and the thread is stepped again when its clock is next the lowest.
    """
    threads = [e[0] for e in entries]
    live = [[thread, budget, step] for thread, budget, step in entries
            if budget > 0]
    while len(live) > 1:
        best = live[0]
        best_now = best[0].now
        for entry in live[1:]:
            now = entry[0].now
            if now < best_now:
                best = entry
                best_now = now
        if best[2]() is False:
            continue
        best[1] -= 1
        if best[1] == 0:
            live.remove(best)
    if live:
        _thread, budget, step = live[0]
        for _ in range(budget):
            while step() is False:
                pass
    return max((t.now for t in threads), default=0.0)
