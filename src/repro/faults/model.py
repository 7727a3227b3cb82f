"""Deterministic, seedable media-fault injection.

Real Optane DIMMs misbehave in ways a clean power-cut model misses:

* **Torn XPLine writes** — ADR drains the WPQ on power loss, but the
  256 B XPLine behind the final burst of 64 B stores is updated
  chunk-at-a-time; only a *prefix* of the chunks written to that line
  is guaranteed to land.  The prefix length is chosen deterministically
  from the injector seed, so every torn state is reproducible.
* **Poisoned XPLines** — uncorrectable media errors surface as poison:
  any read overlapping a poisoned line raises :class:`MediaError`.
* **Transient read errors** — a line fails its first N timed reads,
  then succeeds (retry-able device hiccups).
* **Thermal-throttle windows** — media occupancies stretch by a factor
  during a configured window, degrading bandwidth the way a hot DIMM
  does.

All faults are injected through one :class:`FaultController` installed
on the :class:`~repro.sim.platform.Machine`; it hooks the namespace
persist path (composing with :class:`~repro.sim.crashpoints.CrashInjector`)
and the :class:`~repro.sim.media.XPMedia` occupancy model.
"""

import zlib

from repro._units import CACHELINE, XPLINE, align_up


class MediaError(Exception):
    """An uncorrectable (or transient) media error surfaced to software."""

    def __init__(self, message, addr=None, size=None, transient=False):
        super().__init__(message)
        self.addr = addr
        self.size = size
        self.transient = transient


def _mix(seed, *parts):
    """Small deterministic hash: seed + context -> 32-bit value."""
    blob = ("%d|" % seed + "|".join(str(p) for p in parts)).encode()
    return zlib.crc32(blob) & 0xFFFFFFFF


def _xplines(addr, size):
    """The XPLine indices overlapped by ``[addr, addr+size)``."""
    first = addr // XPLINE
    last = (addr + max(size, 1) - 1) // XPLINE
    return range(first, last + 1)


class FaultController:
    """Machine-wide fault injector; install once per simulated machine.

    Creating the controller wires it into the machine's persist path
    and every Optane DIMM's media model.  All randomness derives from
    ``seed`` plus the fault site, never from global state, so the same
    (workload, seed) pair replays the same faults bit-for-bit.
    """

    def __init__(self, machine, seed=0, tear=False, tear_keep=None):
        self.machine = machine
        self.seed = seed
        self.tear = tear
        #: Explicit prefix length for torn writes; None derives it from
        #: the seed per torn line.
        self.tear_keep = tear_keep
        self._tail = []              # [(ns, line_addr, old_bytes)]
        self._tail_key = None        # (ns_id, xpline) of the open tail
        self.persist_order = []      # distinct (ns_id, xpline), first-persist order
        self._persist_seen = set()
        self.poisoned = set()        # {(ns_id, xpline)}
        self.transient = {}          # (ns_id, xpline) -> remaining failures
        self.windows = []            # [(start_ns, end_ns, factor)]
        self.torn_lines = []         # (ns_id, line_addr) rolled back last crash
        self.torn_chunks = 0
        self.poison_reads = 0
        self.transient_reads = 0
        machine.faults = self
        for row in machine.optane:
            for _, dimm in row:
                dimm.media.fault_controller = self

    def _trace(self, name, args):
        """Emit a fault instant on the machine's tracer (if tracing).

        Fault sites mostly fire outside simulated time (power failure,
        recovery scans), so events are stamped with the tracer's
        high-water mark — "at the end of what the simulation has done
        so far" — keeping the trace monotone and deterministic.
        """
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(tracer.last_ts, "fault", name,
                           track="faults", args=args)

    # -- torn-write model (persist-path hook) --------------------------

    def before_persist(self, ns, line):
        """Called by the namespace for every line entering ADR."""
        key = (ns.ns_id, line // XPLINE)
        if key not in self._persist_seen:
            self._persist_seen.add(key)
            self.persist_order.append(key)
        if not self.tear:
            return
        if key != self._tail_key:
            # A new XPLine started: everything before it is fully on
            # media (the controller wrote the old line out whole).
            self._tail_key = key
            self._tail = []
        self._tail.append((ns, line, ns.data.read_persistent(line, CACHELINE)))

    def on_power_fail(self):
        """Tear the final XPLine: keep only a prefix of its 64 B chunks.

        Returns the list of (ns_id, line_addr) chunks rolled back.
        """
        torn = []
        if self.tear and self._tail:
            n = len(self._tail)
            keep = self.tear_keep
            if keep is None:
                ns_id, xpline = self._tail_key
                keep = _mix(self.seed, "tear", ns_id, xpline, n) % (n + 1)
            keep = max(0, min(int(keep), n))
            for ns, line, old in reversed(self._tail[keep:]):
                ns.data.write_persistent(line, old)
                torn.append((ns.ns_id, line))
                self._trace("fault.torn_line",
                            {"ns_id": ns.ns_id, "line": line})
            self.torn_chunks += len(torn)
        self._trace("fault.power_fail", {"torn_chunks": len(torn)})
        self._tail = []
        self._tail_key = None
        self.torn_lines = torn
        return torn

    # -- poison / transient errors (read-path hooks) -------------------

    def poison(self, ns, addr, size=1):
        """Mark every XPLine overlapping the range as poisoned."""
        for xp in _xplines(addr, size):
            self.poisoned.add((ns.ns_id, xp))
            self._trace("fault.poison", {"ns_id": ns.ns_id, "xpline": xp})

    def poison_site(self, index):
        """Poison the ``index``-th distinct XPLine ever persisted.

        Deterministic poison-site selection for the chaos matrix: the
        order in which XPLines first reached ADR is a stable property
        of the workload.  Returns the poisoned ``(ns_id, xpline)`` or
        None when nothing persisted.
        """
        if not self.persist_order:
            return None
        site = self.persist_order[index % len(self.persist_order)]
        self.poisoned.add(site)
        self._trace("fault.poison",
                    {"ns_id": site[0], "xpline": site[1], "site": index})
        return site

    def clear_poison(self, ns, addr, size=1):
        """Scrub poison from the range (after a repair rewrote it)."""
        for xp in _xplines(addr, size):
            self.poisoned.discard((ns.ns_id, xp))

    def add_transient(self, ns, addr, size=1, errors=1):
        """The range's lines fail their next ``errors`` timed reads."""
        for xp in _xplines(addr, size):
            self.transient[(ns.ns_id, xp)] = errors

    def transient_site(self, index, errors=1):
        """The ``index``-th distinct persisted XPLine turns flaky.

        The transient analogue of :meth:`poison_site`: deterministic
        site selection over the first-persist order, for mid-serve
        injection where the caller has no namespace handle.  Returns
        the ``(ns_id, xpline)`` site or None when nothing persisted.
        """
        if not self.persist_order:
            return None
        site = self.persist_order[index % len(self.persist_order)]
        self.transient[site] = errors
        self._trace("fault.transient",
                    {"ns_id": site[0], "xpline": site[1],
                     "site": index, "errors": errors})
        return site

    def check_read(self, ns, addr, size, timed=False):
        """Raise :class:`MediaError` if the range hits a fault.

        Poison fires on every read path; transient errors only on timed
        reads (``timed=True``), modelling a device retry the untimed
        recovery scans are allowed to hide.
        """
        if not self.poisoned and not (timed and self.transient):
            return
        for xp in _xplines(addr, size):
            key = (ns.ns_id, xp)
            if timed:
                remaining = self.transient.get(key, 0)
                if remaining > 0:
                    self.transient[key] = remaining - 1
                    self.transient_reads += 1
                    self._trace("fault.transient_read",
                                {"ns_id": ns.ns_id, "xpline": xp})
                    raise MediaError(
                        "transient media error at %s xpline %#x"
                        % (ns.name, xp), addr=xp * XPLINE, size=XPLINE,
                        transient=True)
            if key in self.poisoned:
                self.poison_reads += 1
                self._trace("fault.poison_read",
                            {"ns_id": ns.ns_id, "xpline": xp})
                raise MediaError(
                    "poisoned XPLine at %s xpline %#x" % (ns.name, xp),
                    addr=xp * XPLINE, size=XPLINE)

    def poisoned_ranges(self, ns, addr, size):
        """Sub-ranges of ``[addr, addr+size)`` destroyed by poison.

        Returned as (offset, length) pairs *relative to addr*.
        """
        out = []
        for xp in _xplines(addr, size):
            if (ns.ns_id, xp) not in self.poisoned:
                continue
            start = max(addr, xp * XPLINE)
            end = min(addr + size, (xp + 1) * XPLINE)
            if out and out[-1][0] + out[-1][1] == start - addr:
                out[-1] = (out[-1][0], out[-1][1] + (end - start))
            else:
                out.append((start - addr, end - start))
        return out

    # -- thermal throttling (media hook) -------------------------------

    def add_thermal_window(self, start_ns, end_ns, factor=4.0):
        """Stretch media occupancies by ``factor`` during the window."""
        if factor <= 0:
            raise ValueError("throttle factor must be positive")
        self.windows.append((float(start_ns), float(end_ns), float(factor)))
        self._trace("fault.thermal_window",
                    {"start_ns": float(start_ns), "end_ns": float(end_ns),
                     "factor": float(factor)})

    def throttle_factor(self, now):
        factor = 1.0
        for start, end, f in self.windows:
            if start <= now < end:
                factor *= f
        return factor


def tolerant_read(ns, addr, size, view="persistent"):
    """Read a range, zero-filling poisoned XPLines instead of raising.

    The workhorse of every graceful recovery scan: returns
    ``(data, lost)`` where ``lost`` is a list of (offset, length)
    ranges relative to ``addr`` that were unreadable (their bytes come
    back zeroed).  Without a fault controller this is a plain read.
    """
    fc = getattr(ns.machine, "faults", None)
    raw_read = (ns.data.read_persistent if view == "persistent"
                else ns.data.read)
    data = raw_read(addr, size)
    if fc is None or not fc.poisoned:
        return data, []
    lost = fc.poisoned_ranges(ns, addr, size)
    if not lost:
        return data, []
    fc.poison_reads += len(lost)
    buf = bytearray(data)
    for offset, length in lost:
        buf[offset:offset + length] = b"\x00" * length
    return bytes(buf), lost


def overlaps_lost(lost, offset, length):
    """True when ``[offset, offset+length)`` touches an unreadable range."""
    end = offset + length
    return any(offset < lo + ll and lo < end for lo, ll in lost)


#: What a :func:`scan_log` ``decode`` answers where its log ends.
END = object()


def scan_log(buf, lost, decode, report, start=0, end=None, align=None,
             hole="unreadable hole", torn="torn tail"):
    """The one tolerant recovery scan (WAL, SSTables, NOVA's log pages).

    ``buf`` and ``lost`` come from :func:`tolerant_read`;
    ``decode(offset)`` answers ``(item, next_offset)``, ``None`` (no
    valid record) or :data:`END` (the format's end of log).  From
    ``start`` to ``end`` (default ``len(buf)``) each offset is:

    * *recovered* — a record decodes;
    * *quiet end* — ``END``, or zeroed space with no unreadable range
      ahead;
    * *lost* — an unreadable range ends past it (noted as ``"<hole> at
      +off (n bytes)"``); the scan resyncs at the next ``align``-ed
      offset that is not ``None``, or abandons the rest when
      ``align=None`` (unaligned records);
    * *truncated* — anything else: a torn record (``"<torn> truncated
      at +off"``).

    Returns ``(items, offset where the scan stopped)``.
    """
    end = len(buf) if end is None else end

    def probe(pos):
        got = decode(pos)
        # count(0) checks the (MiB-scale) rest at memchr speed, no copy.
        if got is None and not buf[pos] \
                and buf.count(0, pos, end) == end - pos \
                and not any(lo + ll > pos for lo, ll in lost):
            return END                     # zeroed space: the log ended
        return got

    items = []
    pos = start
    while pos < end:
        got = probe(pos)
        if got is END:
            break
        if got is not None:
            item, pos = got
            items.append(item)
            report.recovered += 1
            continue
        at = next(((lo, ll) for lo, ll in lost if lo + ll > pos), None)
        if at is None:
            report.truncated += 1
            report.note("%s truncated at +%d" % (torn, pos))
            break
        report.lost += 1
        report.note("%s at +%d (%d bytes)" % (hole, at[0], at[1]))
        if align is None:
            report.note("records unaligned: log abandoned at +%d" % pos)
            break
        pos = align_up(max(at[0] + at[1], pos + 1), align)
        while pos < end and probe(pos) is None:
            pos += align
    return items, pos

