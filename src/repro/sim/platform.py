"""The simulated evaluation platform.

A :class:`Machine` models the dual-socket Cascade Lake testbed of the
paper: per socket, one LLC, six memory channels, each carrying one
256 GB Optane DIMM and one DDR4 DIMM; the sockets joined by a UPI link.

Namespaces are created the way ``ndctl`` would:

* ``optane``        — all six local Optane DIMMs, 4 KB interleaved;
* ``optane-ni``     — one local Optane DIMM, not interleaved;
* ``optane-remote`` — the remote socket's interleaved Optane;
* ``dram`` / ``dram-ni`` / ``dram-remote`` — DRAM equivalents
  (emulated persistent memory backed by DRAM).

``power_fail()`` simulates pulling the plug: every namespace keeps only
what reached the ADR domain; all caches are dropped.
"""

import itertools
import weakref

from repro._units import CACHELINE
from repro.sim.cache import CacheModel, unpack
from repro.sim.config import default_config
from repro.sim.dram import DRAMDimm
from repro.sim.engine import ThreadCtx
from repro.sim.imc import MemoryChannel
from repro.sim.interleave import InterleavedMapping, LinearMapping
from repro.sim.namespace import Namespace
from repro.sim.numa import Interconnect
from repro.sim.xpdimm import XPDimm
from repro.telemetry.tracer import current_tracer


class Machine:
    """The whole simulated platform; the root object of the library."""

    def __init__(self, config=None):
        self.config = config if config is not None else default_config()
        cfg = self.config
        # Observability: every component shares the machine's tracer
        # reference (None = tracing off, the zero-overhead default).
        # Built first so the constructors below can capture it.
        self.tracer = current_tracer()
        self.upi = Interconnect(cfg.numa, tracer=self.tracer)
        self.caches = [
            CacheModel(cfg.cache, name="llc%d" % s)
            for s in range(cfg.sockets)
        ]
        self.optane = []            # [socket][dimm] -> (channel, XPDimm)
        self.dram = []
        for s in range(cfg.sockets):
            opt_row, dram_row = [], []
            for d in range(cfg.dimms_per_socket):
                tag = "s%d.d%d" % (s, d)
                opt_row.append((
                    MemoryChannel(cfg.channel, "ch.opt." + tag),
                    XPDimm(cfg, "xp." + tag, tracer=self.tracer),
                ))
                dram_row.append((
                    MemoryChannel(cfg.channel, "ch.dram." + tag),
                    DRAMDimm(cfg.dram, "dram." + tag,
                             tracer=self.tracer),
                ))
            self.optane.append(opt_row)
            self.dram.append(dram_row)
        if self.tracer is not None:
            self.tracer.attach_sampler(self._sample_counters)
        # Ownership (DESIGN.md, "Who owns whom"): the machine owns its
        # namespaces; each namespace reaches back through a weakref.
        # Threads own their machine, so it tracks them weakly.
        self._namespaces = {}
        self._ns_by_id = []
        self._threads = weakref.WeakSet()
        self._tids = itertools.count()
        # Optional fault controller (see repro.faults.model), the
        # persist path's only hook: crash points, torn writes, poison,
        # transient errors, thermal throttling.
        self.faults = None
        # Optional persistency-order checker (see repro.pmcheck): set
        # via PmCheck.install(); namespaces read it on every persist
        # event, so None must mean "no work at all".
        self.pmcheck = None

    # -- namespace management ------------------------------------------------

    def _register_namespace(self, namespace):
        # The cache packs ns_id into a line's six free low bits.
        if len(self._ns_by_id) >= CACHELINE:
            raise ValueError("a machine holds at most %d namespaces"
                             % CACHELINE)
        self._ns_by_id.append(namespace)
        return len(self._ns_by_id) - 1

    def namespace(self, kind="optane", socket=None, dimm=0):
        """Create (or fetch) a pmem namespace of the given kind."""
        base, _, suffix = kind.partition("-")
        if base not in ("optane", "dram"):
            raise ValueError("unknown namespace kind: %r" % (kind,))
        if suffix not in ("", "ni", "remote"):
            raise ValueError("unknown namespace kind: %r" % (kind,))
        if socket is None:
            socket = 1 if suffix == "remote" else 0
        key = (base, suffix == "ni", socket, dimm if suffix == "ni" else -1)
        existing = self._namespaces.get(key)
        if existing is not None:
            return existing
        devices = self.optane[socket] if base == "optane" else self.dram[socket]
        if suffix == "ni":
            devices = [devices[dimm]]
            mapping = LinearMapping(0)
        else:
            mapping = InterleavedMapping(
                self.config.interleave.block_bytes, len(devices))
        ns = Namespace(
            self, kind, devices, mapping, socket, is_optane=(base == "optane"))
        self._namespaces[key] = ns
        return ns

    def namespaces(self):
        return list(self._ns_by_id)

    # -- threads ---------------------------------------------------------------

    def thread(self, socket=0):
        """A new hardware thread pinned to ``socket``."""
        t = ThreadCtx(
            self, tid=next(self._tids), socket=socket,
            load_window=self.config.cache.load_window,
            store_window=self.config.wpq.per_thread_lines,
            fence_ns=self.config.cache.fence_ns)
        self._threads.add(t)
        return t

    def threads(self, count, socket=0):
        return [self.thread(socket) for _ in range(count)]

    # -- crash simulation --------------------------------------------------------

    def power_fail(self):
        """Simulate power loss: drop caches, keep only ADR-protected data.

        The XPBuffer is inside the ADR domain, so buffered-but-unwritten
        lines survive (our model persists data at WPQ insertion, which
        subsumes this).  CPU caches are not, so every dirty line that
        was never flushed is gone — unless the machine is configured
        with extended ADR (``config.cache.eadr``), in which case the
        stored energy drains every dirty cache line to media first, as
        the whole-system-persistence proposals of Section 6 would.
        """
        if self.pmcheck is not None:
            # Audit dirty lines before any state is dropped, then reset
            # the checker to the post-failure all-clean world.
            self.pmcheck.on_power_fail()
        if self.faults is not None and not self.config.cache.eadr:
            # Torn-write semantics: the final XPLine may keep only a
            # prefix of its 64 B chunks (see repro.faults.model).
            self.faults.on_power_fail()
        if self.config.cache.eadr:
            for cache in self.caches:
                for ns_id, line in cache.dirty_keys():
                    ns = self._ns_by_id[ns_id]
                    if ns.is_optane and not getattr(ns, "volatile", False):
                        ns.data.persist_line(line)
        for cache in self.caches:
            cache.drop_all()
        for ns in self._ns_by_id:
            ns.data.power_fail()
        for t in self._threads:
            t.pending_persists.clear()

    def _evict_writeback(self, tag, now):
        """Route a dirty natural cache eviction to its owning namespace."""
        ns_id, line = unpack(tag)
        self._ns_by_id[ns_id]._evict_writeback(line, now)

    # -- introspection --------------------------------------------------------------

    def _sample_counters(self):
        """Counter-timeline sample: one row per Optane DIMM.

        Registered with the tracer at construction; invoked whenever
        virtual time crosses the sampling interval.  Values are the
        DIMM's SMART counters plus XPBuffer occupancy, which is how a
        trace shows EWR and buffer pressure *over time* rather than as
        one end-of-run scalar.
        """
        samples = []
        for row in self.optane:
            for _, dimm in row:
                c = dimm.counters
                samples.append((dimm.name, "dimm", {
                    "imc_read_bytes": c.imc_read_bytes,
                    "imc_write_bytes": c.imc_write_bytes,
                    "media_read_bytes": c.media_read_bytes,
                    "media_write_bytes": c.media_write_bytes,
                    "xpbuffer_occupancy": dimm.buffer.occupancy(),
                }))
        return samples

    def total_migrations(self):
        return sum(
            dimm.media.ait.migrations
            for row in self.optane for _, dimm in row
        )

    def total_thermal_stalls(self):
        return sum(dimm.thermal_stalls for row in self.optane for _, dimm in row)
