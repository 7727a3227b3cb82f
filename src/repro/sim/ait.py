"""Wear levelling and thermal management (the tail-latency outliers).

The paper observes rare stalls of up to ~50 us on writes (0.006 % of
accesses), most frequent when writes concentrate in a small hotspot,
and "suspects remapping for wear-leveling or thermal concerns"
(Section 3.3).  We model both suspected causes:

* **wear migration** — the controller performs one wear-levelling
  rotation every ``migrate_every`` media writes (housekeeping activity
  proportional to media write traffic), stalling the access that
  triggered it by ``migrate_stall_ns``.  This gives the flat ~0.006 %
  background outlier rate for eviction-dominated workloads, diluted
  over ever more data as the hotspot grows.
* **thermal stall** — a single XPLine written ``thermal_every`` times
  at the media (since its last stall) triggers an extra throttling
  stall: concentrated wear heats one cell region.  Because the
  XPBuffer flushes on subline overwrite, even a hotspot that fits the
  buffer generates per-line media traffic, so small hotspots are the
  worst case — exactly the gradient of Figure 3.

A deterministic per-DIMM phase keeps distinct DIMMs from migrating in
lock-step.
"""


class AddressIndirectionTable:
    """Wear-levelling rotation and thermal throttling.

    Keeps only what the stalls read: the media-write count that paces
    migrations and, per XPLine, the writes since its last thermal stall.
    """

    __slots__ = ("_cfg", "_hot", "_writes", "_next_migration",
                 "migrations", "thermal_stalls")

    def __init__(self, config, phase=0):
        self._cfg = config
        self._hot = {}
        self._writes = 0
        jitter = phase % max(config.migrate_jitter, 1)
        self._next_migration = config.migrate_every + jitter
        self.migrations = 0
        self.thermal_stalls = 0

    def record_write(self, xpline):
        """Account one media write; returns the stall in ns (usually 0)."""
        if not self._cfg.enabled:
            return 0.0
        self._writes += 1
        stall = 0.0
        if self._writes >= self._next_migration:
            self._next_migration += self._cfg.migrate_every
            self.migrations += 1
            stall += self._cfg.migrate_stall_ns
        hot = self._hot.get(xpline, 0) + 1
        if hot >= self._cfg.thermal_every:
            self._hot[xpline] = 0
            self.thermal_stalls += 1
            stall += self._cfg.thermal_stall_ns
        else:
            self._hot[xpline] = hot
        return stall

    def hot_of(self, xpline):
        """Media writes to ``xpline`` since its last thermal stall."""
        return self._hot.get(xpline, 0)
