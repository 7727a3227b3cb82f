"""Calibration constants for the simulated Cascade Lake + Optane platform.

Every timing parameter of the simulator lives here, grouped by the
hardware structure it describes.  The defaults are calibrated so that
the microbenchmarks in :mod:`repro.lattester` reproduce the published
numbers of the FAST'20 paper (see DESIGN.md for the target table).

The configuration objects are plain dataclasses so experiments can
tweak individual parameters (the ablation benchmarks rely on this).
"""

from dataclasses import dataclass, field, replace

from repro._units import KIB, MIB, US


@dataclass
class MediaConfig:
    """Timing of the 3D XPoint storage media inside one DIMM.

    The media is modelled as a pool of ``banks`` concurrently busy
    units; every access occupies one bank for the listed occupancy and
    returns data after occupancy plus ``read_extra_ns`` of pipeline
    latency that does not occupy the bank.
    """

    banks: int = 6
    # 6 banks * 256 B / 235 ns  =  6.54 GB/s peak read per DIMM.
    read_occupancy_ns: float = 235.0
    read_extra_ns: float = 70.0
    # 6 banks * 256 B / 670 ns  =  2.29 GB/s peak write per DIMM.
    write_occupancy_ns: float = 670.0
    # Scaling applied when the DIMM is configured with a reduced power
    # budget (the paper sweeps this knob in its systematic sweep).
    power_budget: float = 1.0


@dataclass
class AITConfig:
    """Address indirection table / wear-levelling behaviour.

    Wear-levelling migrations are the source of the rare ~50 us write
    outliers of Figure 3: after roughly ``migrate_every`` media writes
    to the same XPLine the controller remaps the line, stalling the
    access that triggered it.
    """

    enabled: bool = True
    # One wear-levelling rotation per this many media writes per DIMM:
    # 1/4096 of 256 B media writes ~= 0.006 % of 64 B application
    # stores, the paper's measured outlier rate.
    migrate_every: int = 4096
    migrate_stall_ns: float = 50.0 * US
    # Deterministic per-DIMM phase so DIMMs do not migrate in lock-step;
    # expressed in media writes.
    migrate_jitter: int = 512
    # Thermal stall: an XPLine written this many times at the media
    # (since its last stall) stalls the write.  Subline overwrites flush
    # the XPBuffer, so even a hotspot smaller than the buffer reaches
    # the media line by line.
    thermal_every: int = 2048
    thermal_stall_ns: float = 50.0 * US


@dataclass
class XPBufferConfig:
    """The on-DIMM write-combining buffer (XPBuffer).

    16 KB = 64 XPLines, modelled as a set-associative structure; the
    limited associativity is what makes concurrent write streams evict
    partially written lines and collapse the effective write ratio.
    """

    sets: int = 16
    ways: int = 4
    # Time for the controller to merge a 64 B write into a buffered line
    # or to allocate a fresh (non-evicting) line.
    ingest_ns: float = 25.0
    # Additional controller latency for a read that hits the buffer.
    read_hit_ns: float = 53.0

    @property
    def lines(self):
        return self.sets * self.ways

    @property
    def capacity_bytes(self):
        return self.lines * 256


@dataclass
class WPQConfig:
    """iMC pending-queue behaviour (the ADR boundary).

    ``per_thread_lines`` models the documented fact that the WPQ will
    not buffer more than 256 B (4 cache lines) from a single thread;
    this limit produces the head-of-line blocking of Figure 16.
    """

    per_thread_lines: int = 4
    # Latency for a store to travel core -> iMC and commit into the
    # ADR-protected WPQ; this is what sfence waits for.  Calibrated so
    # that the full fenced sequences of Figure 2 (store+clwb+fence /
    # ntstore+fence, including core-side issue and fence costs) land on
    # 57/62/86/90 ns.
    insert_clwb_ns: float = 33.0
    insert_clwb_optane_ns: float = 38.0
    insert_nt_ns: float = 74.0
    insert_nt_optane_ns: float = 78.0


@dataclass
class ChannelConfig:
    """Per-channel (per-DIMM link) transfer occupancies at the iMC."""

    # Occupancy of the channel per 64 B beat.  Writes through the cache
    # hierarchy drain slightly faster than the weakly-ordered ntstore
    # path, matching the DRAM bandwidth split of Figure 4 (left).
    read_occ_ns: float = 3.6
    writeback_occ_ns: float = 4.4
    ntstore_occ_ns: float = 6.6


@dataclass
class DRAMConfig:
    """A DDR4 DIMM: symmetric, fast, row-buffer sensitive."""

    banks: int = 8
    row_bytes: int = 8 * KIB
    # Latency targets from Figure 2: 81 ns sequential, 101 ns random.
    row_hit_occupancy_ns: float = 14.0
    row_miss_occupancy_ns: float = 34.0
    read_extra_ns: float = 67.0
    write_occupancy_ns: float = 25.0


@dataclass
class CacheConfig:
    """CPU cache model (the LLC is what matters for persistence)."""

    capacity_bytes: int = 16 * MIB
    ways: int = 16
    hit_ns: float = 20.0
    # Extended ADR (the research proposals of Section 6, [43]/[67]):
    # the ADR domain grows to cover the caches, so every store is
    # persistent the moment it lands in a cache line — flushes become
    # unnecessary for durability (though they still cost time if
    # issued).
    eadr: bool = False
    # Per-instruction core-side issue costs.
    issue_ns: float = 2.0
    flush_issue_ns: float = 12.0
    fence_ns: float = 10.0
    # Memory-level parallelism: maximum outstanding cache-line fills a
    # single thread sustains (line fill buffers).
    load_window: int = 10


@dataclass
class NUMAConfig:
    """Cross-socket (UPI) link behaviour.

    The mixed read/write collapse of Figures 18/19 comes from the
    direction-turnaround penalty: every time consecutive transfers on
    the link change direction the link stalls for ``turnaround_ns``.
    """

    read_extra_ns: float = 61.0
    write_extra_ns: float = 100.0
    # Link occupancy per 64 B transfer, per direction.  Writes homed on
    # DDR-T ("heavy") occupy longer: the home iMC issues them to a slow
    # WPQ with stretched credit loops; DRAM-homed writes stream at
    # full UPI rate.
    read_occ_ns: float = 2.8
    write_occ_ns: float = 7.4
    write_occ_light_ns: float = 3.2
    turnaround_ns: float = 160.0


@dataclass
class InterleaveConfig:
    """Address interleaving across the DIMMs of one socket."""

    block_bytes: int = 4 * KIB
    dimms: int = 6


@dataclass
class MachineConfig:
    """Top-level configuration: two sockets of six channels each."""

    sockets: int = 2
    dimms_per_socket: int = 6
    dimm_capacity: int = 64 * MIB     # simulated span per DIMM (not 256 GB)
    dram_capacity: int = 64 * MIB     # simulated span per DRAM DIMM
    seed: int = 42

    media: MediaConfig = field(default_factory=MediaConfig)
    ait: AITConfig = field(default_factory=AITConfig)
    xpbuffer: XPBufferConfig = field(default_factory=XPBufferConfig)
    wpq: WPQConfig = field(default_factory=WPQConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    numa: NUMAConfig = field(default_factory=NUMAConfig)
    interleave: InterleaveConfig = field(default_factory=InterleaveConfig)

    def with_overrides(self, **kwargs):
        """Return a copy of this config with top-level fields replaced."""
        return replace(self, **kwargs)


def default_config():
    """The calibrated baseline configuration used by all experiments."""
    return MachineConfig()
