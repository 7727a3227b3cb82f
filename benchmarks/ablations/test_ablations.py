"""Ablation benchmarks: remove one modelled mechanism, lose one pathology.

Each test disables a single structure the design (DESIGN.md) calls out
as load-bearing and shows that the corresponding published behaviour
disappears — evidence that the reproduction's results come from the
mechanisms, not from curve fitting.
"""

from benchmarks.conftest import fmt
from repro._units import KIB
from repro.lattester.bandwidth import measure_bandwidth
from repro.lattester.tail import hotspot_tail
from repro.lattester.xpbuffer_probe import probe_region
from repro.pmemkv.study import overwrite_benchmark
from repro.sim import Machine, MachineConfig


def test_ablate_xpbuffer_associativity(benchmark, report):
    """Fully-associative XPBuffer: the multi-writer EWR collapse vanishes."""

    def run():
        base = measure_bandwidth(kind="optane-ni", op="ntstore",
                                 threads=8, per_thread=64 * KIB)
        cfg = MachineConfig()
        cfg.xpbuffer.sets = 1
        cfg.xpbuffer.ways = 64          # same capacity, no conflicts
        flat = measure_bandwidth(kind="optane-ni", op="ntstore",
                                 threads=8, per_thread=64 * KIB,
                                 machine=Machine(cfg))
        return base, flat

    base, flat = benchmark.pedantic(run, rounds=1, iterations=1)
    report.row("8-writer EWR, 16x4 buffer", fmt(base.ewr), 0.62)
    report.row("8-writer EWR, fully assoc.", fmt(flat.ewr), "~1.0")
    assert base.ewr < 0.75
    assert flat.ewr > 0.9
    assert flat.gbps > 1.5 * base.gbps

    # ... while the Figure 10 capacity knee stays (it is capacity, not
    # associativity): both geometries combine at 64 lines.
    cfg = MachineConfig()
    cfg.xpbuffer.sets = 1
    cfg.xpbuffer.ways = 64
    p = probe_region(64, rounds=2, machine=Machine(cfg))
    assert p.write_amplification < 1.2


def test_ablate_wear_leveling(benchmark, report):
    """Disable AIT housekeeping: the 50 us tail outliers disappear."""

    def run():
        base = hotspot_tail(hotspot=256, ops=30000)
        cfg = MachineConfig()
        cfg.ait.enabled = False
        quiet = hotspot_tail(hotspot=256, ops=30000,
                             machine=Machine(cfg))
        return base, quiet

    base, quiet = benchmark.pedantic(run, rounds=1, iterations=1)
    report.row("max latency, AIT on", fmt(base.max_ns / 1000, 1),
               "~50", "us")
    report.row("max latency, AIT off", fmt(quiet.max_ns / 1000, 2),
               "<1", "us")
    assert base.max_ns > 45_000
    assert quiet.max_ns < 10 * quiet.p50_ns


def test_ablate_store_window(benchmark, report):
    """Unlimited per-thread WPQ occupancy: Figure 16's head-of-line
    blocking softens markedly."""
    from repro.lattester.contention import contention_experiment

    def run():
        base_1 = contention_experiment(dimms_per_thread=1,
                                       per_thread=48 * KIB)
        base_6 = contention_experiment(dimms_per_thread=6,
                                       per_thread=48 * KIB)
        cfg = MachineConfig()
        cfg.wpq.per_thread_lines = 512          # effectively unlimited
        wide_1 = contention_experiment(dimms_per_thread=1,
                                       per_thread=48 * KIB,
                                       machine=Machine(cfg))
        wide_6 = contention_experiment(dimms_per_thread=6,
                                       per_thread=48 * KIB,
                                       machine=Machine(cfg))
        return base_1, base_6, wide_1, wide_6

    base_1, base_6, wide_1, wide_6 = benchmark.pedantic(
        run, rounds=1, iterations=1)
    base_drop = base_6.bandwidth_gbps / base_1.bandwidth_gbps
    wide_drop = wide_6.bandwidth_gbps / wide_1.bandwidth_gbps
    report.row("6-DIMM/1-DIMM ratio, WPQ=4 lines", fmt(base_drop), "<0.8")
    report.row("6-DIMM/1-DIMM ratio, WPQ unlimited", fmt(wide_drop),
               "closer to 1")
    assert base_drop < 0.85
    assert wide_drop > base_drop + 0.04


def test_ablate_upi_turnaround(benchmark, report):
    """No link turnaround: the remote mixed-traffic collapse (Fig. 18)
    disappears."""
    import random

    from repro._units import CACHELINE, gb_per_s
    from repro.lattester.access import staggered_base
    from repro.sim import run_workloads

    def mixed_remote(cfg):
        m = Machine(cfg)
        ns = m.namespace("optane-remote")
        ts = m.threads(4, socket=0)

        def worker(t):
            rng = random.Random(7 + t.tid)
            base = staggered_base(t.tid, 64 * KIB)
            for i in range(64 * KIB // CACHELINE):
                addr = base + i * CACHELINE
                if rng.random() < 0.5:
                    ns.load(t, addr)
                else:
                    ns.ntstore(t, addr)
                yield
            t.sfence()

        elapsed = run_workloads([(t, worker(t)) for t in ts])
        return gb_per_s(64 * KIB * 4, elapsed)

    def run():
        base = mixed_remote(None)
        cfg = MachineConfig()
        cfg.numa.turnaround_ns = 0.0
        return base, mixed_remote(cfg)

    base, free = benchmark.pedantic(run, rounds=1, iterations=1)
    report.row("remote 1:1 mix x4, turnaround on", fmt(base),
               "collapsed", "GB/s")
    report.row("remote 1:1 mix x4, turnaround off", fmt(free),
               "recovers", "GB/s")
    assert free > 2.0 * base
    # The overwrite application feels it too, more mildly.
    app_base = overwrite_benchmark("optane-remote", threads=8,
                                   ops_per_thread=60)
    cfg = MachineConfig()
    cfg.numa.turnaround_ns = 0.0
    app_free = overwrite_benchmark("optane-remote", threads=8,
                                   ops_per_thread=60,
                                   machine=Machine(cfg))
    assert app_free.bandwidth_gbps > app_base.bandwidth_gbps

