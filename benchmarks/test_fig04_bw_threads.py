"""Figure 4: bandwidth vs thread count (256 B sequential accesses).

Paper: DRAM scales monotonically to ~105 GB/s read; a single Optane
DIMM peaks at 6.6 GB/s read (4 threads) / 2.3 GB/s ntstore (1-4
threads) and then *declines*; interleaving scales both by ~5.6-5.8x.
"""

from benchmarks.conftest import fmt
from repro.lattester.bandwidth import figure4


def test_fig04_bw_threads(benchmark, report):
    curves = benchmark.pedantic(figure4, rounds=1, iterations=1)
    for kind, ops in curves.items():
        for op, pts in ops.items():
            report.series("%s %s" % (kind, op),
                          [(r.threads, fmt(r.gbps, 1)) for r in pts],
                          "GB/s")
    ni = curves["optane-ni"]
    il = curves["optane"]
    dram = curves["dram"]

    ni_read_peak = max(r.gbps for r in ni["read"])
    ni_nt_peak = max(r.gbps for r in ni["ntstore"])
    report.row("Optane-NI read peak", fmt(ni_read_peak), 6.6, "GB/s")
    report.row("Optane-NI ntstore peak", fmt(ni_nt_peak), 2.3, "GB/s")
    assert 5.5 <= ni_read_peak <= 7.5
    assert 2.0 <= ni_nt_peak <= 3.0
    # The read peak is reached by ~4 threads and declines after
    # ("performance peaks between one and four threads, then tails
    # off" — for every non-interleaved case).
    read_by_threads = {r.threads: r.gbps for r in ni["read"]}
    assert read_by_threads[4] == max(read_by_threads.values())
    assert read_by_threads[24] < read_by_threads[4]

    # Non-monotonic single-DIMM writes: the 8+-thread tail collapses.
    nt_by_threads = {r.threads: r.gbps for r in ni["ntstore"]}
    assert nt_by_threads[8] < 0.7 * ni_nt_peak
    assert nt_by_threads[24] < 0.7 * ni_nt_peak

    # Interleaving scales ~6x.
    il_read_peak = max(r.gbps for r in il["read"])
    il_nt_peak = max(r.gbps for r in il["ntstore"])
    report.row("interleave read scaling", fmt(il_read_peak / ni_read_peak),
               5.8, "x")
    report.row("interleave write scaling", fmt(il_nt_peak / ni_nt_peak),
               5.6, "x")
    assert 4.5 <= il_read_peak / ni_read_peak <= 6.5

    # DRAM: fast and monotonic.
    dram_read = [r.gbps for r in dram["read"]]
    assert max(dram_read) > 90
    assert all(b >= a * 0.95 for a, b in zip(dram_read, dram_read[1:]))
