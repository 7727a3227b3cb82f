"""Figure 5: bandwidth vs access size (random accesses).

Paper: the knee at 256 B (XPLine) for Optane; the interleaved-write
dip at 4 KB (the interleaving size) recovering toward 24 KB (the
stripe); DRAM flat-ish.
"""

from benchmarks.conftest import fmt
from repro._units import KIB
from repro.lattester.bandwidth import figure5


def test_fig05_bw_access_size(benchmark, report):
    curves = benchmark.pedantic(figure5, rounds=1, iterations=1)
    for (kind, op), pts in curves.items():
        report.series("%s %s" % (kind, op),
                      [(r.access, fmt(r.gbps, 1)) for r in pts], "GB/s")
    ni = {r.access: r.gbps for r in curves["optane-ni", "ntstore"]}
    il = {r.access: r.gbps for r in curves["optane", "ntstore"]}
    dram = {r.access: r.gbps for r in curves["dram", "read"]}

    # The 256 B knee: sub-XPLine random writes are poor.
    report.row("optane-ni 64B/256B ratio", fmt(ni[64] / ni[256]),
               "~0.25 (EWR)")
    assert ni[64] < 0.45 * ni[256]

    # The 4 KB interleave dip and the 24 KB recovery.
    report.row("optane 4K dip vs 1K", fmt(il[4 * KIB] / il[1024]), "<1")
    report.row("optane 24K recovery vs 4K",
               fmt(il[24 * KIB] / il[4 * KIB]), ">1.3")
    assert il[4 * KIB] < il[1024]
    assert il[24 * KIB] > 1.25 * il[4 * KIB]

    # DRAM has no XPLine knee.
    assert dram[64] > 0.6 * dram[256]
