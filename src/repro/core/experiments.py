"""Registry of every reproduced experiment.

Each entry maps a paper figure to the code that regenerates it: the
module-level function (resolved lazily, so importing this registry is
cheap) plus the benchmark file that prints the paper-comparable rows.
Figures 1 and 11 are architecture/mechanism diagrams with nothing to
measure and are intentionally absent.
"""

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    """One reproducible figure."""

    figure: str
    title: str
    section: str
    workload: str
    runner: str                 # "module:function" resolved lazily
    bench: str                  # benchmark file that regenerates it

    def run(self, **kwargs):
        """Resolve and execute the experiment's runner."""
        module_name, _, func_name = self.runner.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, func_name)(**kwargs)

REGISTRY = {
    "fig2": Experiment(
        figure="fig2", title="Best-case (idle) latency",
        section="3.2",
        workload="8 B loads seq/rand; fenced store+clwb / ntstore",
        runner="repro.lattester.latency:figure2",
        bench="benchmarks/test_fig02_idle_latency.py"),
    "fig3": Experiment(
        figure="fig3", title="Tail latency vs hotspot size",
        section="3.3",
        workload="fenced sequential ntstores inside 256 B..64 MB hotspots",
        runner="repro.lattester.tail:figure3",
        bench="benchmarks/test_fig03_tail_latency.py"),
    "fig4": Experiment(
        figure="fig4", title="Bandwidth vs thread count",
        section="3.4",
        workload="256 B sequential read/ntstore/store+clwb, 1-24 threads",
        runner="repro.lattester.bandwidth:figure4",
        bench="benchmarks/test_fig04_bw_threads.py"),
    "fig5": Experiment(
        figure="fig5", title="Bandwidth vs access size",
        section="3.4",
        workload="random accesses 64 B-64 KiB at best thread counts",
        runner="repro.lattester.bandwidth:figure5",
        bench="benchmarks/test_fig05_bw_access_size.py"),
    "fig6": Experiment(
        figure="fig6", title="Latency under load",
        section="3.5",
        workload="16 reader / 4 writer threads with inter-access delays",
        runner="repro.lattester.load:latency_bandwidth_curve",
        bench="benchmarks/test_fig06_latency_under_load.py"),
    "fig7": Experiment(
        figure="fig7", title="Microbenchmarks under emulation",
        section="4.1",
        workload="seq write latency/BW + read:write mixes on PMEP, "
                 "DRAM, DRAM-Remote vs Optane",
        runner="repro.emulation.study:figure7",
        bench="benchmarks/test_fig07_emulation.py"),
    "fig8": Experiment(
        figure="fig8", title="RocksDB persistence strategies",
        section="4.2",
        workload="db_bench SET, 20 B keys / 100 B values, sync each op",
        runner="repro.kvstore.study:figure8",
        bench="benchmarks/test_fig08_rocksdb.py"),
    "fig9": Experiment(
        figure="fig9", title="EWR vs device bandwidth (single DIMM)",
        section="5.1",
        workload="sweep of access size x threads x power budget",
        runner="repro.lattester.ewr:figure9_sweep",
        bench="benchmarks/test_fig09_ewr_correlation.py"),
    "fig10": Experiment(
        figure="fig10", title="Inferring XPBuffer capacity",
        section="5.1",
        workload="half-line/half-line rounds over N XPLines",
        runner="repro.lattester.xpbuffer_probe:figure10",
        bench="benchmarks/test_fig10_xpbuffer_probe.py"),
    "fig12": Experiment(
        figure="fig12", title="File IO latency (NOVA-datalog)",
        section="5.1.2",
        workload="64/256 B random overwrites + 4 KB reads on five "
                 "file-system configurations",
        runner="repro.fs.study:figure12",
        bench="benchmarks/test_fig12_nova_datalog.py"),
    "fig13": Experiment(
        figure="fig13", title="Persistence-instruction bandwidth/latency",
        section="5.2",
        workload="ntstore / store+clwb / store, 6 threads, 64 B-4 KB",
        runner="repro.core.figures:figure13",
        bench="benchmarks/test_fig13_persist_instructions.py"),
    "fig14": Experiment(
        figure="fig14", title="Bandwidth vs sfence interval",
        section="5.2",
        workload="single thread, clwb per line vs after write, vs ntstore",
        runner="repro.core.figures:figure14",
        bench="benchmarks/test_fig14_sfence_interval.py"),
    "fig15": Experiment(
        figure="fig15", title="Micro-buffering instruction tuning",
        section="5.2.1",
        workload="no-op transactions on 64 B-8 KB objects, NT vs CLWB "
                 "write-back",
        runner="repro.pmdk.study:figure15",
        bench="benchmarks/test_fig15_microbuffering.py"),
    "fig16": Experiment(
        figure="fig16", title="iMC contention (DIMMs per thread)",
        section="5.3",
        workload="fixed thread pool spread over 1..6 DIMMs",
        runner="repro.lattester.contention:figure16",
        bench="benchmarks/test_fig16_imc_contention.py"),
    "fig17": Experiment(
        figure="fig17", title="Multi-DIMM NOVA on FIO",
        section="5.3.1",
        workload="FIO 24 threads, seq/rand x read/write x sync/async, "
                 "interleaved vs pinned",
        runner="repro.fs.study:figure17",
        bench="benchmarks/test_fig17_multidimm_nova.py"),
    "fig18": Experiment(
        figure="fig18", title="Local vs remote bandwidth over R:W mix",
        section="5.4",
        workload="R, 4:1, 3:1, 2:1, 1:1, W mixes at 1 and 4 threads",
        runner="repro.core.figures:figure18",
        bench="benchmarks/test_fig18_numa_mix.py"),
    "fig19": Experiment(
        figure="fig19", title="PMemKV NUMA degradation",
        section="5.4.1",
        workload="cmap overwrite (read-modify-write), 1-12 threads, "
                 "4 memory placements",
        runner="repro.pmemkv.study:figure19",
        bench="benchmarks/test_fig19_pmemkv_numa.py"),
}


def get(figure):
    """Look up one experiment ('fig2' .. 'fig19')."""
    try:
        return REGISTRY[figure]
    except KeyError:
        raise KeyError(
            "unknown experiment %r (known: %s)"
            % (figure, ", ".join(sorted(REGISTRY)))) from None


def run_figure(payload):
    """One registry figure as a harness point: ``{"figure": "figN"}``
    -> the figure's output (module-level: it must pickle to workers)."""
    return get(payload["figure"]).run()


def all_experiments():
    """All experiments, ordered by figure number."""
    return [REGISTRY[k] for k in sorted(
        REGISTRY, key=lambda s: int(s[3:]))]
