"""The registry: workload and metric names, read from BENCHMARK.json.

``BENCHMARK.json`` is the single place names, units, directions and
regression bounds are written down; the code emits exactly those names
(``run.py`` refuses to print a result whose metric set differs, and
``perfbench/tests`` checks the declared ``emits`` lists statically).
"""

import json
import os

from perfbench import ROOT

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

_ALL = ("serve-closed-write", "serve-open-read", "serve-substrates-rmw",
        "device-sweep", "chaos-recover", "serve-instrumented", "cli-cold")

#: Outcome metrics the contract's end-to-end list cannot carry.  It
#: prints *every* end-to-end metric on *every* workload, forbids one
#: that can read 0 and caps the cross-seed spread at 25 %: three of
#: these apply to some workloads only, ``failed_share`` is 0 wherever
#: nothing fails, and ``sim_p999_us`` sits inside a sparse band of
#: ~50 us media stalls on ``chaos-recover`` and moved 20 % from seed to
#: seed.  They ride in the per-layer list (0 = does not apply) while
#: the tool's own report and ``compare`` still treat them as
#: end-to-end rows.
OUTCOMES = {
    "max_kops_at_slo": ("serve-open-read",),
    "write_amp": ("serve-closed-write", "serve-substrates-rmw",
                  "serve-instrumented"),
    "fidelity_err": ("device-sweep",),
    "failed_share": _ALL,
    "sim_p999_us": _ALL,
}

#: Substrates in ``make_service`` order of appearance in the reports.
SUBSTRATES = ("lsm", "pmemkv", "nova", "pmdk")

#: Known, reported deviations at seed state, by (substrate, check).
#: Their failures are measured, listed key by key and counted in
#: ``failed_share``; they are kept out of the result line's ``failed``
#: because the contract asks for workloads on which no operation fails.
KNOWN_DEVIATIONS = {
    ("nova", "crash-read-back"):
        "slots read back stale after power_fail() + recover()",
    ("nova", "oracle"):
        "the chaos oracle reports lost/stale acknowledged writes",
    ("pmemkv", "recover"):
        "PmemPool.open() sizes the heap for the 64 MiB default before "
        "it reads the header, so recover() of a larger pool raises "
        "MemoryError",
}


def load(path=BENCHMARK_JSON):
    with open(path) as fh:
        return json.load(fh)


class Registry:
    """Names, units and bounds as BENCHMARK.json declares them."""

    def __init__(self, data=None):
        data = load() if data is None else data
        self.data = data
        self.run_seconds = data["run_seconds"]
        self.workloads = {w["name"]: w["why"] for w in data["workloads"]}
        self.end_to_end = {m["name"]: m for m in data["end_to_end"]}
        self.per_layer = {m["name"]: m for m in data["per_layer"]}

    def unit(self, name):
        entry = self.end_to_end.get(name) or self.per_layer[name]
        return entry["unit"]

    def better(self, name):
        entry = self.end_to_end.get(name) or self.per_layer[name]
        return entry["better"]

    def bound(self, name):
        """The regression bound; per-layer outcome rows reuse 1 %."""
        entry = self.end_to_end.get(name)
        if entry is not None:
            return entry["bound"]
        return 0.01 if name in OUTCOMES else None

    def report_rows(self, workload):
        """End-to-end rows of the tool's own report for one workload."""
        rows = list(self.end_to_end)
        rows.extend(name for name, where in OUTCOMES.items()
                    if workload in where)
        return rows
