"""Tracing is a pure observation: results are identical with tracing on
or off, and the trace itself is byte-identical run-to-run."""

import glob
import json

from repro._units import KIB
from repro.lattester.bandwidth import measure_bandwidth
from repro.telemetry import recording, write_chrome_trace


def traced_bandwidth(path=None):
    with recording() as tracer:
        result = measure_bandwidth(kind="optane-ni", op="ntstore",
                                   threads=2, access=256, pattern="rand",
                                   per_thread=16 * KIB)
        tracer.sample_now()
    if path is not None:
        write_chrome_trace(tracer, path)
    return result, tracer


class TestObservationPurity:
    def test_results_identical_traced_vs_untraced(self):
        untraced = measure_bandwidth(kind="optane-ni", op="ntstore",
                                     threads=2, access=256,
                                     pattern="rand", per_thread=16 * KIB)
        traced, tracer = traced_bandwidth()
        assert len(tracer) > 0
        assert traced == untraced

    def test_trace_byte_identical_across_runs(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        traced_bandwidth(a)
        traced_bandwidth(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_trace_covers_the_hierarchy(self):
        _, tracer = traced_bandwidth()
        counts = tracer.category_counts()
        for cat in ("wpq", "xpbuffer", "ait", "media", "counter"):
            assert counts.get(cat, 0) > 0, "no %s events" % cat


class TestHarnessTracing:
    GRID = {"kind": ("optane-ni",), "op": ("ntstore",),
            "pattern": ("seq",), "access": (256,), "threads": (1,)}

    def test_sweep_records_unchanged_and_artifacts_written(self, tmp_path):
        from repro.harness import ResultCache, run_sweep

        r0 = run_sweep(self.GRID, per_thread=8 * KIB, jobs=1,
                       cache=ResultCache(enabled=False))
        trace_dir = str(tmp_path / "traces")
        r1 = run_sweep(self.GRID, per_thread=8 * KIB, jobs=1,
                       cache=ResultCache(enabled=False),
                       trace_dir=trace_dir)
        assert r1.records == r0.records
        files = glob.glob(trace_dir + "/*.trace.json")
        assert len(files) == 1
        point = r1.manifest.to_dict()["points"][0]
        assert point["trace"] == files[0]
        assert "trace_path" not in point["params"]
        # untraced manifests carry no trace key at all
        assert "trace" not in r0.manifest.to_dict()["points"][0]

    def test_chaos_case_traces_fault_instants(self, tmp_path):
        from repro.faults.chaos import _run_case
        from repro.harness import run_points

        path = str(tmp_path / "case.json")
        payload = {"workload": "pmdk-tx", "crash_at": 2,
                   "tear": "prefix-1", "poison_site": 0, "seed": 0,
                   "naive": False}
        [outcome] = run_points(_run_case, [payload], jobs=1,
                               traces=[path])
        assert outcome.trace == path
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        names = {e["name"] for e in events if e.get("cat") == "fault"}
        assert "fault.power_fail" in names
        assert "fault.poison" in names
        # tracing is pure observation: the untraced record is identical
        assert outcome.value == _run_case(payload)
