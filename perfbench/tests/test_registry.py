"""BENCHMARK.json against the contract, and against the code."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, layers, run, workloads
from perfbench.compare import verdict
from perfbench.spec import BENCHMARK_JSON, OUTCOMES, Registry, load
from perfbench.timing import MissingLayerFunction, percentile, require

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_schema_limits():
    data = load()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert os.path.getsize(BENCHMARK_JSON) <= 64 * 1024
    assert 2 <= len(data["workloads"]) <= 8
    assert 1 <= len(data["end_to_end"]) <= 16
    assert 1 <= len(data["per_layer"]) <= 128
    assert isinstance(data["run_seconds"], int)
    assert 1 <= data["run_seconds"] <= 60
    assert data["paths"] == ["perfbench"]
    assert all(len(part) <= 200 for part in data["command"])
    for entry in data["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in data["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in data["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in data[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    setup = Registry().end_to_end["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in data["end_to_end"])


def test_every_declared_name_is_emitted_and_vice_versa():
    registry = Registry()
    assert set(registry.workloads) == set(workloads.WORKLOADS)
    assert list(registry.end_to_end) == list(run.END_TO_END)
    emitted = list(OUTCOMES) + layers.declared_names()
    assert len(emitted) == len(set(emitted))
    assert set(registry.per_layer) == set(emitted)
    for where in OUTCOMES.values():
        assert set(where) <= set(registry.workloads)


def test_a_missing_layer_function_names_its_metric():
    from repro.sim import engine
    assert require(engine, "run_interleaved", "m") is engine.run_interleaved
    with pytest.raises(MissingLayerFunction) as err:
        require(engine, "run_interleaved_v2",
                "engine.run_interleaved.step.wall_ns")
    assert "engine.run_interleaved.step.wall_ns" in str(err.value)
    assert "run_interleaved_v2" in str(err.value)


def test_interpolated_percentile_stays_inside_the_bucket():
    from repro.obs.hist import LatencyHistogram, bucket_bounds, bucket_index
    hist = LatencyHistogram()
    values = [100.0 + i for i in range(1000)]
    hist.record_many(values)
    previous = 0.0
    for frac in (0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0):
        exact = sorted(values)[max(0, int(len(values) * frac) - 1)]
        lo, hi = bucket_bounds(bucket_index(exact))
        got = percentile(hist, frac)
        assert lo <= got <= hi
        assert got >= previous
        previous = got
    assert percentile(LatencyHistogram(), 0.5) == 0.0


def test_compare_verdicts():
    assert verdict("wall_us_per_op", "lower", 0.1, [10.0], [10.9])[0] == "ok"
    state, ratio = verdict("wall_us_per_op", "lower", 0.1, [10.0], [11.5])
    assert (state, ratio) == ("worse", 1.15)
    # Worse at the median, but A's own windows spread wider than the
    # bound and the quartile ranges overlap.
    assert verdict("wall_us_per_op", "lower", 0.1, [8.0, 10.0, 14.0],
                   [11.0, 11.5, 12.0])[0] == "unresolved"
    assert verdict("max_kops_at_slo", "higher", 0.01, [4000.0],
                   [3000.0])[0] == "worse"
    assert verdict("failed_share", "lower", 0.01, [0.0], [0.0])[0] == "ok"
    assert verdict("failed_share", "lower", 0.01, [0.0], [1e-6])[0] == "worse"
    assert verdict("fidelity_err", "lower", 0.01, [0.06], [0.069])[0] == "ok"
    assert verdict("fidelity_err", "lower", 0.01, [0.06], [0.071])[0] \
        == "worse"


def test_no_result_where_there_is_nothing_to_measure(tmp_path):
    """Only BENCHMARK.json and perfbench/: non-zero exit, no result."""
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "serve-closed-write", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={"PATH": os.environ["PATH"]})
    assert proc.returncode != 0
    assert proc.stdout == b""
    assert b"no src/repro" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["BENCHMARK.json", "perfbench"]


def test_baseline_records_two_seeds():
    path = os.path.join(ROOT, "perfbench", "baseline.json")
    with open(path) as fh:
        baseline = json.load(fh)
    assert baseline["seed"]["seed"] != baseline["held_out_seed"]["seed"]
    registry = Registry()
    for run_ in baseline.values():
        assert set(run_["workloads"]) == set(registry.workloads)
