"""The chaos matrix through the harness, and ``serve --chaos``."""

import json
import os

import pytest

from repro.__main__ import main
from repro.chaos_serve import SCENARIOS, build_chaos_grid, run_chaos_serve
from repro.harness.cache import ResultCache


class TestGrid:
    def test_quick_grid_shape(self):
        payloads = build_chaos_grid(quick=True)
        closed = [p for p in payloads if p["mode"] == "closed"]
        opened = [p for p in payloads if p["mode"] == "open"]
        # 2 workloads x 4 substrates x 4 scenarios, + the open cells.
        assert len(closed) == 2 * 4 * len(SCENARIOS)
        assert len(opened) == 2 * 2
        assert all("rate_kops" in p for p in opened)

    def test_restricted_grid(self):
        payloads = build_chaos_grid(workload="ycsb-a", substrate="lsm",
                                    quick=True)
        assert len(payloads) == len(SCENARIOS) + 2
        assert all(p["workload"] == "ycsb-a" for p in payloads)
        assert all(p["substrate"] == "lsm" for p in payloads)

    def test_full_grid_is_wider(self):
        assert len(build_chaos_grid()) > len(build_chaos_grid(quick=True))

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            build_chaos_grid(workload="nope", quick=True)

    def test_unknown_substrate_raises(self):
        with pytest.raises(ValueError, match="choose from"):
            build_chaos_grid(substrate="nope", quick=True)


class TestRunChaosServe:
    def _run(self, tmp_path, tag, jobs):
        cache = ResultCache(root=str(tmp_path / tag))
        return run_chaos_serve(workload="ycsb-a", substrate="lsm",
                               quick=True, jobs=jobs, cache=cache)

    def test_manifest_is_byte_identical_across_job_counts(self,
                                                          tmp_path):
        serial = self._run(tmp_path, "c1", jobs=1)
        parallel = self._run(tmp_path, "c2", jobs=4)
        a = str(tmp_path / "serial.json")
        b = str(tmp_path / "parallel.json")
        serial.manifest.save(a)
        parallel.manifest.save(b)
        with open(a, "rb") as fh:
            first = fh.read()
        with open(b, "rb") as fh:
            second = fh.read()
        assert first == second

    def test_cached_rerun_keeps_records_identical(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cold = run_chaos_serve(workload="ycsb-a", substrate="lsm",
                               quick=True, jobs=1, cache=cache)
        warm = run_chaos_serve(workload="ycsb-a", substrate="lsm",
                               quick=True, jobs=1, cache=cache)
        assert json.dumps(cold.records, sort_keys=True) == \
            json.dumps(warm.records, sort_keys=True)
        assert cold.ok and warm.ok

    def test_traced_run_leaves_cached_records_clean(self, tmp_path):
        def run(tag, **kw):
            return run_chaos_serve(
                workload="ycsb-a", substrate="lsm", quick=True, jobs=1,
                cache=ResultCache(root=str(tmp_path / tag)), **kw)

        cold = json.dumps(run("cold").records, sort_keys=True)
        traced = run("shared", trace_dir=str(tmp_path / "traces"))
        warm = run("shared")
        assert json.dumps(traced.records, sort_keys=True) == cold
        assert json.dumps(warm.records, sort_keys=True) == cold
        assert all("trace" in p for p in traced.manifest.points)
        assert not any("trace" in p for p in warm.manifest.points)


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestServeChaosCli:
    def test_quick_cell_exits_0_with_report(self, cache_env, capsys):
        out = str(cache_env / "chaos.json")
        assert main(["serve", "ycsb-a", "nova", "--chaos", "--quick",
                     "--jobs", "1", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "chaos serving (quick)" in stdout
        assert "no durability violations" in stdout
        with open(out) as fh:
            report = json.load(fh)
        assert report["violations"] == []
        assert len(report["cells"]) == len(SCENARIOS)
        assert os.path.exists(out + ".manifest.json")

    def test_naive_detects_violations_and_exits_1(self, cache_env,
                                                  capsys):
        out = str(cache_env / "naive.json")
        assert main(["serve", "ycsb-a", "lsm", "--chaos", "--quick",
                     "--naive", "--jobs", "1", "--out", out]) == 1
        stdout = capsys.readouterr().out
        assert "DURABILITY VIOLATIONS" in stdout
        assert "history:" in stdout
        with open(out) as fh:
            report = json.load(fh)
        assert report["violations"]

    def test_naive_without_chaos_exits_2(self, cache_env, capsys):
        assert main(["serve", "ycsb-a", "lsm", "--naive",
                     "--quick"]) == 2
        assert "--chaos" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, cache_env, capsys):
        assert main(["serve", "nope", "lsm", "--chaos",
                     "--quick"]) == 2

    def test_unknown_substrate_exits_2_and_writes_nothing(self, cache_env,
                                                          capsys):
        out = cache_env / "bogus.json"
        assert main(["serve", "ycsb-a", "bogus", "--chaos", "--quick",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert all(name in err for name in ("lsm", "nova", "pmdk",
                                            "pmemkv"))
        assert not os.path.exists(out)
        assert not os.path.exists(str(out) + ".manifest.json")

    def test_traced_report_equals_untraced(self, cache_env, capsys):
        def report(tag, cache, *extra):
            out = str(cache_env / (tag + ".json"))
            assert main(["serve", "ycsb-a", "pmemkv", "--chaos", "--quick",
                         "--jobs", "1", "--out", out,
                         "--cache-dir", str(cache_env / cache)]
                        + list(extra)) == 0
            with open(out, "rb") as fh:
                return fh.read()

        cold = report("cold", "cache-cold")
        traced = report("traced", "cache-shared",
                        "--trace-dir", str(cache_env / "traces"))
        warm = report("warm", "cache-shared")
        capsys.readouterr()
        assert traced == cold
        assert warm == cold

    def test_trace_dir_writes_valid_chaos_traces(self, cache_env,
                                                 capsys):
        from repro.telemetry.export import load_and_validate
        out = str(cache_env / "chaos.json")
        traces = str(cache_env / "traces")
        assert main(["serve", "ycsb-a", "lsm", "--chaos", "--quick",
                     "--jobs", "1", "--out", out,
                     "--trace-dir", traces]) == 0
        capsys.readouterr()
        written = sorted(os.listdir(traces))
        assert written
        chaos_events = 0
        for name in written:
            path = os.path.join(traces, name)
            assert load_and_validate(path) == []
            with open(path) as fh:
                data = json.load(fh)
            chaos_events += sum(
                1 for ev in data["traceEvents"]
                if ev.get("cat") in ("chaos", "degrade"))
        assert chaos_events > 0
