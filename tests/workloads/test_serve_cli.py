"""``python -m repro serve`` and the saturation controller."""

import json
import os

import pytest

from repro.__main__ import main
from repro.workloads.saturation import serve


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestServeVerb:
    def test_quick_serve_writes_report_and_manifest(self, cache_env,
                                                    capsys):
        out = str(cache_env / "serve.json")
        assert main(["serve", "ycsb-a", "lsm", "--quick",
                     "--jobs", "1", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "closed loop" in stdout
        assert "SLO" in stdout
        with open(out) as fh:
            report = json.load(fh)
        assert report["workload"] == "ycsb-a"
        assert report["substrate"] == "lsm"
        assert report["curve"]
        assert report["saturation"]["probes"]
        assert os.path.exists(out + ".manifest.json")

    def test_rerun_is_byte_identical(self, cache_env, capsys):
        a = str(cache_env / "a.json")
        b = str(cache_env / "b.json")
        assert main(["serve", "ycsb-a", "lsm", "--quick",
                     "--jobs", "1", "--out", a]) == 0
        assert main(["serve", "ycsb-a", "lsm", "--quick",
                     "--jobs", "1", "--out", b]) == 0
        capsys.readouterr()
        with open(a, "rb") as fh:
            first = fh.read()
        with open(b, "rb") as fh:
            second = fh.read()
        assert first == second

    def test_serial_and_parallel_reports_match(self, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c1"))
        serial = str(tmp_path / "serial.json")
        assert main(["serve", "ycsb-c", "pmemkv", "--quick",
                     "--jobs", "1", "--out", serial]) == 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c2"))
        parallel = str(tmp_path / "parallel.json")
        assert main(["serve", "ycsb-c", "pmemkv", "--quick",
                     "--jobs", "2", "--out", parallel]) == 0
        capsys.readouterr()
        with open(serial, "rb") as fh:
            a = fh.read()
        with open(parallel, "rb") as fh:
            b = fh.read()
        assert a == b

    def test_explicit_slo_is_respected(self, cache_env, capsys):
        out = str(cache_env / "slo.json")
        assert main(["serve", "ycsb-a", "lsm", "--quick",
                     "--jobs", "1", "--slo-p99-us", "3.5",
                     "--out", out]) == 0
        capsys.readouterr()
        with open(out) as fh:
            report = json.load(fh)
        assert report["saturation"]["slo_p99_us"] == 3.5
        assert report["saturation"]["slo_explicit"] is True

    def test_trace_dir_writes_valid_traces(self, cache_env, capsys):
        from repro.telemetry.export import load_and_validate
        out = str(cache_env / "serve.json")
        traces = str(cache_env / "traces")
        assert main(["serve", "ycsb-a", "pmdk", "--quick",
                     "--jobs", "1", "--out", out,
                     "--trace-dir", traces]) == 0
        capsys.readouterr()
        written = sorted(os.listdir(traces))
        assert written
        for name in written:
            assert load_and_validate(os.path.join(traces, name)) == []

    def test_unknown_workload_exits_2(self, cache_env, capsys):
        assert main(["serve", "nope", "lsm", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "valid workloads" in err
        assert "ycsb-a" in err

    def test_unknown_substrate_exits_2(self, cache_env, capsys):
        assert main(["serve", "ycsb-a", "nope", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "valid substrates" in err
        assert "pmemkv" in err


class TestCliErrorConvention:
    def test_unknown_verb_exits_2_with_verb_list(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "valid commands" in err
        assert "serve" in err
        assert "sweep" in err

    def test_unknown_argument_exits_2_with_verb_list(self, capsys):
        assert main(["serve", "ycsb-a", "lsm", "--bogus"]) == 2
        err = capsys.readouterr().err
        assert "valid commands" in err

    def test_unknown_argument_on_old_verbs_too(self, capsys):
        assert main(["sweep", "--bogus"]) == 2
        err = capsys.readouterr().err
        assert "valid commands" in err

    def test_missing_verb_exits_2(self, capsys):
        assert main([]) == 2
        assert "valid commands" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert "serve" in capsys.readouterr().out


class TestSaturationController:
    def test_search_brackets_the_knee(self, cache_env):
        report, manifest = serve("ycsb-a", "lsm", quick=True, jobs=1)
        sat = report["saturation"]
        assert sat["saturated"] is True
        assert sat["slo_met"] is True
        assert 0 < sat["max_kops"] < 1.25 * sat["closed_kops"]
        # Every probe at or below max_kops that was measured met the
        # SLO; the first failing probe is above it.
        for probe in sat["probes"]:
            if probe["rate_kops"] <= sat["max_kops"]:
                assert probe["meets_slo"]
        assert manifest.points

    def test_curve_shows_divergence(self, cache_env):
        report, _ = serve("ycsb-a", "pmemkv", quick=True, jobs=1)
        curve = report["curve"]
        assert curve[0]["offered_kops"] < curve[-1]["offered_kops"]
        assert curve[-1]["p99_us"] > 3 * curve[0]["p99_us"]

    def test_probes_reuse_the_cache(self, cache_env):
        serve("ycsb-a", "lsm", quick=True, jobs=1)
        report, manifest = serve("ycsb-a", "lsm", quick=True, jobs=1)
        # Second run: every curve point replays from cache.
        assert all(p["cached"] for p in manifest.points)
        assert report["saturation"]["probes"]

    def test_unknown_names_raise_with_choices(self, cache_env):
        with pytest.raises(KeyError, match="ycsb-a"):
            serve("nope", "lsm", quick=True)
        with pytest.raises(KeyError, match="nova"):
            serve("ycsb-a", "nope", quick=True)


class TestFailedPoint:
    """A serve point that raises surfaces as a RuntimeError naming it."""

    @pytest.mark.parametrize("mode,label", [("closed", "serve"),
                                            ("open", "curve")])
    def test_failed_point_names_params_and_error(self, monkeypatch, mode,
                                                 label):
        from repro.harness import ResultCache
        from repro.workloads import saturation

        measure = saturation._serve_point

        def fail_in_mode(payload):
            if payload["mode"] == mode:
                raise ValueError("substrate on fire")
            return measure(payload)

        # jobs=1 runs points in-process, where the patch is visible.
        monkeypatch.setattr(saturation, "_serve_point", fail_in_mode)
        with pytest.raises(RuntimeError) as info:
            serve("ycsb-a", "lsm", quick=True, jobs=1,
                  cache=ResultCache(enabled=False))
        message = str(info.value)
        assert message.startswith("%s point {" % label)
        assert "'mode': '%s'" % mode in message
        assert "ValueError: substrate on fire" in message
