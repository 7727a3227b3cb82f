"""The harness CLI verbs (sweep / cache / compare / calibrate) and
script UX."""

import importlib.util
import os
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.harness import ResultCache, RunManifest, point_key

TINY_GRID = {
    "kind": ("dram-ni",),
    "op": ("read", "ntstore"),
    "pattern": ("seq",),
    "access": (256,),
    "threads": (1, 2),
}


REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                    os.pardir))


def _load_script(name):
    path = os.path.join(REPO, "scripts", name)
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_quick_grid(monkeypatch):
    import repro.lattester.sweep as sweep_module
    monkeypatch.setattr(sweep_module, "QUICK_GRID", TINY_GRID)
    return TINY_GRID


class TestSweepVerb:
    def test_quick_sweep_writes_csv_and_manifest(self, tmp_path,
                                                 tiny_quick_grid,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--quick", "--out", out,
                     "--jobs", "1"]) == 0
        assert os.path.exists(out)
        manifest = RunManifest.load(out + ".manifest.json")
        assert len(manifest.points) == 4
        assert manifest.cache_stats["misses"] == 4

    def test_second_quick_sweep_hits_cache(self, tmp_path,
                                           tiny_quick_grid,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--quick", "--out", out,
                     "--jobs", "1"]) == 0
        with open(out) as fh:
            first_csv = fh.read()
        assert main(["sweep", "--quick", "--out", out,
                     "--jobs", "1"]) == 0
        with open(out) as fh:
            second_csv = fh.read()
        assert first_csv == second_csv
        manifest = RunManifest.load(out + ".manifest.json")
        assert manifest.cache_stats["hit_rate"] == 1.0

    def test_quick_run_and_cached_rerun(self, tmp_path, tiny_quick_grid,
                                        monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--quick", "--out", out,
                     "--jobs", "1"]) == 0
        assert "points/s" in capsys.readouterr().out
        assert main(["sweep", "--quick", "--out", out,
                     "--jobs", "1"]) == 0
        assert "cache 4/4 hits" in capsys.readouterr().out

    def test_failed_points_exit_1_and_keep_the_good_half(
            self, tmp_path, monkeypatch, capsys):
        import repro.lattester.sweep as sweep_module
        monkeypatch.setattr(sweep_module, "QUICK_GRID",
                            dict(TINY_GRID, op=("read", "no-such-op")))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--quick", "--out", out,
                     "--jobs", "1"]) == 1
        assert "ERROR: 2 point(s) failed" in capsys.readouterr().err
        with open(out) as fh:
            assert len(fh.readlines()) == 3       # header + 2 points


class TestCacheVerb:
    def test_stats_and_clear(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        cache = ResultCache(root=root)
        cache.put(point_key("sweep", {"x": 1}), {"gbps": 1.0},
                  experiment="sweep")
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "artifacts:  1" in out
        assert "sweep" in out
        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cache.stats()["artifacts"] == 0


class TestCompareVerb:
    def _write(self, tmp_path, name, gbps):
        manifest = RunManifest(name=name)
        manifest.add_point(params={"threads": 1},
                           record={"gbps": gbps})
        return manifest.finish().save(str(tmp_path / (name + ".json")))

    def test_clean_comparison_exits_0(self, tmp_path, capsys):
        a = self._write(tmp_path, "a", 2.0)
        b = self._write(tmp_path, "b", 2.0)
        assert main(["compare", a, b]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_drift_exits_1(self, tmp_path, capsys):
        a = self._write(tmp_path, "a", 2.0)
        b = self._write(tmp_path, "b", 3.0)
        assert main(["compare", a, b]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path):
        a = self._write(tmp_path, "a", 2.0)
        b = self._write(tmp_path, "b", 2.2)
        assert main(["compare", a, b, "--tolerance", "0.5"]) == 0
        assert main(["compare", a, b, "--tolerance", "0.01"]) == 1

    def test_missing_or_corrupt_manifest_exits_2(self, tmp_path,
                                                 capsys):
        a = self._write(tmp_path, "a", 2.0)
        assert main(["compare", a, str(tmp_path / "nope.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{ not json")
        assert main(["compare", a, str(corrupt)]) == 2
        assert "cannot read manifest" in capsys.readouterr().err


class TestRegenerateAllScript:
    def test_quick_regenerate_and_cached_rerun(self, tmp_path,
                                               monkeypatch, capsys):
        script = _load_script("regenerate_all.py")
        monkeypatch.setattr(script, "QUICK_FIGURES", ("fig10",))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "raw.txt")
        assert script.main([out, "--quick"]) == 0
        assert os.path.exists(out)
        manifest = RunManifest.load(out + ".manifest.json")
        assert [p["params"]["figure"] for p in manifest.points] == \
            ["fig10"]
        assert not manifest.points[0]["cached"]
        assert script.main([out, "--quick"]) == 0
        assert "(cached)" in capsys.readouterr().out
        manifest = RunManifest.load(out + ".manifest.json")
        assert manifest.points[0]["cached"]

    def test_cold_and_warm_runs_write_identical_files(self, tmp_path,
                                                      monkeypatch):
        script = _load_script("regenerate_all.py")
        monkeypatch.setattr(script, "QUICK_FIGURES", ("fig2", "fig10"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        texts = []
        for name in ("cold.txt", "warm.txt"):
            out = str(tmp_path / name)
            assert script.main([out, "--quick"]) == 0
            with open(out) as fh:
                texts.append(fh.read())
        assert "('dram', 'read-seq')" in texts[0]
        assert texts[0] == texts[1]

    def test_run_verb_prints_the_block_the_script_writes(self, tmp_path,
                                                         monkeypatch,
                                                         capsys):
        script = _load_script("regenerate_all.py")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "raw.txt")
        assert script.main([out, "fig2"]) == 0
        with open(out) as fh:
            # The figure's block: after the title and workload lines, up
            # to the blank line that ends it.
            written = fh.read().split("\n\n")[0].split("\n")[2:]
        capsys.readouterr()
        assert main(["run", "fig2"]) == 0
        printed = capsys.readouterr().out.rstrip("\n").split("\n")[1:]
        assert "  ('dram', 'read-seq'):" in written
        assert printed == written

    def test_unknown_figure_exits_2(self, tmp_path, capsys):
        script = _load_script("regenerate_all.py")
        out = str(tmp_path / "raw.txt")
        assert script.main([out, "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestCalibrateVerb:
    def test_prints_the_same_table_from_any_directory(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))

        def calibrate(cwd):
            return subprocess.run(
                [sys.executable, "-m", "repro", "calibrate"], cwd=cwd,
                env=env, check=True, stdout=subprocess.PIPE).stdout

        from_root = calibrate(REPO)
        assert len(from_root.splitlines()) == 27
        assert calibrate(str(tmp_path)) == from_root


class TestRunVerbUnknownFigure:
    def test_exit_2_and_figure_list(self, capsys):
        assert main(["run", "figNaN"]) == 2
        err = capsys.readouterr().err
        assert "valid figures" in err
        assert "fig2" in err
