"""The ``repro report`` verb and the report builder's determinism."""

import html.parser
import json
import os

import pytest

from repro.__main__ import main
from repro.harness import ResultCache, RunManifest
from repro.lattester.report import table
from repro.obs import build_report, load_obs_blob, report_json, validate_obs
from repro.obs.hist import bucket_midpoint
from repro.obs.report import _hist_pairs
from repro.workloads import serve


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def quick_serve(out, jobs=1):
    assert main(["serve", "ycsb-a", "lsm", "--quick",
                 "--jobs", str(jobs), "--out", out]) == 0
    return out + ".manifest.json"


class TestReportVerb:
    def test_renders_tables_json_and_html(self, cache_env, capsys):
        manifest = quick_serve(str(cache_env / "serve.json"))
        json_out = str(cache_env / "report.json")
        html_out = str(cache_env / "report.html")
        assert main(["report", manifest, "--json", json_out,
                     "--html", html_out]) == 0
        stdout = capsys.readouterr().out
        assert "Latency and SLO burn per substrate" in stdout
        assert "Latency vs load" in stdout
        with open(json_out) as fh:
            report = json.load(fh)
        assert report["kind"] == "serve"
        assert report["with_obs"] > 0
        assert "lsm" in report["substrates"]
        with open(html_out) as fh:
            html = fh.read()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html          # self-contained, no external refs
        assert "http" not in html.split("</style>")[-1]

    def test_directory_target_renders_each_manifest(self, cache_env,
                                                    capsys):
        quick_serve(str(cache_env / "serve.json"))
        assert main(["report", str(cache_env)]) == 0
        assert "serve.json.manifest.json" in capsys.readouterr().out

    def test_directory_target_refuses_json_flag(self, cache_env,
                                                capsys):
        quick_serve(str(cache_env / "serve.json"))
        assert main(["report", str(cache_env),
                     "--json", str(cache_env / "r.json")]) == 2
        assert "single manifest" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, cache_env, capsys):
        assert main(["report", str(cache_env / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_obs_blobs_are_externalized_and_valid(self, cache_env,
                                                  capsys):
        manifest_path = quick_serve(str(cache_env / "serve.json"))
        capsys.readouterr()
        manifest = RunManifest.load(manifest_path)
        refs = [p["obs"] for p in manifest.points if "obs" in p]
        assert refs
        for point in manifest.points:
            if "obs" not in point:
                continue
            assert isinstance(point["obs"], str)    # ref, not blob
            blob = load_obs_blob(point, str(cache_env))
            assert validate_obs(blob) == []
        # Content addressing: every ref resolves to a file that exists.
        for ref in refs:
            assert os.path.exists(os.path.join(str(cache_env), ref))


class TestReportDeterminism:
    def test_json_identical_across_job_counts(self, tmp_path,
                                              monkeypatch, capsys):
        outputs = []
        for jobs, sub in ((1, "j1"), (2, "j2")):
            monkeypatch.setenv("REPRO_CACHE_DIR",
                               str(tmp_path / sub / "cache"))
            os.makedirs(str(tmp_path / sub), exist_ok=True)
            out = str(tmp_path / sub / "serve.json")
            manifest = RunManifest.load(quick_serve(out, jobs=jobs))
            report, _hists = build_report(manifest,
                                          base_dir=str(tmp_path / sub))
            outputs.append(report_json(report))
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestServeAndReportAgree:
    def test_curve_percentiles_match_the_report(self, tmp_path):
        report, manifest = serve("ycsb-b", "lsm", quick=True, seed=0,
                                 jobs=1,
                                 cache=ResultCache(str(tmp_path / "c")))
        rows = {row["offered_kops"]: row
                for row in build_report(manifest)[0]["curves"]["lsm"]}
        assert report["curve"]
        for point in report["curve"]:
            row = rows[point["offered_kops"]]
            assert (row["p50_us"], row["p99_us"]) == \
                (point["p50_us"], point["p99_us"])


class TestChaosReport:
    def test_chaos_manifest_reports_timeline(self, cache_env, capsys):
        out = str(cache_env / "chaos.json")
        assert main(["serve", "ycsb-a", "lsm", "--chaos", "--quick",
                     "--jobs", "1", "--out", out]) == 0
        json_out = str(cache_env / "report.json")
        assert main(["report", out + ".manifest.json",
                     "--json", json_out]) == 0
        stdout = capsys.readouterr().out
        assert "Chaos cells" in stdout
        with open(json_out) as fh:
            report = json.load(fh)
        assert report["kind"] == "chaos"
        names = {ev["name"] for cell in report["cells"]
                 for ev in cell["events"]}
        assert any(name.startswith("chaos.") for name in names)
        counters = report["substrates"]["lsm"]["counters"]
        assert counters.get("result_ok", 0) > 0
        assert counters.get("recoveries", 0) > 0


class TestCompareWithObs:
    def test_compare_of_identical_serves_matches(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        a = quick_serve(str(tmp_path / "a.json"))
        b = quick_serve(str(tmp_path / "b.json"))
        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out or "match" in out


@pytest.fixture(scope="module")
def quick_manifests(tmp_path_factory):
    """A quick ``serve`` and a quick ``serve --chaos`` manifest."""
    root = tmp_path_factory.mktemp("quick")
    paths = {}
    for kind, extra in (("serve", []), ("chaos", ["--chaos"])):
        out = str(root / (kind + ".json"))
        assert main(["serve", "ycsb-a", "lsm", "--quick", "--no-cache",
                     "--jobs", "1", "--out", out] + extra) in (0, 1)
        paths[kind] = out + ".manifest.json"
    return paths


class _HtmlTables(html.parser.HTMLParser):
    """``(title, headers, rows)`` of every ``<table>`` on a report page,
    titled by the ``<h2>`` before it."""

    def __init__(self):
        super().__init__()
        self.tables = []
        self._title = None
        self._row = []
        self._text = None

    def handle_starttag(self, tag, attrs):
        if tag == "h2" or tag in ("th", "td"):
            self._text = []
        elif tag == "table":
            self.tables.append((self._title, [], []))
        elif tag == "tr" and self.tables:
            self._row = []

    def handle_endtag(self, tag):
        if tag == "h2":
            self._title = "".join(self._text)
        elif tag == "th":
            self.tables[-1][1].append("".join(self._text))
        elif tag == "td":
            self._row.append("".join(self._text))
        elif tag == "tr" and self._row:
            self.tables[-1][2].append(self._row)
            self._row = []
        if tag in ("h2", "th", "td"):
            self._text = None

    def handle_data(self, data):
        if self._text is not None:
            self._text.append(data)


class TestOneRenderer:
    @pytest.mark.parametrize("kind", ["serve", "chaos"])
    def test_terminal_prints_exactly_the_html_tables(self, kind,
                                                     quick_manifests,
                                                     tmp_path, capsys):
        html_out = str(tmp_path / "report.html")
        capsys.readouterr()
        assert main(["report", quick_manifests[kind],
                     "--html", html_out]) == 0
        stdout = capsys.readouterr().out
        parser = _HtmlTables()
        with open(html_out) as fh:
            parser.feed(fh.read())
        assert len(parser.tables) >= 2
        terminal = "\n\n".join(table(headers, rows, title=title)
                               for title, headers, rows in parser.tables)
        assert stdout == "%s\nHTML report -> %s\n" % (terminal, html_out)
        titles = [title for title, _h, _r in parser.tables]
        assert titles[0].startswith("Latency and SLO burn per substrate")
        assert "p90 us" in parser.tables[0][1]
        if kind == "chaos":
            assert "Chaos cells" in titles
            assert any(t.startswith("Chaos: ycsb-a/lsm") for t in titles)
        else:
            assert "Latency vs load: lsm" in titles

    def test_html_loads_each_obs_blob_once(self, quick_manifests,
                                           tmp_path, monkeypatch, capsys):
        import repro.obs.report as obs_report
        calls = []
        real = obs_report.load_obs_blob

        def counting(point, base_dir):
            calls.append(point.get("obs"))
            return real(point, base_dir)

        monkeypatch.setattr(obs_report, "load_obs_blob", counting)
        json_out = str(tmp_path / "report.json")
        assert main(["report", quick_manifests["serve"], "--json",
                     json_out, "--html", str(tmp_path / "r.html")]) == 0
        capsys.readouterr()
        with open(json_out) as fh:
            with_obs = json.load(fh)["with_obs"]
        assert with_obs == 9
        assert len(calls) == with_obs

    def test_histogram_bars_count_every_request(self, quick_manifests):
        manifest = RunManifest.load(quick_manifests["serve"])
        _report, hists = build_report(
            manifest, base_dir=os.path.dirname(quick_manifests["serve"]))
        hist = hists["lsm"]
        assert len(hist.counts) > 64
        pairs = _hist_pairs(hist)
        assert len(pairs) <= 64
        assert sum(count for _label, count in pairs) == hist.total()
        top = max(hist.counts)
        assert pairs[-1][0] == round(bucket_midpoint(top) / 1e3, 2)


class TestReportKeepsGoing:
    def test_corrupt_manifest_does_not_hide_the_next(self, cache_env,
                                                     capsys):
        quick_serve(str(cache_env / "serve.json"))
        bad = cache_env / "a.manifest.json"
        bad.write_text("{not json")
        capsys.readouterr()
        assert main(["report", str(cache_env)]) != 0
        out, err = capsys.readouterr()
        assert str(bad) in err
        assert "== %s" % (cache_env / "serve.json.manifest.json") in out
        assert "Latency and SLO burn per substrate" in out
