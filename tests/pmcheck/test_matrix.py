"""The pmcheck matrix: grids, cells, determinism, checker transparency."""

import json

import pytest

from repro.harness.cache import ResultCache
from repro.pmcheck import (
    CHECK_WORKLOADS, PmCheck, build_pmcheck_grid, pmcheck_cell,
    run_pmcheck,
)
from repro.pmcheck.matrix import FULL_SHAPE
from repro.pmcheck.state import (
    V_ACK_BEFORE_FENCE, V_UNORDERED,
)
from repro.sim.platform import Machine
from repro.workloads.generators import get_workload
from repro.workloads.loadloop import closed_loop
from repro.workloads.service import SUBSTRATES, make_service

#: A shape small enough to cover the whole matrix inside tier-1 time.
TINY = {"seed": 0, "records": 64, "ops": 128, "clients": 2}


def cell(workload, substrate, naive=False, **overrides):
    payload = dict(TINY, workload=workload, substrate=substrate,
                   naive=naive)
    payload.update(overrides)
    return pmcheck_cell(payload)


class TestGrid:
    def test_quick_grid_covers_every_pair(self):
        payloads = build_pmcheck_grid(quick=True)
        assert len(payloads) == len(CHECK_WORKLOADS) * len(SUBSTRATES)

    def test_naive_grid_excludes_nova(self):
        payloads = build_pmcheck_grid(quick=True, naive=True)
        assert not any(p["substrate"] == "nova" for p in payloads)
        assert len(payloads) == len(CHECK_WORKLOADS) * 3

    def test_naive_nova_raises(self):
        with pytest.raises(ValueError):
            build_pmcheck_grid(substrate="nova", naive=True)

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            build_pmcheck_grid(workload="nope")

    def test_unknown_substrate_raises(self):
        with pytest.raises(ValueError):
            build_pmcheck_grid(substrate="nope")


class TestProtectedMatrix:
    @pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
    @pytest.mark.parametrize("workload", CHECK_WORKLOADS)
    def test_protected_cell_is_clean(self, workload, substrate):
        record = cell(workload, substrate)
        assert record["pmcheck"]["total"] == 0, \
            record["pmcheck"]["violations"]

    def test_cell_reports_served_traffic(self):
        record = cell("ycsb-a", "lsm")
        assert record["served"]["ops"] == TINY["ops"]


class TestFullShapeCleans:
    """The quick shape never fills a NOVA log; the full shape cleans, so
    the checker sees a clean's persist order."""

    @pytest.mark.parametrize("workload", ["ycsb-a", "ycsb-f"])
    def test_nova_cleans_and_stays_clean(self, monkeypatch, workload):
        from repro.fs.nova import NovaFS
        cleans = []
        real = NovaFS.clean

        def clean(fs, thread, inode):
            cleans.append(inode)
            real(fs, thread, inode)
        monkeypatch.setattr(NovaFS, "clean", clean)
        record = pmcheck_cell(dict(FULL_SHAPE, seed=0, workload=workload,
                                   substrate="nova", naive=False))
        assert record["pmcheck"]["total"] == 0, \
            record["pmcheck"]["violations"]
        assert cleans


class TestNaiveMatrix:
    def test_naive_lsm_acks_before_the_fence(self):
        summary = cell("ycsb-a", "lsm", naive=True)["pmcheck"]
        assert set(summary["kinds"]) == {V_ACK_BEFORE_FENCE}
        assert summary["violations"][0]["site"].startswith(
            "kvstore/wal.py")

    def test_naive_pmemkv_acks_before_the_fence(self):
        summary = cell("ycsb-a", "pmemkv", naive=True)["pmcheck"]
        assert set(summary["kinds"]) == {V_ACK_BEFORE_FENCE}
        assert summary["violations"][0]["site"].startswith(
            "pmemkv/cmap.py")

    def test_naive_pmdk_breaks_publish_order(self):
        summary = cell("ycsb-a", "pmdk", naive=True)["pmcheck"]
        assert V_UNORDERED in summary["kinds"]

    def test_naive_verdict_is_deterministic(self):
        first = cell("ycsb-a", "lsm", naive=True)
        second = cell("ycsb-a", "lsm", naive=True)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


class TestCheckerTransparency:
    """Checker-on runs must report the same simulated results."""

    @pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
    def test_report_is_byte_identical_with_checker_on(self, substrate):
        spec = get_workload("ycsb-a")

        def serve(check):
            machine = Machine()
            checker = PmCheck(machine).install() if check else None
            service = make_service(substrate, machine, spec,
                                   records=TINY["records"],
                                   ops=TINY["ops"], seed=0)
            report = closed_loop(machine, service, spec,
                                 records=TINY["records"],
                                 ops=TINY["ops"],
                                 clients=TINY["clients"], seed=0)
            if checker is not None:
                assert checker.summary()["total"] == 0
                checker.uninstall()
            return report

        assert json.dumps(serve(False), sort_keys=True) == \
            json.dumps(serve(True), sort_keys=True)


class TestRunPmCheck:
    def _run(self, tmp_path, tag, jobs, **kw):
        cache = ResultCache(root=str(tmp_path / tag))
        return run_pmcheck(workload="ycsb-a", substrate="lsm",
                           quick=True, jobs=jobs, cache=cache, **kw)

    def test_manifest_is_byte_identical_across_job_counts(self,
                                                          tmp_path):
        serial = self._run(tmp_path, "c1", jobs=1)
        parallel = self._run(tmp_path, "c2", jobs=2)
        a = str(tmp_path / "serial.json")
        b = str(tmp_path / "parallel.json")
        serial.manifest.save(a)
        parallel.manifest.save(b)
        with open(a, "rb") as fh:
            first = fh.read()
        with open(b, "rb") as fh:
            second = fh.read()
        assert first == second

    def test_protected_run_is_ok(self, tmp_path):
        run = self._run(tmp_path, "ok", jobs=1)
        assert run.ok
        assert not run.violations

    def test_naive_run_reports_annotated_violations(self, tmp_path):
        run = self._run(tmp_path, "naive", jobs=1, naive=True)
        assert not run.ok
        assert run.violations
        assert run.violations[0]["cell"] == {
            "workload": "ycsb-a", "substrate": "lsm", "naive": True}

    def test_cached_rerun_keeps_records_identical(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cold = run_pmcheck(workload="ycsb-a", substrate="lsm",
                           quick=True, jobs=1, cache=cache)
        warm = run_pmcheck(workload="ycsb-a", substrate="lsm",
                           quick=True, jobs=1, cache=cache)
        assert json.dumps(cold.records, sort_keys=True) == \
            json.dumps(warm.records, sort_keys=True)


class TestTracedRuns:
    """A trace path is manifest provenance, never part of a record: the
    record is what the cache keeps and the report prints."""

    def test_traced_run_leaves_cached_records_clean(self, tmp_path):
        def run(tag, **kw):
            return run_pmcheck(workload="ycsb-a", substrate="lsm",
                               quick=True, jobs=1,
                               cache=ResultCache(root=str(tmp_path / tag)),
                               **kw)

        cold = json.dumps(run("cold").records, sort_keys=True)
        traced = run("shared", trace_dir=str(tmp_path / "traces"))
        warm = run("shared")
        assert json.dumps(traced.records, sort_keys=True) == cold
        assert json.dumps(warm.records, sort_keys=True) == cold
        assert traced.manifest.points[0]["trace"]
        assert "trace" not in warm.manifest.points[0]

    def test_traced_cli_report_equals_untraced(self, tmp_path, capsys):
        from repro.__main__ import main

        def report(tag, cache, *extra):
            out = str(tmp_path / (tag + ".json"))
            assert main(["pmcheck", "ycsb-a", "lsm", "--quick",
                         "--jobs", "1", "--out", out,
                         "--cache-dir", str(tmp_path / cache)]
                        + list(extra)) == 0
            with open(out, "rb") as fh:
                return fh.read()

        cold = report("cold", "cache-cold")
        traced = report("traced", "cache-shared",
                        "--trace-dir", str(tmp_path / "traces"))
        warm = report("warm", "cache-shared")
        capsys.readouterr()
        assert traced == cold
        assert warm == cold
