"""The chaos matrix: determinism, invariants, and the naive-mode demo.

The quick matrix runs inline (seconds).  The exhaustive matrix — every
persist boundary x every tear pattern x every poison site — is marked
``faults`` and therefore opt-in::

    PYTHONPATH=src python -m pytest -m faults tests/faults
"""

import pytest

from repro.faults.chaos import WORKLOADS, _run_case, build_matrix, run_chaos
from repro.sim.crashpoints import count_persists


def _case(workload, crash_at=None, tear="none", poison=None, seed=0,
          naive=False):
    return _run_case({
        "workload": workload, "crash_at": crash_at, "tear": tear,
        "poison_site": poison, "seed": seed, "naive": naive,
    })


class TestMatrixShape:
    def test_quick_matrix_covers_every_workload(self):
        payloads = build_matrix(quick=True)
        assert {p["workload"] for p in payloads} == set(WORKLOADS)

    def test_matrix_is_deterministic(self):
        assert build_matrix(quick=True, seed=3) == \
            build_matrix(quick=True, seed=3)

    def test_full_matrix_has_every_crash_point(self):
        payloads = build_matrix(workloads=["pmdk-tx"])
        run, _ = WORKLOADS["pmdk-tx"]
        total = count_persists(
            lambda machine: run(machine, {"crash_at": None, "tear": "none"}))
        crash_ats = {p["crash_at"] for p in payloads}
        assert crash_ats == {None} | set(range(1, total + 1))


class TestSingleCases:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_clean_run_has_no_violations(self, workload):
        result = _case(workload)
        assert result["violations"] == []
        assert not result["crashed"]

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_crash_tear_poison_case_never_violates(self, workload):
        result = _case(workload, crash_at=5, tear="prefix-1", poison=0)
        assert result["violations"] == []
        assert result["crashed"]

    def test_same_seed_same_result(self):
        a = _case("lsm-flex", crash_at=7, tear="seeded", seed=11)
        b = _case("lsm-flex", crash_at=7, tear="seeded", seed=11)
        assert a == b


class TestQuickSweep:
    def test_quick_sweep_clean_and_deterministic(self, tmp_path):
        run1 = run_chaos(quick=True, seed=0, jobs=2)
        assert run1.outcomes
        assert run1.failures == []
        assert run1.violations == []
        run2 = run_chaos(quick=True, seed=0, jobs=1)
        p1 = run1.manifest.save(str(tmp_path / "a.json"))
        p2 = run2.manifest.save(str(tmp_path / "b.json"))
        with open(p1) as fh1, open(p2) as fh2:
            a, b = fh1.read(), fh2.read()
        # Byte-identical across runs and worker counts.
        assert a == b
        run3 = run_chaos(quick=True, seed=0, jobs=2)
        assert run3.manifest.to_dict() == run1.manifest.to_dict()

    def test_reports_show_loss_under_poison(self):
        run = run_chaos(quick=True, seed=0, jobs=2,
                        workloads=["lsm-flex"])
        lossy = [o for o in run.outcomes
                 if o.value and o.value["poison_site"] is not None
                 and o.value["report"] and o.value["report"]["lost"]]
        assert lossy            # poison surfaces as *reported* loss

    def test_tears_actually_tear(self):
        run = run_chaos(quick=True, seed=0, jobs=2,
                        workloads=["lsm-flex"])
        torn = sum(o.value["torn_chunks"] for o in run.outcomes
                   if o.value and o.value["tear"] != "none")
        assert torn > 0


class TestNaiveDemo:
    def test_naive_mode_surfaces_torn_tail_corruption(self):
        """The acceptance demo: disable CRCs and the matrix catches
        wrong values that honest recovery would have truncated."""
        run = run_chaos(quick=True, seed=0, jobs=2, naive=True,
                        workloads=["lsm-flex", "lsm-posix"])
        assert run.failures == []
        wrong = [v for v in run.violations
                 if "wrong value" in v["violation"]]
        assert wrong
        # And the honest (CRC) matrix over the same cases is clean.
        honest = run_chaos(quick=True, seed=0, jobs=2,
                           workloads=["lsm-flex", "lsm-posix"])
        assert honest.violations == []


@pytest.mark.faults
class TestExhaustiveMatrix:
    """Every persist point x tear x poison, per workload.  Minutes of
    runtime: opt-in via ``-m faults``."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_no_invariant_violations_anywhere(self, workload):
        run = run_chaos(seed=0, workloads=[workload])
        assert run.failures == []
        assert run.violations == [], (
            "%d violation(s) in %s: %r"
            % (len(run.violations), workload, run.violations[:5]))
