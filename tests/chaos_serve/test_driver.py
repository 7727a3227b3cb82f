"""Chaos cells end to end: faults fire, recovery audits, determinism."""

import json

import pytest

from repro.chaos_serve import chaos_serve_cell
from repro.chaos_serve.matrix import FULL_SHAPE
from repro.harness import run_points

QUICK = {"workload": "ycsb-a", "substrate": "lsm",
         "scenario": "power-fail", "mode": "closed", "naive": False,
         "seed": 0, "records": 160, "ops": 400, "clients": 2}


def cell(shape=(), **overrides):
    return chaos_serve_cell(dict(QUICK, **dict(shape, **overrides)))


class TestPowerFailCell:
    def test_protected_run_has_zero_violations(self):
        record = cell()
        assert record["violations"] == []
        assert record["faults"]["crashes"] == 2
        assert record["faults"]["torn_chunks"] > 0
        # Two mid-serve recoveries plus the final audit crash.
        assert len(record["recoveries"]) == 3
        assert record["recoveries"][-1]["final"] is True
        assert record["served"]["ops"] == QUICK["ops"]

    def test_every_recovery_carries_a_report_and_audit(self):
        record = cell()
        for recovery in record["recoveries"]:
            report = recovery["report"]
            assert report["component"] == "platform"
            assert report["recovered"] > 0
            check = recovery["check"]
            assert check["keys_checked"] > 0
            assert check["legal"] + check["reported_lost"] == \
                check["keys_checked"]

    def test_naive_open_loop_detects_a_violation(self):
        record = cell(mode="open", rate_kops=400.0, naive=True)
        assert record["naive"] is True
        assert len(record["violations"]) >= 1
        kinds = {v["kind"] for v in record["violations"]}
        assert kinds <= {"lost-acknowledged-write",
                         "stale-acknowledged-write", "garbage-value",
                         "unreadable-without-report"}
        # Every violation prints its offending history window.
        for violation in record["violations"]:
            assert violation["window"]
            assert violation["legal"]


class TestOtherScenarios:
    def test_poison_is_reported_not_violated(self):
        record = cell(scenario="poison", substrate="pmemkv")
        assert record["violations"] == []
        assert record["faults"]["poison_reads"] > 0
        assert record["recoveries"][-1]["report"]["lost"] > 0

    def test_transient_errors_are_absorbed_by_retries(self):
        record = cell(scenario="transient", substrate="pmemkv")
        assert record["violations"] == []
        assert record["faults"]["transient_reads"] > 0
        assert record["degrade"]["retries"] > 0
        assert record["degrade"]["retry_successes"] > 0

    def test_naive_transient_fails_requests_instead(self):
        record = cell(scenario="transient", substrate="pmemkv",
                      naive=True)
        assert record["degrade"]["retries"] == 0
        assert record["results"].get("failed", 0) > 0

    def test_thermal_stays_clean(self):
        record = cell(scenario="thermal")
        assert record["violations"] == []
        assert record["served"]["ops"] == QUICK["ops"]


class TestFullShape:
    """The 768-record shape: files large enough to clean and recycle
    pages, which the quick shape never reaches."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("scenario", ["power-fail", "poison"])
    def test_nova_has_zero_violations(self, scenario, seed):
        # Seeds 0 and 3 under poison drew 567 and 448 violations while
        # the cleaner freed pages the committed log still pointed at.
        record = cell(FULL_SHAPE, substrate="nova", scenario=scenario,
                      seed=seed)
        assert record["violations"] == []
        assert record["served"]["ops"] == FULL_SHAPE["ops"]

    def test_a_poisoned_data_page_does_not_stop_the_cleaner(self):
        # Seed 13 poisons a data page the cleaner carries instead of
        # folding.  While a clean failed on such a page, every put past
        # the threshold re-ran one and was reported failed, and the
        # breaker refused hundreds of requests; only the get of the dead
        # slot may fail.
        record = cell(FULL_SHAPE, substrate="nova", scenario="poison",
                      seed=13)
        assert record["violations"] == []
        assert record["breaker"]["transitions"] == 0
        assert record["results"] == {"failed": 1, "ok": 2399}

    @pytest.mark.parametrize("seed", [17, 27])
    def test_a_poisoned_log_page_does_not_stop_the_cleaner(self, seed):
        # These seeds poison a log page's next-pointer.  While a clean
        # walked the chain through it, every clean failed and the
        # breaker refused 813 and 884 requests.
        record = cell(FULL_SHAPE, substrate="nova", scenario="poison",
                      seed=seed)
        assert record["violations"] == []
        assert record["breaker"]["transitions"] == 0
        assert record["results"] == {"ok": FULL_SHAPE["ops"]}

    @pytest.mark.parametrize("scenario", ["power-fail", "poison"])
    @pytest.mark.parametrize("substrate", ["lsm", "pmemkv", "pmdk"])
    def test_other_substrates_have_zero_violations(self, substrate,
                                                   scenario):
        # Under poison a get of a dead object may fail; none is refused.
        record = cell(FULL_SHAPE, substrate=substrate, scenario=scenario)
        assert record["violations"] == []
        assert record["breaker"]["transitions"] == 0
        assert record["results"].get("failed", 0) <= 1
        assert sum(record["results"].values()) == FULL_SHAPE["ops"]


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        a = json.dumps(cell(), sort_keys=True)
        b = json.dumps(cell(), sort_keys=True)
        assert a == b

    def test_same_seed_open_loop_is_byte_identical(self):
        a = json.dumps(cell(mode="open", rate_kops=400.0),
                       sort_keys=True)
        b = json.dumps(cell(mode="open", rate_kops=400.0),
                       sort_keys=True)
        assert a == b

    def test_different_seeds_diverge(self):
        a = json.dumps(cell(), sort_keys=True)
        b = json.dumps(cell(seed=1), sort_keys=True)
        assert a != b


class TestTracedCell:
    """A cell traced through the harness holds the serve spans its
    docstring promises, and returns the untraced record."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"mode": "open", "rate_kops": 400.0},
        # Failed requests, and no span for any of them.
        {"scenario": "transient", "substrate": "pmemkv", "naive": True},
    ], ids=["closed-power-fail", "open-power-fail", "closed-transient"])
    def test_one_serve_span_per_ok_request(self, tmp_path, overrides):
        path = str(tmp_path / "cell.trace.json")
        [outcome] = run_points(chaos_serve_cell, [dict(QUICK, **overrides)],
                               jobs=1, traces=[path])
        assert outcome.ok and outcome.trace == path
        traced = outcome.value
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        serve = [e for e in events if e.get("cat") == "serve"]
        assert serve and all(e["ph"] == "X" for e in serve)
        assert len(serve) == traced["results"]["ok"]
        assert traced == cell(**overrides)


class TestOpenLoop:
    def test_served_plus_shed_accounts_for_every_arrival(self):
        record = cell(mode="open", rate_kops=400.0)
        assert record["mode"] == "open"
        assert sum(record["results"].values()) == QUICK["ops"]
        assert record["violations"] == []


class TestOverload:
    """The quick matrix never sheds, misses a deadline or moves the
    breaker, so this cell pins the protected path by behaviour: an
    open loop offered far more than the LSM serves under a thermal
    window."""

    def overloaded(self, rate_kops, naive):
        return cell(scenario="thermal", mode="open", rate_kops=rate_kops,
                    naive=naive)

    def test_protected_run_sheds(self):
        # Exact counts: a different MAX_INFLIGHT moves them.
        record = self.overloaded(40_000.0, naive=False)
        assert record["results"] == {"ok": 123, "shed": 277}
        assert record["degrade"]["shed"] == 277
        assert record["degrade"]["deadline_misses"] == 0
        assert record["violations"] == []

    def test_naive_run_sheds_nothing(self):
        record = self.overloaded(40_000.0, naive=True)
        assert record["degrade"]["shed"] == 0
        assert record["results"] == {"ok": QUICK["ops"]}

    @pytest.mark.parametrize("naive", [False, True])
    def test_a_tenth_of_the_load_sheds_nothing(self, naive):
        record = self.overloaded(4_000.0, naive=naive)
        assert record["degrade"]["shed"] == 0
        assert record["results"] == {"ok": QUICK["ops"]}
