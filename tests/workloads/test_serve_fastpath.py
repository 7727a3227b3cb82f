"""The serving loops reproduce the recorded reference execution.

The batched request execution in the load loops and the chaos driver
replaced per-beat generator/``min(key=...)`` reference loops; before
those were deleted their output was recorded (on the parent commit,
fast-path switch off) into ``tests/golden/single_path.json``.  The single
path must agree with it to the byte — same latencies, same counters,
same chaos oracle verdicts, same checker summary — which is the
comparison the CI determinism gate used to make across whole manifests.
"""

import pytest

from tests.golden.cases import (
    SUBSTRATES, check, golden, golden_entry, run_case,
)


class TestClosedLoopIdentity:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_report_byte_identical(self, substrate):
        check("closed/" + substrate)

    def test_latency_percentiles_match(self):
        # Serve reports are stored whole, so the fields can be named.
        report = golden_entry(run_case("closed/lsm"))
        recorded = golden("closed/lsm")
        assert report["latency_us"] == recorded["latency_us"]
        assert report["ops_by_type"] == recorded["ops_by_type"]

    def test_write_heavy_workload_matches(self):
        check("closed/nova/ycsb-f/seed3")


class TestOpenLoopIdentity:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_report_byte_identical(self, substrate):
        check("open/" + substrate)

    def test_saturated_rate_matches(self):
        # Past the knee the backlog (and the deadline check) dominates.
        check("open/pmemkv/saturated")


class TestChaosIdentity:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_closed_cell_byte_identical(self, substrate):
        check("chaos/closed/" + substrate)

    def test_open_cell_byte_identical(self):
        check("chaos/open/lsm")

    def test_oracle_verdicts_match_even_when_naive(self):
        # The naive open-loop cell is the one that *finds* violations;
        # the single path must find the very same ones.
        record = run_case("chaos/open/lsm/naive")
        assert len(record["violations"]) >= 1
        check("chaos/open/lsm/naive", record)


class TestPmcheckForcesComposedPath:
    def test_install_clears_plain_and_reports_identically(self):
        # Historical name: an installed checker used to divert every
        # namespace to the composed bodies.  It now rides the one body;
        # report and checker summary must equal what the composed
        # bodies produced.
        check("pmcheck/closed/lsm")
