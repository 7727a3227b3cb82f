"""Recording rides along without changing anything it observes.

Two invariants: (1) a caller's recorder leaves the serving reports
byte-identical to runs where the loop makes its own, and (2) the
recorded blob itself
equals what the per-beat reference loops recorded before they were
deleted (``tests/golden/single_path.json``) — observability must not
fork determinism.
"""

import json
import math

import pytest

from repro.obs import ObsRecorder
from tests.golden.cases import (
    QUICK, SUBSTRATES, check, run_closed, run_open,
)


def as_bytes(data):
    return json.dumps(data, sort_keys=True).encode()


class TestRecordingChangesNothing:
    @pytest.mark.parametrize("runner", [run_closed, run_open])
    def test_report_identical_with_and_without_obs(self, runner):
        plain = runner("lsm")
        observed = runner("lsm", obs=ObsRecorder("lsm"))
        assert as_bytes(plain) == as_bytes(observed)


class TestRecordingIsPathIndependent:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_closed_blob_byte_identical(self, substrate):
        check("obs/closed/" + substrate)

    def test_open_blob_byte_identical(self):
        check("obs/open/pmemkv")


class TestRequestGranularity:
    def test_closed_loop_records_one_sample_per_request(self):
        # One latency per *request*, never one per cache line.
        obs = ObsRecorder("lsm")
        run_closed("lsm", obs=obs)
        assert obs.hist.total() == QUICK["ops"]
        assert sum(w[0] for w in obs.windows.values()) == QUICK["ops"]
        assert sum(obs.ops[op]["ok"] for op in obs.ops) == QUICK["ops"]

    def test_open_loop_records_one_sample_per_request(self):
        obs = ObsRecorder("lsm")
        run_open("lsm", obs=obs)
        assert obs.hist.total() == QUICK["ops"]

    def test_recorded_p99_tracks_exact_request_percentile(self):
        # Capture the exact per-request latencies through a shim and
        # check the histogram p99 lands within one bucket's relative
        # error (1/32) of the nearest-rank exact value.
        exact = []

        class Shim(ObsRecorder):
            def ingest(self, latencies_ns, end_ts_ns):
                exact.extend(latencies_ns)
                ObsRecorder.ingest(self, latencies_ns, end_ts_ns)

        obs = Shim("lsm")
        run_closed("lsm", obs=obs)
        assert len(exact) == QUICK["ops"]
        ordered = sorted(exact)
        for frac in (0.5, 0.95, 0.99):
            rank = max(1, math.ceil(len(ordered) * frac))
            truth = ordered[rank - 1]
            approx = obs.hist.percentile(frac)
            assert abs(approx - truth) <= truth / 32.0
