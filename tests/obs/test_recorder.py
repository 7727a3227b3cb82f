"""ObsRecorder: ingest folds, SLO burn windows, merge, serialization."""

import pytest

from repro.obs import ObsRecorder, validate_obs
from repro.obs.hist import LatencyHistogram

NS = 1e3  # ns per us


def reference_fold(rec, latencies, ts):
    """The unfused reference of what ingest must compute."""
    hist = LatencyHistogram()
    hist.record_many(latencies)
    slo_ns = rec.slo_us * NS
    window_ns = rec.window_us * NS
    windows = {}
    for lat, t in zip(latencies, ts):
        win = windows.setdefault(int(t // window_ns),
                                 [0, 0, 0, 0.0, 0.0])
        win[0] += 1
        if lat > slo_ns:
            win[1] += 1
        win[3] += lat
        if lat > win[4]:
            win[4] = lat
    return hist, windows


class TestIngest:
    def test_matches_reference_fold(self):
        # Latencies repeat (memoized bucket path) and timestamps jump
        # backwards between "clients" (window-cache invalidation).
        latencies = [50.0, 150000.0, 50.0, 99.0, 150000.0] * 100
        ts = [float(i * 3700) for i in range(250)] \
            + [float(i * 3700) for i in range(250)]
        rec = ObsRecorder("lsm")
        rec.ingest(latencies, ts)
        hist, windows = reference_fold(rec, latencies, ts)
        assert rec.hist == hist
        assert rec.windows == windows

    def test_slo_miss_counting(self):
        rec = ObsRecorder("lsm", slo_us=10.0, window_us=100.0)
        # 10 us SLO => 10_000 ns; one miss, two hits, same window.
        rec.ingest([5000.0, 20000.0, 9999.0], [1.0, 2.0, 3.0])
        assert list(rec.windows) == [0]
        assert rec.windows[0][0] == 3
        assert rec.windows[0][1] == 1

    def test_ingest_ops_accumulates(self):
        rec = ObsRecorder("lsm")
        rec.ingest_ops({"get": 3, "put": 1})
        rec.ingest_ops({"get": 2})
        assert rec.ops["get"] == {"ok": 5, "errors": 0}
        assert rec.ops["put"] == {"ok": 1, "errors": 0}

    def test_error_lands_in_its_window(self):
        rec = ObsRecorder("lsm", window_us=10.0)
        rec.error("put", 25_000.0)       # 25 us -> window 2
        assert rec.ops["put"]["errors"] == 1
        assert rec.windows[2][2] == 1

    def test_counters_skip_zero(self):
        rec = ObsRecorder("lsm")
        rec.count("sheds", 0)
        rec.count("sheds", 2)
        rec.count("sheds")
        assert rec.counters == {"sheds": 3}


class TestBurn:
    def test_burn_rates(self):
        rec = ObsRecorder("lsm", slo_us=10.0, window_us=10.0,
                          budget=0.01)
        # Window 0: 100 ops, 1 miss -> burn 1.0.  Window 1: clean.
        rec.ingest([20000.0] + [100.0] * 99, [1.0] * 100)
        rec.ingest([100.0] * 100, [15000.0] * 100)
        burn = rec.burn()
        assert burn["windows"] == 2
        assert burn["slo_misses"] == 1
        assert burn["total_burn"] == pytest.approx(0.5)
        assert burn["worst_window_burn"] == pytest.approx(1.0)

    def test_empty_recorder_burns_nothing(self):
        burn = ObsRecorder("lsm").burn()
        assert burn["total_burn"] == 0.0
        assert burn["worst_window_burn"] == 0.0


class TestMerge:
    def test_merge_is_exact(self):
        a = ObsRecorder("lsm")
        a.ingest([100.0, 200.0], [1.0, 2.0])
        a.ingest_ops({"get": 2})
        a.count("sheds", 1)
        a.event(5.0, "breaker.open")
        b = ObsRecorder("lsm")
        b.ingest([100.0, 900000.0], [3.0, 50000.0])
        b.ingest_ops({"get": 1, "put": 1})
        b.error("put", 60000.0)
        a.merge(b)
        assert a.hist.total() == 4
        assert a.ops["get"] == {"ok": 3, "errors": 0}
        assert a.ops["put"] == {"ok": 1, "errors": 1}
        assert a.counters == {"sheds": 1}
        assert len(a.events) == 1

    def test_geometry_mismatch_raises(self):
        a = ObsRecorder("lsm", slo_us=100.0)
        b = ObsRecorder("lsm", slo_us=50.0)
        with pytest.raises(ValueError, match="geometry"):
            a.merge(b)

    def test_merged_summary_equals_combined_run(self):
        lat_a = [100.0, 5000.0, 70.0] * 30
        lat_b = [90.0, 300000.0] * 30
        ts_a = [float(i * 500) for i in range(90)]
        ts_b = [float(i * 500) for i in range(60)]
        a = ObsRecorder("lsm")
        a.ingest(lat_a, ts_a)
        b = ObsRecorder("lsm")
        b.ingest(lat_b, ts_b)
        combined = ObsRecorder("lsm")
        combined.ingest(lat_a + lat_b, ts_a + ts_b)
        assert a.merge(b).summary() == combined.summary()


class TestSerialization:
    def make(self):
        rec = ObsRecorder("nova", workload="ycsb-a")
        rec.ingest([100.0, 250000.0, 70.5], [1.0, 2.0, 90000.0])
        rec.ingest_ops({"get": 2, "scan": 1})
        rec.error("get", 5.0)
        rec.count("breaker_open", 2)
        rec.event(42.0, "chaos.crash_armed", {"at_op": 7})
        return rec

    def test_roundtrip(self):
        rec = self.make()
        clone = ObsRecorder.from_dict(rec.to_dict())
        assert clone.to_dict() == rec.to_dict()
        assert clone.summary() == rec.summary()

    def test_blob_validates(self):
        assert validate_obs(self.make().to_dict()) == []

    def test_validator_flags_problems(self):
        blob = self.make().to_dict()
        blob["windows"]["0"] = [1, 2]          # truncated row
        del blob["hist"]
        problems = validate_obs(blob)
        assert problems
        assert any("hist" in p for p in problems)

    def test_events_serialize_sorted(self):
        rec = ObsRecorder("lsm")
        rec.event(9.0, "z")
        rec.event(1.0, "b")
        rec.event(1.0, "a")
        names = [ev["name"] for ev in rec.to_dict()["events"]]
        assert names == ["a", "b", "z"]
