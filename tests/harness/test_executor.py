"""The parallel point executor: ordering, failures, degradation."""

import multiprocessing
import os
import signal
import time

import pytest

from repro._units import KIB
from repro.harness import ResultCache, effective_jobs, run_points, run_sweep
from repro.telemetry import load_and_validate


def square(payload):
    return payload["x"] * payload["x"]


def fail_on_three(payload):
    if payload["x"] == 3:
        raise ValueError("three is right out")
    return payload["x"]


def _in_worker():
    return multiprocessing.current_process().name != "MainProcess"


def hang_in_worker(payload):
    """Hangs only inside pool workers, so an (unexpected) serial
    fallback cannot wedge the test run itself."""
    if payload.get("hang") and _in_worker():
        time.sleep(60)
    return payload["x"]


def die_in_worker(payload):
    """SIGKILLs the worker process: the result never arrives."""
    if payload.get("die") and _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return payload["x"]


def hang_first_attempt(payload):
    """Hangs until a marker file exists; the first attempt drops the
    marker before hanging, so the *retry* succeeds."""
    if _in_worker():
        marker = payload["marker"]
        if not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(60)
    return "second-try"


def traced_work(payload):
    """Simulated work (so a trace has events); fails on ``fail``.
    Returns the payload's keys: a point never sees a trace path."""
    from repro.lattester.bandwidth import measure_bandwidth
    if payload.get("fail"):
        raise ValueError("asked to fail")
    result = measure_bandwidth(kind="optane-ni", op="ntstore", threads=1,
                               access=256, pattern="seq",
                               per_thread=4 * KIB)
    return {"keys": sorted(payload), "elapsed_ns": result.elapsed_ns}


PAYLOADS = [{"x": i} for i in range(8)]


class TestSerial:
    def test_results_in_payload_order(self):
        outcomes = run_points(square, PAYLOADS, jobs=1)
        assert [o.value for o in outcomes] == [i * i for i in range(8)]
        assert all(o.ok for o in outcomes)

    def test_point_failure_is_captured_not_raised(self):
        outcomes = run_points(fail_on_three, PAYLOADS, jobs=1)
        assert [o.ok for o in outcomes] == \
            [True, True, True, False, True, True, True, True]
        assert "three is right out" in outcomes[3].error
        assert outcomes[3].value is None
        assert [o.value for o in outcomes if o.ok] == \
            [0, 1, 2, 4, 5, 6, 7]

    def test_progress_sees_every_point(self):
        seen = []
        run_points(square, PAYLOADS, jobs=1, progress=seen.append)
        assert len(seen) == 8


class TestParallel:
    def test_parallel_matches_serial_order(self):
        serial = run_points(square, PAYLOADS, jobs=1)
        parallel = run_points(square, PAYLOADS, jobs=2)
        assert [o.value for o in serial] == [o.value for o in parallel]

    def test_parallel_captures_failures(self):
        outcomes = run_points(fail_on_three, PAYLOADS, jobs=2)
        assert not outcomes[3].ok
        assert "three is right out" in outcomes[3].error
        assert sum(o.ok for o in outcomes) == 7

    def test_unpicklable_worker_degrades_to_serial(self):
        # A lambda cannot be pickled to a worker process; the run must
        # degrade to in-process serial execution, not crash.
        outcomes = run_points(lambda p: p["x"] + 1, PAYLOADS, jobs=2)
        assert [o.value for o in outcomes] == list(range(1, 9))


class TestTimeouts:
    def test_hung_job_times_out_others_complete(self):
        payloads = [{"x": 0, "hang": True}] + \
            [{"x": i} for i in range(1, 5)]
        outcomes = run_points(hang_in_worker, payloads, jobs=2,
                              timeout_s=0.5, retries=0)
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error
        assert [o.value for o in outcomes[1:]] == [1, 2, 3, 4]
        assert all(o.ok for o in outcomes[1:])

    def test_killed_worker_does_not_wedge_the_sweep(self):
        payloads = [{"x": 0, "die": True}] + \
            [{"x": i} for i in range(1, 5)]
        outcomes = run_points(die_in_worker, payloads, jobs=2,
                              timeout_s=0.5, retries=1)
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error
        assert [o.value for o in outcomes[1:]] == [1, 2, 3, 4]

    def test_retry_recovers_a_transiently_hung_job(self, tmp_path):
        payloads = [{"x": 0, "marker": str(tmp_path / "marker")}]
        outcomes = run_points(hang_first_attempt, payloads, jobs=2,
                              timeout_s=1.0, retries=1)
        assert outcomes[0].ok
        assert outcomes[0].value == "second-try"

    def test_timeout_path_preserves_payload_order(self):
        payloads = [{"x": i} for i in range(6)]
        outcomes = run_points(square, payloads, jobs=3, timeout_s=30.0)
        assert [o.value for o in outcomes] == \
            [i * i for i in range(6)]

    def test_timeout_path_captures_ordinary_failures(self):
        outcomes = run_points(fail_on_three, PAYLOADS, jobs=2,
                              timeout_s=30.0)
        assert not outcomes[3].ok
        assert "three is right out" in outcomes[3].error
        assert sum(o.ok for o in outcomes) == 7


class TestTracing:
    """The executor is the one place a point gets traced."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_valid_trace_per_executed_job(self, tmp_path, jobs):
        traces = [str(tmp_path / ("job-%d.trace.json" % i))
                  for i in range(3)]
        outcomes = run_points(traced_work, [{"x": i} for i in range(3)],
                              jobs=jobs, traces=traces)
        assert sorted(os.listdir(tmp_path)) == \
            sorted(os.path.basename(t) for t in traces)
        for outcome, trace in zip(outcomes, traces):
            assert outcome.ok
            assert outcome.trace == trace
            assert outcome.value["keys"] == ["x"]
            assert load_and_validate(trace) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_job_writes_no_trace(self, tmp_path, jobs):
        trace_dir = str(tmp_path / "traces")
        run = run_sweep({"x": (0, 1), "fail": (False, True)},
                        point_fn=traced_work, experiment="test.traced",
                        jobs=jobs, cache=ResultCache(enabled=False),
                        trace_dir=trace_dir)
        points = run.manifest.to_dict()["points"]
        failed = [p for p in points if p["error"]]
        passed = [p for p in points if not p["error"]]
        assert len(failed) == len(passed) == 2
        assert all("trace" not in p for p in failed)
        assert sorted(os.path.join(trace_dir, name)
                      for name in os.listdir(trace_dir)) == \
            sorted(p["trace"] for p in passed)
        for point in passed:
            assert load_and_validate(point["trace"]) == []
            assert point["record"]["keys"] == ["fail", "x"]

    def test_untraced_jobs_carry_no_trace(self):
        outcomes = run_points(square, PAYLOADS[:2], jobs=1)
        assert [o.trace for o in outcomes] == [None, None]


class TestEffectiveJobs:
    def test_explicit_wins(self):
        assert effective_jobs(4, points=100) == 4

    def test_capped_by_point_count(self):
        assert effective_jobs(16, points=3) == 3

    def test_never_below_one(self):
        assert effective_jobs(0, points=10) == 1
        assert effective_jobs(None, points=0) == 1

    def test_default_is_cpu_count(self):
        import os
        assert effective_jobs(None, points=10**6) == \
            (os.cpu_count() or 1)
