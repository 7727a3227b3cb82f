"""Unit tests for the virtual-time engine."""

import pytest

from repro.sim.engine import (
    DirectionalLink, Resource, ThreadCtx, run_interleaved, run_workloads,
)


def make_thread(load_window=4, store_window=4):
    return ThreadCtx(None, tid=0, socket=0, load_window=load_window,
                     store_window=store_window)


class TestResource:
    def test_single_server_serializes(self):
        r = Resource("r", 1)
        s1, e1 = r.acquire(0.0, 10.0)
        s2, e2 = r.acquire(0.0, 10.0)
        assert (s1, e1) == (0.0, 10.0)
        assert (s2, e2) == (10.0, 20.0)

    def test_parallel_servers(self):
        r = Resource("r", 2)
        _, e1 = r.acquire(0.0, 10.0)
        _, e2 = r.acquire(0.0, 10.0)
        assert e1 == 10.0 and e2 == 10.0
        s3, _ = r.acquire(0.0, 10.0)
        assert s3 == 10.0

    def test_acquire_after_idle_starts_at_now(self):
        r = Resource("r", 1)
        r.acquire(0.0, 5.0)
        s, e = r.acquire(100.0, 5.0)
        assert s == 100.0 and e == 105.0

    def test_busy_accounting(self):
        r = Resource("r", 3)
        for _ in range(5):
            r.acquire(0.0, 7.0)
        assert r.busy_ns == 35.0

    def test_requires_positive_servers(self):
        with pytest.raises(ValueError):
            Resource("r", 0)


class TestDirectionalLink:
    def test_same_direction_no_turnaround(self):
        link = DirectionalLink("upi", 100.0, idle_reset_ns=1e12)
        link.transfer(0.0, 5.0, "rd", source=1)
        link.transfer(0.0, 5.0, "rd", source=2)
        assert link.turnarounds == 0

    def test_cross_source_direction_switch_pays(self):
        link = DirectionalLink("upi", 100.0, idle_reset_ns=1e12)
        link.transfer(0.0, 5.0, "rd", source=1)
        _, end = link.transfer(0.0, 5.0, "wr", source=2)
        assert link.turnarounds == 1
        assert end == 5.0 + 100.0 + 5.0

    def test_same_source_switch_is_free(self):
        link = DirectionalLink("upi", 100.0, idle_reset_ns=1e12)
        link.transfer(0.0, 5.0, "rd", source=1)
        link.transfer(0.0, 5.0, "wr", source=1)
        assert link.turnarounds == 0

    def test_idle_gap_resets_direction(self):
        link = DirectionalLink("upi", 100.0, idle_reset_ns=30.0)
        link.transfer(0.0, 5.0, "rd", source=1)
        link.transfer(1000.0, 5.0, "wr", source=2)
        assert link.turnarounds == 0

    def test_dense_mixed_traffic_collapses(self):
        link = DirectionalLink("upi", 100.0, idle_reset_ns=30.0)
        end = 0.0
        for i in range(10):
            _, end = link.transfer(end, 5.0, "rd" if i % 2 else "wr",
                                   source=i % 2)
        assert link.turnarounds == 9


class TestThreadCtx:
    def test_load_window_blocks(self):
        t = make_thread(load_window=2)
        t.track_load(100.0)
        t.track_load(200.0)
        t.admit_load()              # window full: wait for oldest
        assert t.now == 100.0
        t.track_load(300.0)
        t.admit_load()              # full again: wait for next oldest
        assert t.now == 200.0
        t.admit_load()              # one slot free: no wait
        assert t.now == 200.0

    def test_store_window_lead(self):
        t = make_thread(store_window=1)
        t.track_store(500.0)
        t.admit_store(lead_ns=50.0)
        # The slot is needed only at insert time: issue at 450.
        assert t.now == 450.0

    def test_admit_does_not_move_clock_backwards(self):
        t = make_thread(store_window=1)
        t.now = 1000.0
        t.track_store(500.0)
        t.admit_store()
        assert t.now == 1000.0

    def test_sfence_waits_for_pending_persists(self):
        t = make_thread()
        t.pending_persists.extend([300.0, 120.0])
        t.sfence()
        assert t.now == 300.0 + t.fence_ns
        assert not t.pending_persists

    def test_sfence_ignores_loads(self):
        t = make_thread()
        t.track_load(900.0)
        t.pending_persists.append(50.0)
        t.sfence()
        assert t.now == 50.0 + t.fence_ns

    def test_empty_sfence_is_free(self):
        # With nothing pending an sfence orders nothing and must be a
        # true no-op in latency accounting (the pmcheck redundant-fence
        # detector depends on this being exact).
        t = make_thread()
        t.now = 123.0
        assert t.sfence() == 123.0
        assert t.now == 123.0

    def test_empty_mfence_still_serializes(self):
        # mfence serializes the pipeline even with nothing pending.
        t = make_thread()
        t.mfence()
        assert t.now == t.fence_ns

    def test_mfence_drains_everything(self):
        t = make_thread()
        t.track_load(700.0)
        t.track_store(800.0)
        t.pending_persists.append(500.0)
        t.mfence()
        assert t.now == 800.0 + t.fence_ns

    def test_latency_recording_opt_in(self):
        t = make_thread()
        t.record_latency(5.0)
        assert t.latencies is None
        t.collect_latencies()
        t.record_latency(5.0)
        assert t.latencies == [5.0]

    def test_sleep(self):
        t = make_thread()
        t.sleep(42.0)
        assert t.now == 42.0


class TestScheduler:
    def test_runs_to_completion(self):
        t1, t2 = make_thread(), make_thread()

        def work(t, step):
            for _ in range(3):
                t.sleep(step)
                yield

        final = run_workloads([(t1, work(t1, 10)), (t2, work(t2, 7))])
        assert t1.now == 30 and t2.now == 21
        assert final == 30

    def test_min_clock_interleaving(self):
        order = []
        t1, t2 = make_thread(), make_thread()

        def work(t, step, label):
            for _ in range(3):
                order.append(label)
                t.sleep(step)
                yield

        run_workloads([(t1, work(t1, 100, "slow")), (t2, work(t2, 1, "fast"))])
        # The fast thread should run all its steps before slow's second.
        assert order[:4] == ["slow", "fast", "fast", "fast"]

    def test_empty_scheduler(self):
        assert run_workloads([]) == 0.0

    def test_deterministic(self):
        def build():
            ts = [make_thread() for _ in range(4)]

            def work(t, seed):
                x = seed
                for _ in range(20):
                    x = (x * 1103515245 + 12345) % 1000
                    t.sleep(float(x))
                    yield

            return run_workloads([(t, work(t, i)) for i, t in enumerate(ts)])

        assert build() == build()


def stepper(thread, label, log, costs):
    """A ``run_interleaved`` step charging ``costs`` in turn; a ``None``
    cost stalls 5 ns and returns ``False`` (the unit did not finish)."""
    costs = iter(costs)

    def step():
        cost = next(costs)
        log.append(label)
        if cost is None:
            thread.sleep(5.0)
            return False
        thread.sleep(cost)

    return step


class TestRunInterleaved:
    """The closed loop's scheduler and its re-step contract."""

    def test_false_step_is_restepped_and_not_charged(self):
        log = []
        t1, t2 = make_thread(), make_thread()
        final = run_interleaved([
            (t1, 2, stepper(t1, "a", log, [None, 10.0, 10.0])),
            (t2, 2, stepper(t2, "b", log, [100.0, 100.0]))])
        # The failed first step costs no budget: "a" runs three times.
        assert log == ["a", "b", "a", "a", "b"]
        assert (t1.now, t2.now, final) == (25.0, 200.0, 200.0)

    def test_ties_after_a_restep_go_to_the_lowest_spawn_index(self):
        log = []
        t1, t2 = make_thread(), make_thread()
        t1.now = 5.0
        run_interleaved([
            (t1, 1, stepper(t1, "a", log, [10.0])),
            (t2, 1, stepper(t2, "b", log, [None, 10.0]))])
        # "b" fails onto t1's clock; the tie goes to spawn index 0.
        assert log == ["b", "a", "b"]
        assert (t1.now, t2.now) == (15.0, 15.0)

    def test_single_live_tail_honours_false(self):
        log = []
        t1 = make_thread()
        final = run_interleaved(
            [(t1, 2, stepper(t1, "a", log, [None, None, 10.0, 10.0]))])
        assert log == ["a"] * 4
        assert final == 30.0

    def test_zero_budget_never_steps(self):
        log = []
        t1, t2 = make_thread(), make_thread()
        t2.now = 7.0
        final = run_interleaved([
            (t1, 1, stepper(t1, "a", log, [1.0])),
            (t2, 0, stepper(t2, "b", log, []))])
        assert log == ["a"]
        assert final == 7.0
        assert run_interleaved([(t1, 0, stepper(t1, "a", log, []))]) == 1.0


class TestBackfillResource:
    def test_books_at_tail_when_no_gaps(self):
        from repro.sim.engine import BackfillResource
        r = BackfillResource("link")
        assert r.acquire(0.0, 5.0) == (0.0, 5.0)
        assert r.acquire(0.0, 5.0) == (5.0, 10.0)

    def test_gap_created_and_backfilled(self):
        from repro.sim.engine import BackfillResource
        r = BackfillResource("link")
        r.acquire(0.0, 5.0)              # [0,5)
        r.acquire(100.0, 5.0)            # [100,105), gap [5,100)
        start, end = r.acquire(10.0, 20.0)
        assert (start, end) == (10.0, 30.0)

    def test_backfill_respects_now(self):
        from repro.sim.engine import BackfillResource
        r = BackfillResource("link")
        r.acquire(0.0, 1.0)
        r.acquire(50.0, 1.0)             # gap [1,50)
        start, _ = r.acquire(40.0, 5.0)
        assert start == 40.0

    def test_oversized_request_skips_small_gap(self):
        from repro.sim.engine import BackfillResource
        r = BackfillResource("link")
        r.acquire(0.0, 1.0)
        r.acquire(10.0, 1.0)             # gap [1,10): 9 ns
        start, end = r.acquire(0.0, 20.0)
        assert start >= 11.0             # had to go to the tail

    def test_busy_accounting(self):
        from repro.sim.engine import BackfillResource
        r = BackfillResource("link")
        r.acquire(0.0, 3.0)
        r.acquire(100.0, 4.0)
        assert r.busy_ns == 7.0

    def test_gap_cap_drops_oldest(self):
        from repro.sim.engine import BackfillResource
        r = BackfillResource("link", max_gaps=2)
        t = 0.0
        for i in range(5):
            r.acquire(t, 1.0)
            t += 10.0                     # creates a gap each round
        assert len(r._gaps) <= 2

    def test_split_booking_keeps_gap_cap(self):
        from repro.sim.engine import BackfillResource
        r = BackfillResource("link", max_gaps=2)
        r.acquire(0.0, 1.0)
        r.acquire(100.0, 1.0)            # gap [1,100)
        r.acquire(200.0, 1.0)            # gap [101,200)
        assert r._gaps == [(1.0, 100.0), (101.0, 200.0)]
        # Lands inside the second gap and splits it in two: the list
        # would hold three gaps, so the oldest goes.
        assert r.acquire(150.0, 10.0) == (150.0, 160.0)
        assert r._gaps == [(101.0, 150.0), (160.0, 200.0)]
        # The dropped gap is no longer backfillable.
        assert r.acquire(10.0, 5.0) == (101.0, 106.0)
        assert len(r._gaps) <= 2

    def test_turnaround_clears_gaps(self):
        from repro.sim.engine import DirectionalLink
        link = DirectionalLink("upi", 100.0, idle_reset_ns=1e12)
        link.transfer(0.0, 1.0, "rd", source=1)
        link.transfer(500.0, 1.0, "rd", source=1)   # gap [1,500)
        link.transfer(600.0, 1.0, "wr", source=2)   # turnaround
        assert link.turnarounds == 1
        start, _ = link.transfer(2.0, 1.0, "rd", source=1)
        assert start > 500.0              # gap no longer backfillable
