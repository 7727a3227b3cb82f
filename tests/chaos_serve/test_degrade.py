"""The degradation layer's parts: the breaker and the retry backoff."""

import random

import pytest

from repro.chaos_serve import driver
from repro.chaos_serve.driver import (
    BACKOFF_BASE_NS, BACKOFF_JITTER, BACKOFF_MULT, BREAKER_CLOSED,
    BREAKER_COOLDOWN_NS, BREAKER_HALF_OPEN, BREAKER_OPEN, BREAKER_THRESHOLD,
    BROKEN, FAILED, CircuitBreaker, _Env, backoff_ns,
)
from repro.faults.model import MediaError, _mix
from repro.telemetry import recording
from repro.workloads.generators import Request
from repro.workloads.loadloop import OK


def make_breaker(threshold=3, cooldown_ns=1000.0):
    return CircuitBreaker(threshold=threshold, cooldown_ns=cooldown_ns)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = make_breaker(threshold=3)
        for _ in range(2):
            breaker.record(False, 10.0)
        assert breaker.state == BREAKER_CLOSED
        breaker.record(False, 20.0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(21.0)

    def test_successes_reset_the_count(self):
        breaker = make_breaker(threshold=3)
        for _ in range(10):
            breaker.record(False, 10.0)
            breaker.record(False, 11.0)
            breaker.record(True, 12.0)
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker = make_breaker(threshold=1, cooldown_ns=1000.0)
        breaker.record(False, 0.0)
        assert not breaker.allow(500.0)         # still cooling down
        assert breaker.allow(1000.0)            # the probe goes through
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record(True, 1010.0)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow(1011.0)

    def test_half_open_probe_failure_reopens(self):
        breaker = make_breaker(threshold=1, cooldown_ns=1000.0)
        breaker.record(False, 0.0)
        assert breaker.allow(1000.0)
        breaker.record(False, 1010.0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(1500.0)        # cooldown restarted
        assert breaker.allow(2010.0)

    def test_transitions_are_recorded_on_the_virtual_clock(self):
        breaker = make_breaker(threshold=1, cooldown_ns=1000.0)
        breaker.record(False, 5.0)
        breaker.allow(1005.0)
        breaker.record(True, 1010.0)
        assert [state for _, state in breaker.transitions] == \
            [BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSED]

    def test_threshold_zero_disables_the_breaker(self):
        breaker = make_breaker(threshold=0)
        for _ in range(100):
            breaker.record(False, 1.0)
        assert breaker.allow(2.0)
        assert breaker.transitions == []


def retry_rng(seed, client):
    """The stream a chaos cell's client draws its retry jitter from."""
    return random.Random(_mix(seed, "retry", client))



class TestBreakerWiring:
    """A cell's breaker transitions reach its obs timeline and, when a
    tracer is attached, its trace."""

    PAYLOAD = {"workload": "ycsb-a", "substrate": "lsm",
               "scenario": "poison", "mode": "closed", "seed": 0,
               "records": 32, "ops": 64, "clients": 1}

    @pytest.fixture
    def failing(self, monkeypatch):
        """While ``failing["on"]``, every request hits a hard error."""
        state = {"on": True}

        def execute(*args):
            if state["on"]:
                raise MediaError("uncorrectable", transient=False)

        monkeypatch.setattr(driver, "execute_request", execute)
        return state

    def drive(self, env, failing):
        t = env.machine.thread()
        req = Request("read", 0, 0, 0)
        disps = [env.serve(t, 0, req, t.now)
                 for _ in range(BREAKER_THRESHOLD + 1)]
        t.sleep(BREAKER_COOLDOWN_NS)
        failing["on"] = False
        disps.append(env.serve(t, 0, req, t.now))
        return disps

    def test_open_half_open_closed_reach_the_obs_timeline(self, failing):
        env = _Env(self.PAYLOAD)
        disps = self.drive(env, failing)
        assert disps == [FAILED] * BREAKER_THRESHOLD + [BROKEN, OK]
        assert [e["name"] for e in env.obs.events
                if e["name"].startswith("breaker.")] == [
            "breaker.open", "breaker.half-open", "breaker.closed"]

    def test_a_tracer_sees_each_transition(self, failing):
        with recording() as tracer:
            env = _Env(self.PAYLOAD)
            self.drive(env, failing)
        assert [e.name for e in tracer.events()
                if e.name.startswith("degrade.breaker_")] == [
            "degrade.breaker_open", "degrade.breaker_half-open",
            "degrade.breaker_closed"]


class TestRetryPolicy:
    def test_same_seed_same_backoffs(self):
        a, b = retry_rng(42, 0), retry_rng(42, 0)
        assert [backoff_ns(a, n) for n in range(1, 6)] == \
            [backoff_ns(b, n) for n in range(1, 6)]

    def test_clients_draw_independent_streams(self):
        zero = retry_rng(42, 0)
        seq_0 = [backoff_ns(zero, n) for n in range(1, 6)]
        one = retry_rng(42, 1)
        assert [backoff_ns(one, n) for n in range(1, 6)] != seq_0
        # ... and one client's draws don't shift another's.
        rngs = [retry_rng(42, 0), retry_rng(42, 1)]
        interleaved = []
        for n in range(1, 6):
            backoff_ns(rngs[1], n)
            interleaved.append(backoff_ns(rngs[0], n))
        assert interleaved == seq_0

    def test_never_touches_global_random(self):
        random.seed(1234)
        expected = random.random()
        random.seed(1234)
        rng = retry_rng(7, 0)
        for n in range(1, 5):
            backoff_ns(rng, n)
        assert random.random() == expected

    def test_backoff_grows_within_jitter_bounds(self):
        rng = retry_rng(0, 0)
        for attempt in range(1, 5):
            base = BACKOFF_BASE_NS * BACKOFF_MULT ** (attempt - 1)
            got = backoff_ns(rng, attempt)
            assert base * (1 - BACKOFF_JITTER) <= got <= \
                base * (1 + BACKOFF_JITTER)
