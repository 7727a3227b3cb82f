"""The degradation layer: shed and retry instead of collapsing.

Four mechanisms, all on the virtual clock and all seeded — no global
``random``, no wall time, so a chaos serve is byte-identical per seed:

* **deadlines** — each request carries a virtual-ns budget; a request
  that cannot finish inside it counts as ``deadline`` rather than
  hanging the client;
* **retries** — transient media errors are retried with seeded
  exponential backoff, one :class:`random.Random` per client (mixed
  from the run seed with :func:`repro.faults.model._mix`);
* **circuit breaker** — consecutive hard failures trip the breaker
  per substrate; while open, requests fail fast (``breaker``); after a
  virtual-clock cooldown it half-opens and lets one probe through;
* **admission control** — the open-loop driver sheds arrivals beyond a
  bounded in-flight depth with a counted ``SHED`` result, keeping the
  p99 of *accepted* requests bounded through fault windows.

``--naive`` builds a :class:`DegradeConfig` with everything off: no
retries, no breaker, no shedding, no deadline — the configuration the
chaos matrix must catch misbehaving.
"""

from dataclasses import dataclass, field
from random import Random

from repro.faults.model import _mix

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Request dispositions beyond plain success (``loadloop.OK``).
SHED = "shed"
DEADLINE = "deadline"
BROKEN = "breaker"
FAILED = "failed"


@dataclass(frozen=True)
class DegradeConfig:
    """Tuning for the degradation layer (all times virtual ns)."""

    enabled: bool = True
    deadline_ns: float = 2_000_000.0       # 2 ms per request
    retry_attempts: int = 4                # total tries per substrate call
    backoff_base_ns: float = 1_000.0       # first-retry sleep
    backoff_mult: float = 4.0
    backoff_jitter: float = 0.5            # +/- fraction of the backoff
    breaker_threshold: int = 5             # consecutive hard failures
    breaker_cooldown_ns: float = 500_000.0
    max_inflight: int = 64                 # open-loop admission bound

    @classmethod
    def naive(cls):
        """Everything off: the unprotected serving path."""
        return cls(enabled=False, deadline_ns=float("inf"),
                   retry_attempts=1, breaker_threshold=0,
                   max_inflight=0)


@dataclass
class CircuitBreaker:
    """Per-substrate breaker on the virtual clock.

    Counts *consecutive* hard failures; at ``threshold`` it opens and
    every request fails fast until ``cooldown_ns`` of virtual time has
    passed, then it half-opens: the next request is the probe, and its
    outcome closes or re-opens the breaker.
    """

    threshold: int
    cooldown_ns: float
    state: str = BREAKER_CLOSED
    failures: int = 0
    opened_ns: float = 0.0
    transitions: list = field(default_factory=list)

    def _move(self, state, now_ns):
        self.state = state
        self.transitions.append((round(now_ns, 1), state))

    def allow(self, now_ns):
        """Whether a request may proceed at virtual time ``now_ns``."""
        if self.threshold <= 0:
            return True
        if self.state == BREAKER_OPEN:
            if now_ns - self.opened_ns >= self.cooldown_ns:
                self._move(BREAKER_HALF_OPEN, now_ns)
                return True
            return False
        return True

    def transition_counts(self):
        """Transition tally by target state (for obs counters)."""
        counts = {}
        for _ts, state in self.transitions:
            counts[state] = counts.get(state, 0) + 1
        return counts

    def record(self, ok, now_ns):
        """Feed one request outcome back into the breaker."""
        if self.threshold <= 0:
            return
        if ok:
            if self.state != BREAKER_CLOSED:
                self._move(BREAKER_CLOSED, now_ns)
            self.failures = 0
            return
        self.failures += 1
        if self.state == BREAKER_HALF_OPEN or \
                self.failures >= self.threshold:
            if self.state != BREAKER_OPEN:
                self._move(BREAKER_OPEN, now_ns)
            self.opened_ns = now_ns
            self.failures = 0


class RetryPolicy:
    """Seeded exponential backoff, one RNG per client.

    The jitter stream depends only on ``(seed, "retry", client)`` and
    the order of that client's own retries — never on other clients or
    the scheduler — so per-client request streams stay deterministic.
    """

    def __init__(self, config, seed):
        self.config = config
        self.seed = seed
        self._rngs = {}

    def _rng(self, client):
        rng = self._rngs.get(client)
        if rng is None:
            rng = Random(_mix(self.seed, "retry", client))
            self._rngs[client] = rng
        return rng

    def backoff_ns(self, client, attempt):
        """Virtual sleep before retry ``attempt`` (1-based)."""
        cfg = self.config
        base = cfg.backoff_base_ns * (cfg.backoff_mult ** (attempt - 1))
        jitter = (self._rng(client).random() * 2.0 - 1.0) * \
            cfg.backoff_jitter
        return base * (1.0 + jitter)

    def attempts(self):
        return max(1, self.config.retry_attempts)


@dataclass
class DegradeStats:
    """Counters the serving loop accumulates (JSON-able)."""

    retries: int = 0
    retry_successes: int = 0
    shed: int = 0
    deadline_misses: int = 0
    breaker_rejects: int = 0
    failures: int = 0

    def to_dict(self):
        return {
            "retries": self.retries,
            "retry_successes": self.retry_successes,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "breaker_rejects": self.breaker_rejects,
            "failures": self.failures,
        }
