"""Chaos serving: faults injected *while* traffic is being served.

``repro.faults`` proves each recovery path in isolation and
``repro.workloads`` proves the substrates under realistic traffic; this
package runs both at once, which is the only configuration that can
answer the question operators actually ask: *does an acknowledged write
survive a crash that lands mid-request, and does the service degrade
instead of collapsing while the hardware misbehaves?*

The moving parts, bottom to top:

* :mod:`repro.chaos_serve.history` — the acknowledged-operation record
  every client keeps (seeded, deterministic), the ground truth the
  durability oracle audits against;
* :mod:`repro.chaos_serve.oracle` — the durable-linearizability check
  run after every recovery: acknowledged writes must be readable (or
  superseded by later acknowledged writes), in-flight writes must read
  as old or new, never garbage, and data loss must be *reported* by the
  substrate's :class:`~repro.faults.report.RecoveryReport`;
* :mod:`repro.chaos_serve.driver` — the chaos serving loop itself:
  closed- and open-loop traffic with power failures, poisoned lines,
  transient read errors and thermal windows injected mid-serve, a
  ``Service.recover()`` + oracle audit after every crash, and the
  degradation layer around every request: per-request deadlines,
  seeded exponential-backoff retries, a per-substrate circuit breaker
  on the virtual clock, and admission control that sheds load instead
  of queueing without bound;
* :mod:`repro.chaos_serve.matrix` — the scenario grid and how a cell
  is named in a violation; :func:`repro.harness.run_matrix` caches,
  traces and fans the cells out (manifests byte-identical per seed
  across job counts).

``python -m repro serve <workload> <substrate> --chaos`` is the front
door; ``--naive`` turns the protections off (no retries, no breaker,
no shedding, CRC-less WAL replay, non-atomic in-place updates) and the
matrix is expected to *catch* the resulting durability violations.
"""

from repro.chaos_serve.driver import (
    BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN, SCENARIOS,
    CircuitBreaker, chaos_serve_cell,
)
from repro.chaos_serve.history import History, Mutation
from repro.chaos_serve.matrix import (
    CHAOS_EXPERIMENT, build_chaos_grid, run_chaos_serve,
)
from repro.chaos_serve.oracle import check_durability, format_violation

__all__ = [
    "BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN",
    "CircuitBreaker",
    "SCENARIOS", "chaos_serve_cell",
    "History", "Mutation",
    "CHAOS_EXPERIMENT", "build_chaos_grid", "run_chaos_serve",
    "check_durability", "format_violation",
]
