"""repro.pmcheck — dynamic persistency-order checking.

A pmemcheck-style durability-order checker for the simulated PM stack:
it hooks the persist path (stores, ``clwb``/``clflushopt``, ``ntstore``,
evictions, ``sfence``/``mfence``, ``power_fail``) of one machine and
tracks every PM line through *dirty -> flushed -> fenced/durable*,
flagging missing, misordered and redundant persists with substrate
call-site attribution.  The crash matrix (:mod:`repro.chaos_serve`)
only catches ordering bugs that happen to corrupt bytes at a sampled
crash point; the checker catches them on every execution.

Zero overhead when off: the sim hooks are one ``is None`` test inside
the one body each memory instruction has, so a checked run executes
the same code as an unchecked one.

Entry points: :class:`PmCheck` / :func:`checking` to check any run;
:func:`run_pmcheck` for the cached (workload, substrate) matrix behind
``python -m repro pmcheck``; ``--pmcheck`` on ``python -m repro serve``
checks the saturation search and chaos matrix.
"""

from repro.pmcheck.matrix import (
    CHECK_WORKLOADS,
    PMCHECK_EXPERIMENT,
    PmCheckRun,
    build_pmcheck_grid,
    pmcheck_cell,
    run_pmcheck,
)
from repro.pmcheck.report import format_summary, format_violation
from repro.pmcheck.state import KINDS, PmCheck, checking

__all__ = [
    "CHECK_WORKLOADS",
    "KINDS",
    "PMCHECK_EXPERIMENT",
    "PmCheck",
    "PmCheckRun",
    "build_pmcheck_grid",
    "checking",
    "format_summary",
    "format_violation",
    "pmcheck_cell",
    "run_pmcheck",
]
