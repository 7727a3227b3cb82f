"""Deterministic fault injection and graceful-degradation testing.

* :mod:`repro.faults.model` — the injector: torn XPLine writes at power
  loss, poisoned lines, transient read errors, thermal throttling.
* :mod:`repro.faults.report` — :class:`RecoveryReport`, the honest
  accounting every recovery path fills in.
* :mod:`repro.faults.chaos` — the (crash x tear x poison) matrix over
  whole-stack workloads.
"""

from repro.faults.chaos import WORKLOADS, build_matrix, run_chaos
from repro.faults.model import (
    FaultController, MediaError, overlaps_lost, tolerant_read,
)
from repro.faults.report import RecoveryReport

__all__ = [
    "FaultController",
    "MediaError",
    "RecoveryReport",
    "WORKLOADS",
    "build_matrix",
    "overlaps_lost",
    "run_chaos",
    "tolerant_read",
]
