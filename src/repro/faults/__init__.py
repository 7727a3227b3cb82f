"""Deterministic fault injection and graceful-degradation testing.

* :mod:`repro.faults.model` — the injector: power failure at a chosen
  persist boundary, torn XPLine writes at power loss, poisoned lines,
  transient read errors, thermal throttling; and the exhaustive
  crash-point test (:func:`exhaustive_crash_test`) built on it.
* :mod:`repro.faults.report` — :class:`RecoveryReport`, the honest
  accounting every recovery path fills in.
* :mod:`repro.faults.chaos` — the (crash x tear x poison) matrix over
  whole-stack workloads.
"""

from repro.faults.chaos import WORKLOADS, build_matrix, run_chaos
from repro.faults.model import (
    FaultController, MediaError, SimulatedPowerFailure, count_persists,
    exhaustive_crash_test, tolerant_read,
)
from repro.faults.report import RecoveryReport

__all__ = [
    "FaultController",
    "MediaError",
    "RecoveryReport",
    "SimulatedPowerFailure",
    "WORKLOADS",
    "build_matrix",
    "count_persists",
    "exhaustive_crash_test",
    "run_chaos",
    "tolerant_read",
]
