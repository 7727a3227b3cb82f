"""The paper's contribution, distilled: guidelines and experiments.

* :mod:`repro.core.guidelines` — the four best practices as a store-
  instruction rule and an access-pattern auditor;
* :mod:`repro.core.experiments` — the per-figure experiment registry;
* :mod:`repro.core.figures` — composite figure regenerators.
"""

from repro.core.experiments import Experiment, all_experiments, get
from repro.core.guidelines import (
    MAX_WRITERS_PER_DIMM, NTSTORE_CROSSOVER_BYTES, XPBUFFER_BYTES,
    AccessPlan, Violation, audit_access_pattern, recommend_store_instruction,
)

__all__ = [
    "AccessPlan", "Experiment", "MAX_WRITERS_PER_DIMM",
    "NTSTORE_CROSSOVER_BYTES", "Violation", "XPBUFFER_BYTES",
    "all_experiments", "audit_access_pattern", "get",
    "recommend_store_instruction",
]
