"""repro.harness — the experiment-harness subsystem.

The paper's LATTester methodology is a sweep machine (its first phase
alone collects >10,000 points, §3.1); this package is the substrate
that makes regenerating such matrices cheap:

* :mod:`repro.harness.executor` — fans independent points out across
  worker processes with deterministic result ordering and graceful
  degradation to serial, and runs a point under a tracer when it is
  given a trace path (point functions never see one);
* :mod:`repro.harness.cache` — a content-addressed on-disk result
  cache keyed by experiment, grid point, simulator config and package
  version;
* :mod:`repro.harness.manifest` — the run-manifest artifact store
  (grid, wall time, per-point provenance, trace paths), including the
  one normalized format the matrices write;
* :mod:`repro.harness.compare` — the regression comparator that diffs
  two manifests and flags metric drift;
* :mod:`repro.harness.runner` — ``run_sweep`` / ``run_matrix`` /
  ``run_experiment_cached`` tying the layers together.

A matrix built on the harness (chaos serving, pmcheck, faults) keeps
only its grid, its cell function and how it names a cell in a
violation; caching, tracing, fan-out and the manifest live here.
"""

from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache, cache_dir
from repro.harness.compare import (
    Comparison, Drift, MetricChange, compare_manifests, numeric_leaves,
)
from repro.harness.executor import (
    PointOutcome, effective_jobs, run_points,
)
from repro.harness.keys import (
    canonical_json, config_fingerprint, point_key, to_jsonable,
)
from repro.harness.manifest import RunManifest
from repro.harness.runner import (
    SweepRun, expand_grid, run_cached_points, run_experiment_cached,
    run_matrix, run_sweep,
)

__all__ = [
    "DEFAULT_CACHE_DIR", "ResultCache", "cache_dir",
    "Comparison", "Drift", "MetricChange", "compare_manifests",
    "numeric_leaves",
    "PointOutcome", "effective_jobs", "run_points",
    "canonical_json", "config_fingerprint", "point_key", "to_jsonable",
    "RunManifest",
    "SweepRun", "expand_grid", "run_cached_points",
    "run_experiment_cached", "run_matrix", "run_sweep",
]
