"""Always-on serving observability.

The pieces, bottom to top:

* :mod:`repro.obs.hist` — deterministic log-linear latency histograms
  with fixed bucket boundaries and exact (associative, commutative)
  merge;
* :mod:`repro.obs.recorder` — the per-run :class:`ObsRecorder`:
  request-granularity latency/counter recording plus virtual-time
  windowed SLO burn tracking, cheap enough to stay on always;
* :mod:`repro.obs.artifacts` — content-addressed JSON blobs written
  next to run manifests and referenced from them;
* :mod:`repro.obs.schema` — structural validation of those blobs;
* :mod:`repro.obs.report` — the ``python -m repro report`` builder:
  terminal tables, deterministic JSON, and a self-contained HTML page
  with latency distributions, latency-vs-load curves and
  event-correlated chaos timelines.
"""

from repro.obs.artifacts import (
    externalize_obs, load_obs_blob, obs_address, obs_ref,
)
from repro.obs.hist import (
    SUB_BUCKETS, LatencyHistogram, bucket_bounds, bucket_index,
    bucket_midpoint,
)
from repro.obs.recorder import (
    DEFAULT_BUDGET, DEFAULT_SLO_US, DEFAULT_WINDOW_US, ObsRecorder,
)
from repro.obs.report import (
    ObsReportError, build_report, render_html, render_tables, report_json,
)
from repro.obs.schema import validate_obs

__all__ = [
    "SUB_BUCKETS", "LatencyHistogram", "bucket_bounds", "bucket_index",
    "bucket_midpoint",
    "DEFAULT_BUDGET", "DEFAULT_SLO_US", "DEFAULT_WINDOW_US",
    "ObsRecorder",
    "externalize_obs", "load_obs_blob", "obs_address", "obs_ref",
    "ObsReportError", "build_report", "render_html", "render_tables",
    "report_json",
    "validate_obs",
]
