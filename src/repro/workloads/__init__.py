"""YCSB-style traffic generation and serving over the substrates.

The serving stack, bottom to top:

* :mod:`repro.workloads.generators` — seeded key/op streams (the YCSB
  A-F mixes plus the paper-faithful pointer-chase and log-append);
* :mod:`repro.workloads.service` — one ``Service`` protocol wrapped
  around the LSM store, PMemKV cmap, NOVA-fs and PMDK tx substrates;
* :mod:`repro.workloads.loadloop` — closed-loop multi-client and
  open-loop Poisson drivers with per-request latency reports;
* :mod:`repro.workloads.saturation` — latency-vs-load curves and the
  SLO-driven search for each substrate's saturation point.

``python -m repro serve <workload> <substrate>`` is the front door.
"""

from repro.workloads.generators import (
    OPS, Request, RequestStream, WORKLOADS, WorkloadSpec, get_workload,
    make_key, make_value,
)
from repro.workloads.loadloop import closed_loop, execute_request, open_loop
from repro.workloads.saturation import SERVE_EXPERIMENT, serve
from repro.workloads.service import SUBSTRATES, Service, make_service

__all__ = [
    "OPS", "Request", "RequestStream", "WORKLOADS", "WorkloadSpec",
    "get_workload", "make_key", "make_value",
    "closed_loop", "execute_request", "open_loop",
    "SERVE_EXPERIMENT", "serve",
    "SUBSTRATES", "Service", "make_service",
]
