"""LATTester: the microbenchmark toolkit of Section 3.

Re-implements the paper's kernel-mode measurement suite against the
simulated platform:

* :mod:`repro.lattester.latency` — idle load/store latency (Fig. 2);
* :mod:`repro.lattester.tail` — hotspot tail latency (Fig. 3);
* :mod:`repro.lattester.bandwidth` — bandwidth vs threads / access
  size / instruction / fence interval (Figs. 4, 5, 13, 14);
* :mod:`repro.lattester.load` — latency under load (Fig. 6);
* :mod:`repro.lattester.ewr` — Effective Write Ratio studies (Fig. 9);
* :mod:`repro.lattester.xpbuffer_probe` — buffer capacity (Fig. 10);
* :mod:`repro.lattester.contention` — iMC contention (Fig. 16);
* :mod:`repro.lattester.sweep` — the systematic parameter sweep.
"""

from repro.lattester.access import (
    address_stream, make_kernel, ntstore_kernel, read_kernel,
    staggered_base, store_clwb_kernel,
)
from repro.lattester.bandwidth import (
    BandwidthResult, figure4, figure5, measure_bandwidth,
)
from repro.lattester.contention import (
    ContentionPoint, contention_experiment, figure16,
)
from repro.lattester.ewr import (
    EWRPoint, correlation, ewr_experiment, figure9_sweep,
)
from repro.lattester.latency import (
    LatencyResult, figure2, read_latency, write_latency,
)
from repro.lattester.load import (
    LoadPoint, latency_bandwidth_curve, loaded_latency,
)
from repro.lattester.stats import percentile
from repro.lattester.sweep import sweep_grid
from repro.lattester.tail import TailResult, figure3, hotspot_tail
from repro.lattester.xpbuffer_probe import (
    ProbePoint, figure10, inferred_buffer_lines, probe_region,
)

__all__ = [
    "BandwidthResult", "ContentionPoint", "EWRPoint", "LatencyResult",
    "LoadPoint", "ProbePoint", "TailResult", "address_stream",
    "contention_experiment", "correlation", "ewr_experiment",
    "figure2", "figure3", "figure4", "figure5", "figure9_sweep",
    "figure10", "figure16", "hotspot_tail",
    "inferred_buffer_lines", "latency_bandwidth_curve", "loaded_latency",
    "make_kernel", "measure_bandwidth", "ntstore_kernel", "percentile",
    "probe_region", "read_kernel", "read_latency",
    "staggered_base", "store_clwb_kernel", "sweep_grid", "write_latency",
]
