"""The always-on serving recorder: histograms, counters, SLO burn.

One :class:`ObsRecorder` rides along with one serve point or chaos
cell.  It records at *request* granularity — never per simulated
event — so the cost per request is a couple of list appends in the
hot loop plus a bulk fold after the loop finishes (:meth:`ingest`).

Three kinds of state:

* a :class:`~repro.obs.hist.LatencyHistogram` of per-request latency
  (exactly mergeable across clients, workers and runs);
* per-op-type and named counters (ops, errors, retries, sheds,
  breaker transitions, recoveries — whatever the driver folds in);
* **virtual-time windows** for SLO burn tracking: completion times are
  bucketed into fixed windows, each accumulating
  ``[ops, slo_misses, errors, latency_sum_ns, latency_max_ns]``.  The
  burn rate of a window is its miss fraction over the error budget —
  the SRE error-budget methodology, on the virtual clock.

Everything is deterministic: virtual timestamps, seeded traffic, and
sorted serialization.
"""

from repro.obs.hist import LatencyHistogram, bucket_index

OBS_VERSION = 1

#: Default SLO and burn-window geometry (virtual microseconds).  The
#: 100 us SLO is the paper-style serving target; 10 us windows give a
#: quick run dozens of windows to track burn across.
DEFAULT_SLO_US = 100.0
DEFAULT_WINDOW_US = 10.0
#: Error budget: the fraction of requests allowed to miss the SLO.
DEFAULT_BUDGET = 0.01

_NS_PER_US = 1e3

#: Fractions reported by :meth:`ObsRecorder.summary`.
SUMMARY_FRACTIONS = (0.50, 0.90, 0.95, 0.99, 0.999)


class ObsRecorder:
    """Per-run observability state (see module docstring)."""

    def __init__(self, substrate, workload=None, slo_us=DEFAULT_SLO_US,
                 window_us=DEFAULT_WINDOW_US, budget=DEFAULT_BUDGET):
        self.substrate = substrate
        self.workload = workload
        self.slo_us = float(slo_us)
        self.window_us = float(window_us)
        self.budget = float(budget)
        self.hist = LatencyHistogram()
        self.ops = {}          # op -> {"ok": n, "errors": n}
        self.counters = {}     # name -> int
        self.windows = {}      # window index -> [ops, miss, err, sum, max]
        self.events = []       # {"ts": ns, "name": ..., "args": ...}

    # -- ingest (called once, after the hot loop) ---------------------

    def ingest(self, latencies_ns, end_ts_ns):
        """Bulk-fold parallel latency/completion-time lists.

        The hot loops only append to these lists; this does the
        histogram and window work once the loop is over, so recording
        costs two ``list.append`` calls per request while serving.

        A single fused pass keeps the fold cheap: the latency→bucket
        map is memoized (the simulator's latencies come from a small
        set of distinct timings, so the ``frexp`` math runs once per
        distinct value), and completions arrive in nearly
        non-decreasing timestamp order per client, so the current
        window's row is cached instead of re-fetched per request.
        """
        counts = self.hist.counts
        counts_get = counts.get
        slo_ns = self.slo_us * _NS_PER_US
        window_ns = self.window_us * _NS_PER_US
        windows = self.windows
        windows_get = windows.get
        memo = {}
        memo_get = memo.get
        cur_idx = None
        win = None
        for latency, ts in zip(latencies_ns, end_ts_ns):
            bidx = memo_get(latency)
            if bidx is None:
                bidx = memo[latency] = bucket_index(latency)
            counts[bidx] = counts_get(bidx, 0) + 1
            widx = int(ts // window_ns)
            if widx != cur_idx:
                cur_idx = widx
                win = windows_get(widx)
                if win is None:
                    win = windows[widx] = [0, 0, 0, 0.0, 0.0]
            win[0] += 1
            if latency > slo_ns:
                win[1] += 1
            win[3] += latency
            if latency > win[4]:
                win[4] = latency

    def ingest_ops(self, ops_by_type):
        """Fold a driver's per-op success counts."""
        for op, n in ops_by_type.items():
            entry = self.ops.get(op)
            if entry is None:
                entry = self.ops[op] = {"ok": 0, "errors": 0}
            entry["ok"] += n

    # -- inline recording (rare paths only) ---------------------------

    def error(self, op, now_ns):
        """One failed request (client-visible error) at ``now_ns``."""
        entry = self.ops.get(op)
        if entry is None:
            entry = self.ops[op] = {"ok": 0, "errors": 0}
        entry["errors"] += 1
        idx = int(now_ns // (self.window_us * _NS_PER_US))
        win = self.windows.get(idx)
        if win is None:
            win = self.windows[idx] = [0, 0, 0, 0.0, 0.0]
        win[2] += 1

    def event(self, ts_ns, name, args=None):
        """A timeline event (fault injected, breaker moved, recovery)."""
        entry = {"ts": round(ts_ns, 1), "name": name}
        if args:
            entry["args"] = args
        self.events.append(entry)

    def count(self, name, value=1):
        """Bump a named counter (breaker transitions, sheds, ...)."""
        if value:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- merging ------------------------------------------------------

    def merge(self, other):
        """Fold another recorder in (exact; used by the report builder).

        Geometry (SLO, window, budget) must match — merging burn
        windows with different widths would be meaningless.
        """
        if (other.slo_us, other.window_us, other.budget) != \
                (self.slo_us, self.window_us, self.budget):
            raise ValueError("cannot merge recorders with different "
                             "SLO/window geometry")
        self.hist.merge(other.hist)
        for op, entry in other.ops.items():
            mine = self.ops.get(op)
            if mine is None:
                mine = self.ops[op] = {"ok": 0, "errors": 0}
            mine["ok"] += entry["ok"]
            mine["errors"] += entry["errors"]
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for idx, win in other.windows.items():
            mine = self.windows.get(idx)
            if mine is None:
                self.windows[idx] = list(win)
            else:
                mine[0] += win[0]
                mine[1] += win[1]
                mine[2] += win[2]
                mine[3] += win[3]
                if win[4] > mine[4]:
                    mine[4] = win[4]
        self.events.extend(other.events)
        return self

    # -- summaries ----------------------------------------------------

    def latency_us(self, fractions=SUMMARY_FRACTIONS):
        """Percentiles in microseconds, read from the histogram."""
        out = {}
        for frac in fractions:
            name = "p" + ("%g" % (frac * 100)).replace(".", "")
            out[name] = round(
                self.hist.percentile(frac) / _NS_PER_US, 3)
        return out

    def burn(self):
        """SLO burn summary over the recorded windows.

        ``total_burn`` is the whole run's miss fraction over the
        budget (1.0 = the run spent exactly its error budget);
        ``worst_window_burn`` is the hottest single window's rate —
        the number a paging alert would fire on.
        """
        total_ops = sum(w[0] for w in self.windows.values())
        total_miss = sum(w[1] for w in self.windows.values())
        total_err = sum(w[2] for w in self.windows.values())
        worst = 0.0
        for win in self.windows.values():
            if win[0]:
                rate = (win[1] / win[0]) / self.budget
                if rate > worst:
                    worst = rate
        total = (total_miss / total_ops) / self.budget if total_ops \
            else 0.0
        return {
            "slo_us": self.slo_us,
            "window_us": self.window_us,
            "budget": self.budget,
            "windows": len(self.windows),
            "slo_misses": total_miss,
            "errors": total_err,
            "total_burn": round(total, 6),
            "worst_window_burn": round(worst, 6),
        }

    def summary(self):
        """The compact digest reports and comparisons use."""
        return {
            "ops": self.hist.total(),
            "latency_us": self.latency_us(),
            "burn": self.burn(),
        }

    # -- serialization ------------------------------------------------

    def to_dict(self):
        """The obs artifact blob (deterministic, strict JSON)."""
        events = sorted(self.events,
                        key=lambda ev: (ev["ts"], ev["name"]))
        return {
            "obs_version": OBS_VERSION,
            "substrate": self.substrate,
            "workload": self.workload,
            "slo_us": self.slo_us,
            "window_us": self.window_us,
            "budget": self.budget,
            "hist": self.hist.to_dict(),
            "ops": {op: dict(self.ops[op]) for op in sorted(self.ops)},
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "windows": {str(idx): [self.windows[idx][0],
                                   self.windows[idx][1],
                                   self.windows[idx][2],
                                   round(self.windows[idx][3], 3),
                                   round(self.windows[idx][4], 3)]
                        for idx in sorted(self.windows)},
            "events": events,
        }

    @classmethod
    def from_dict(cls, data):
        rec = cls(data.get("substrate"), workload=data.get("workload"),
                  slo_us=data.get("slo_us", DEFAULT_SLO_US),
                  window_us=data.get("window_us", DEFAULT_WINDOW_US),
                  budget=data.get("budget", DEFAULT_BUDGET))
        hist_data = data.get("hist")
        if hist_data:
            rec.hist = LatencyHistogram.from_dict(hist_data)
        rec.ops = {op: {"ok": int(v.get("ok", 0)),
                        "errors": int(v.get("errors", 0))}
                   for op, v in data.get("ops", {}).items()}
        rec.counters = {name: int(v)
                        for name, v in data.get("counters", {}).items()}
        rec.windows = {int(idx): [int(w[0]), int(w[1]), int(w[2]),
                                  float(w[3]), float(w[4])]
                       for idx, w in data.get("windows", {}).items()}
        rec.events = [dict(ev) for ev in data.get("events", ())]
        return rec
