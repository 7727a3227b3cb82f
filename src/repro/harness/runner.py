"""High-level harness runs: cache lookup → parallel fan-out → manifest.

``run_cached_points`` is the one cache → fan-out loop; two runs sit on
top of it:

* ``run_sweep`` — grid expansion plus a wall-clock manifest; the engine
  behind ``repro.lattester.sweep``, ``scripts/full_sweep.py``,
  ``python -m repro sweep`` and the serve points of
  ``repro.workloads.saturation``;
* ``run_matrix`` — the fault and checker matrices (``repro.chaos_serve``,
  ``repro.pmcheck``, ``repro.faults``): a normalized manifest, the
  violations the cells reported, each tagged with its cell, and one
  per-cell timeout budget.

A traced point's trace path is recorded once, on its manifest point's
``trace`` key — never in the point's record, which is what gets cached.
``run_experiment_cached`` is the same cache discipline for whole
registry figures (used by ``scripts/regenerate_all.py``).
"""

import os
from dataclasses import dataclass, field
from itertools import product

from repro._units import KIB
from repro.harness.cache import ResultCache
from repro.harness.executor import PointOutcome, run_points
from repro.harness.keys import point_key, to_jsonable
from repro.harness.manifest import RunManifest

SWEEP_EXPERIMENT = "lattester.sweep"

#: Per-cell worker budget of every matrix: a stuck cell fails loudly,
#: then retries once.
CASE_TIMEOUT_S = 180.0
CASE_RETRIES = 1


def expand_grid(grid):
    """The grid's cartesian product as a list of param dicts."""
    keys = list(grid)
    return [dict(zip(keys, values))
            for values in product(*(grid[k] for k in keys))]


def _sweep_point(payload):
    """Measure one sweep point (module-level: must pickle to workers)."""
    from repro.lattester.bandwidth import measure_bandwidth
    params = dict(payload)
    per_thread = params.pop("per_thread")
    result = measure_bandwidth(per_thread=per_thread, **params)
    record = dict(params)
    record["gbps"] = result.gbps
    record["ewr"] = result.ewr
    record["elapsed_ns"] = result.elapsed_ns
    return record


@dataclass
class SweepRun:
    """Everything one harness run produced: its manifest, every point's
    :class:`PointOutcome` in grid order, and — for matrices — the
    violations its cells reported, by kind."""

    manifest: RunManifest
    outcomes: list
    findings: dict = field(default_factory=dict)

    @property
    def records(self):
        """The successful points' records, in grid order."""
        return [o.value for o in self.outcomes if o.ok]

    @property
    def violations(self):
        return self.findings.get("violations", [])

    @property
    def failures(self):
        """Manifest points of the cells that raised or timed out."""
        return self.manifest.failures

    @property
    def ok(self):
        """Clean = every point ran and no cell reported a violation."""
        return not self.failures and not any(self.findings.values())

    def raise_on_failure(self, what):
        """Raise ``RuntimeError`` naming the first failed point."""
        if self.failures:
            point = self.failures[0]
            raise RuntimeError("%s point %s failed: %s"
                               % (what, point["params"], point["error"]))


def run_sweep(grid, per_thread=64 * KIB, jobs=None, cache=None,
              progress=None, name="sweep", version=None, trace_dir=None,
              point_fn=None, experiment=None):
    """Run a full sweep grid through the harness.

    Returns a :class:`SweepRun` whose ``records`` are in grid order
    regardless of worker completion order and identical between the
    serial and parallel paths.  ``cache=None`` builds the default
    on-disk cache; pass ``ResultCache(enabled=False)`` to force
    recomputation.  ``progress`` receives each :class:`PointOutcome`
    as it completes (cache hits included).  ``trace_dir`` turns on
    per-point tracing (see :func:`run_cached_points`).

    ``point_fn`` generalizes the harness beyond bandwidth sweeps: a
    module-level callable (it must pickle to workers) receiving one
    payload dict — the grid params — and returning a JSON-able record.
    Custom point functions name their own cache ``experiment`` so their
    content addresses never collide with the bandwidth sweep's;
    ``per_thread`` is not injected for them.
    """
    if cache is None:
        cache = ResultCache()
    payloads = expand_grid(grid)
    if point_fn is None:
        point_fn = _sweep_point
        experiment = SWEEP_EXPERIMENT if experiment is None else experiment
        payloads = [dict(p, per_thread=per_thread) for p in payloads]
    elif experiment is None:
        raise ValueError("a custom point_fn needs an experiment "
                         "name for its cache keys")
    manifest = RunManifest(name=name, grid=grid, jobs=jobs,
                           version=version)
    outcomes = run_cached_points(point_fn, payloads, experiment,
                                 version=version, cache=cache, jobs=jobs,
                                 progress=progress, trace_dir=trace_dir)
    for outcome in outcomes:
        manifest.add_outcome(outcome)
    manifest.finish(cache=cache)
    return SweepRun(manifest=manifest, outcomes=outcomes)


def run_cached_points(point_fn, payloads, experiment, version=None,
                      cache=None, jobs=None, progress=None,
                      timeout_s=None, retries=0, trace_dir=None):
    """The one cache → fan-out loop; returns outcomes in payload order.

    Every payload is looked up in the content-addressed cache, the
    misses fan out across workers, fresh successes are cached; each
    :class:`PointOutcome` carries its ``key``.  ``trace_dir`` traces
    every freshly computed point into ``point-<key[:16]>.trace.json``.
    Keys come from the payloads alone, so traced and untraced runs
    share content addresses; replayed points have no trace.
    """
    if cache is None:
        cache = ResultCache()
    payloads = [dict(p) for p in payloads]
    keys = [point_key(experiment, payload, version=version)
            for payload in payloads]
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    outcomes = [None] * len(payloads)
    pending = []
    for index, (payload, key) in enumerate(zip(payloads, keys)):
        hit, record = cache.get(key)
        if hit:
            outcomes[index] = PointOutcome(
                index=index, payload=payload, value=record, cached=True,
                key=key)
            if progress is not None:
                progress(outcomes[index])
        else:
            pending.append(index)

    traces = None if trace_dir is None else [
        os.path.join(trace_dir, "point-%s.trace.json" % keys[i][:16])
        for i in pending]
    fresh = run_points(point_fn, [payloads[i] for i in pending],
                       jobs=jobs, progress=progress, timeout_s=timeout_s,
                       retries=retries, traces=traces)
    for slot, outcome in zip(pending, fresh):
        outcome.index = slot
        outcome.key = keys[slot]
        outcomes[slot] = outcome
        if outcome.ok:
            cache.put(keys[slot], to_jsonable(outcome.value),
                      experiment=experiment,
                      params=to_jsonable(payloads[slot]),
                      version=version)
    return outcomes


def run_matrix(point_fn, payloads, name, grid, cell, findings,
               experiment=None, cache=None, jobs=None, progress=None,
               trace_dir=None, trace_name=None):
    """Run a fault or checker matrix; returns a :class:`SweepRun`.

    The matrix supplies its cells (``payloads``, the manifest's ``name``
    and ``grid``), its cell function, ``cell(payload)`` — how a cell is
    named in a violation — and ``findings``, kind -> a function
    returning a record's violations as dicts; each comes back under its
    kind as ``dict(violation, cell=...)``.  With an ``experiment`` the
    cells are cached; without one their manifest points keep ``key:
    null`` and ``trace_name(index, payload)`` names their traces.
    """
    budget = dict(jobs=jobs, progress=progress, timeout_s=CASE_TIMEOUT_S,
                  retries=CASE_RETRIES)
    if experiment is not None:
        outcomes = run_cached_points(point_fn, payloads, experiment,
                                     cache=cache, trace_dir=trace_dir,
                                     **budget)
    else:
        traces = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            traces = [os.path.join(trace_dir, trace_name(i, payload))
                      for i, payload in enumerate(payloads)]
        outcomes = run_points(point_fn, payloads, traces=traces, **budget)
    found = {kind: [] for kind in findings}
    for outcome in outcomes:
        if outcome.ok:
            tag = cell(outcome.payload)
            for kind, extract in findings.items():
                found[kind].extend(dict(violation, cell=dict(tag))
                                   for violation in extract(outcome.value))
    return SweepRun(manifest=RunManifest.normalized(name, grid, outcomes),
                    outcomes=outcomes, findings=found)


def run_experiment_cached(experiment, cache=None, version=None,
                          **kwargs):
    """Run one registry figure through the cache.

    Returns ``(result, cached)`` where ``result`` is the figure's
    output in JSON-able form — identical whether it was computed live
    or replayed from cache.
    """
    if cache is None:
        cache = ResultCache()
    key = point_key("experiment:" + experiment.figure, kwargs,
                    version=version)
    hit, result = cache.get(key)
    if hit:
        return result, True
    result = to_jsonable(experiment.run(**kwargs))
    cache.put(key, result, experiment="experiment:" + experiment.figure,
              params=to_jsonable(kwargs), version=version)
    return result, False
