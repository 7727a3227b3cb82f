"""Timing discipline shared by the workloads and the layer loops.

A *window* times exactly the section whose ops it counts, with the
collector quiesced (``gc.collect()`` then ``gc.disable()``), and wall
metrics are medians over windows with their quartiles beside them.
"""

import gc
import statistics
import time
from math import ceil


class MissingLayerFunction(RuntimeError):
    """A public function a layer metric times is gone."""


def require(owner, attr, metric):
    """``getattr(owner, attr)``, failing loudly with the metric's name.

    A layer metric whose function was renamed or removed must stop the
    run, not silently drop a row.
    """
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise MissingLayerFunction(
            "metric %s: %s.%s no longer exists"
            % (metric, getattr(owner, "__name__", type(owner).__name__),
               attr))


def timed(fn):
    """Run ``fn`` once inside a quiesced window; ``(wall_s, result)``."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
    finally:
        gc.enable()
    return wall, result


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def loop_ns(prepare, body, calls, reps=3):
    """Median host ns per call of ``body(prepare(rep))``.

    ``prepare(rep)`` builds whatever the loop needs (a fresh machine,
    fresh inputs — re-using inputs across repetitions would hit a warm
    modelled cache) outside the clock; ``body`` runs the whole loop of
    ``calls`` calls itself, so hoisted locals stay hoisted.
    """
    samples = []
    for rep in range(reps):
        state = prepare(rep)
        wall, _ = timed(lambda: body(state))
        samples.append(wall * 1e9 / calls)
    return statistics.median(samples)


def percentile(hist, frac):
    """Quantile of a ``LatencyHistogram``, interpolated inside its bucket.

    ``hist.percentile`` answers with the bucket midpoint, so the value
    jumps between midpoints; interpolating linearly by rank inside the
    (at most 3.125 % wide) bucket moves smoothly with the distribution
    and stays an exact function of the recorded counts.
    """
    from repro.obs.hist import bucket_bounds
    total = hist.total()
    if total == 0:
        return 0.0
    rank = min(max(ceil(total * frac), 1), total)
    below = 0
    for index in sorted(hist.counts):
        count = hist.counts[index]
        if below + count >= rank:
            lo, hi = bucket_bounds(index)
            return lo + (hi - lo) * (rank - below) / count
        below += count
    return bucket_bounds(max(hist.counts))[1]
