"""Run manifests: the artifact store's record of what actually ran.

Every harness run writes one manifest describing the grid it covered,
the wall time it took, and per-point provenance — the content-address
key, whether the point came from cache, how long it took, and the
result record itself.  Manifests are plain JSON so the regression
comparator (:mod:`repro.harness.compare`) can diff any two runs, even
across machines or package versions.
"""

import json
import os
import time

from repro.harness.keys import to_jsonable

MANIFEST_FORMAT = 1


class RunManifest:
    """Provenance for one harness run."""

    def __init__(self, name, grid=None, jobs=1, version=None,
                 started=None):
        if version is None:
            from repro import __version__ as version
        self.name = name
        self.grid = grid
        self.jobs = jobs
        self.version = version
        self.started = time.time() if started is None else started
        self.wall_s = None
        self.cache_stats = None
        self.points = []

    # -- recording ----------------------------------------------------

    def add_point(self, params, key=None, record=None, cached=False,
                  elapsed_s=0.0, error=None, trace=None):
        """Record one point's provenance and (jsonable) result.

        ``trace`` is the path of the point's Chrome-trace artifact when
        the run was traced; the key is omitted entirely for untraced
        points so untraced manifests are byte-identical to manifests
        written before tracing existed.
        """
        point = {
            "params": to_jsonable(params),
            "key": key,
            "record": to_jsonable(record),
            "cached": bool(cached),
            "elapsed_s": elapsed_s,
            "error": error,
        }
        if trace is not None:
            point["trace"] = trace
        self.points.append(point)

    def add_outcome(self, outcome, normalized=False):
        """Record one harness :class:`PointOutcome`.

        ``normalized`` drops what varies between runs of the same
        points — the cache-hit flag and the elapsed time.
        """
        self.add_point(params=outcome.payload, key=outcome.key,
                       record=outcome.value,
                       cached=outcome.cached and not normalized,
                       elapsed_s=0.0 if normalized else outcome.elapsed_s,
                       error=outcome.error, trace=outcome.trace)

    @classmethod
    def normalized(cls, name, grid, outcomes):
        """A manifest whose bytes depend only on the points' payloads
        and results: no wall clock, job count or cache-hit flags, so two
        runs of the same points write identical files whatever the job
        count or cache temperature."""
        manifest = cls(name=name, grid=grid, jobs=1, started=0.0)
        for outcome in outcomes:
            manifest.add_outcome(outcome, normalized=True)
        manifest.wall_s = 0.0
        return manifest

    def finish(self, cache=None):
        """Stamp total wall time and (optionally) cache statistics."""
        self.wall_s = time.time() - self.started
        if cache is not None:
            self.cache_stats = {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": cache.hit_rate(),
            }
        return self

    # -- queries ------------------------------------------------------

    @property
    def failures(self):
        return [p for p in self.points if p.get("error")]

    @property
    def cached_points(self):
        return [p for p in self.points if p.get("cached")]

    def hit_rate(self):
        if not self.points:
            return 0.0
        return len(self.cached_points) / len(self.points)

    # -- serialization ------------------------------------------------

    def to_dict(self):
        return {
            "format": MANIFEST_FORMAT,
            "name": self.name,
            "version": self.version,
            "grid": to_jsonable(self.grid),
            "jobs": self.jobs,
            "started": self.started,
            "wall_s": self.wall_s,
            "cache": self.cache_stats,
            "points": self.points,
        }

    def save(self, path):
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
        return path

    @classmethod
    def from_dict(cls, data):
        manifest = cls(
            name=data.get("name", "?"),
            grid=data.get("grid"),
            jobs=data.get("jobs", 1),
            version=data.get("version", "?"),
            started=data.get("started", 0.0),
        )
        manifest.wall_s = data.get("wall_s")
        manifest.cache_stats = data.get("cache")
        manifest.points = list(data.get("points", ()))
        return manifest

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
