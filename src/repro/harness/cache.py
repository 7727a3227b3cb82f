"""Content-addressed on-disk result cache.

Artifacts are JSON files under ``.repro-cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable), sharded by the first two hex
digits of the key the way git shards objects.  Every artifact carries
its own provenance (experiment, params, version) so ``cache stats`` can
summarize the store and a human can audit any entry.

A corrupt or truncated artifact is treated as a miss and deleted — the
cache must never be able to crash an experiment.  Every artifact
carries a SHA-256 over its canonicalized result, verified on load, so
silent corruption *inside* a syntactically valid JSON file (flipped
digit, truncated-then-patched file) is also caught, not just parse
errors.
"""

import hashlib
import json
import os
import tempfile

DEFAULT_CACHE_DIR = ".repro-cache"

_MISS = object()


def result_digest(result):
    """SHA-256 of the canonical JSON encoding of a result payload."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_dir(root=None):
    """Resolve the cache root: explicit arg, env var, or default."""
    if root is not None:
        return root
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


class ResultCache:
    """A content-addressed store of experiment results.

    Keys come from :func:`repro.harness.keys.point_key`; values are any
    JSON-serializable payload.  Hit/miss counters cover this instance's
    lifetime and feed the run manifest.
    """

    def __init__(self, root=None, enabled=True):
        self.root = cache_dir(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    # -- addressing ---------------------------------------------------

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    # -- read/write ---------------------------------------------------

    def get(self, key):
        """Return ``(hit, result)``; corrupt artifacts count as misses."""
        if not self.enabled:
            return False, None
        value = self._read(key)
        if value is _MISS:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def _read(self, key):
        path = self._path(key)
        try:
            with open(path) as fh:
                envelope = json.load(fh)
            result = envelope["result"]
            # Envelopes without a digest (pre-checksum artifacts) are
            # treated as corrupt too: dropped and recomputed once.
            if envelope["sha256"] != result_digest(result):
                raise ValueError("artifact checksum mismatch")
            return result
        except FileNotFoundError:
            return _MISS
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                OSError):
            # Corrupt artifact: drop it so the rerun can repopulate.
            try:
                os.unlink(path)
            except OSError:
                pass
            return _MISS

    def put(self, key, result, experiment=None, params=None,
            version=None):
        """Store one result with provenance; atomic via rename."""
        if not self.enabled:
            return
        if version is None:
            from repro import __version__ as version
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        envelope = {
            "key": key,
            "experiment": experiment,
            "params": params,
            "version": version,
            "result": result,
            "sha256": result_digest(result),
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # The result keeps its key order, so a replay equals
                # the fresh value; the digest sorts on its own.
                json.dump(envelope, fh)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- maintenance --------------------------------------------------

    def _artifacts(self):
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield os.path.join(shard_dir, name)

    def clear(self):
        """Delete every artifact; returns how many were removed."""
        removed = 0
        for path in list(self._artifacts()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        # Prune now-empty shard directories (best effort).
        if os.path.isdir(self.root):
            for shard in os.listdir(self.root):
                shard_dir = os.path.join(self.root, shard)
                if os.path.isdir(shard_dir) and not os.listdir(shard_dir):
                    os.rmdir(shard_dir)
        return removed

    def stats(self):
        """On-disk totals plus this instance's session hit/miss counts."""
        artifacts = 0
        total_bytes = 0
        by_experiment = {}
        for path in self._artifacts():
            artifacts += 1
            try:
                total_bytes += os.path.getsize(path)
                with open(path) as fh:
                    experiment = json.load(fh).get("experiment") or "?"
            except (OSError, json.JSONDecodeError):
                experiment = "?"
            by_experiment[experiment] = by_experiment.get(experiment, 0) + 1
        return {
            "root": self.root,
            "artifacts": artifacts,
            "total_bytes": total_bytes,
            "by_experiment": by_experiment,
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    def hit_rate(self):
        """Session hit rate in [0, 1]; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0
