"""The content-addressed result cache: hits, misses, invalidation.

Covers the cache-layer contract: a hit after an identical rerun, a
miss after a simulator-config change, a miss after a package version
bump, ``clear`` removing artifacts, and a corrupt artifact being
treated as a miss rather than a crash.
"""

import json
import os

from repro.harness import (
    ResultCache, cache_dir, config_fingerprint, point_key,
    run_cached_points,
)
from repro.sim import default_config

PARAMS = {"kind": "optane", "op": "read", "pattern": "seq",
          "access": 256, "threads": 4, "per_thread": 65536}


class TestPointKey:
    def test_stable_across_calls(self):
        assert point_key("sweep", PARAMS) == point_key("sweep", PARAMS)

    def test_param_change_changes_key(self):
        other = dict(PARAMS, threads=8)
        assert point_key("sweep", PARAMS) != point_key("sweep", other)

    def test_param_order_does_not_matter(self):
        reordered = dict(reversed(list(PARAMS.items())))
        assert point_key("sweep", PARAMS) == point_key("sweep", reordered)

    def test_experiment_name_changes_key(self):
        assert point_key("sweep", PARAMS) != point_key("other", PARAMS)

    def test_config_change_changes_key(self):
        tweaked = default_config()
        tweaked.media.banks = 8
        assert point_key("sweep", PARAMS) != \
            point_key("sweep", PARAMS, config=tweaked)
        assert config_fingerprint(tweaked) != config_fingerprint()

    def test_version_bump_changes_key(self):
        assert point_key("sweep", PARAMS, version="1.0.0") != \
            point_key("sweep", PARAMS, version="1.0.1")


class TestResultCache:
    def _cache(self, tmp_path):
        return ResultCache(root=str(tmp_path / "cache"))

    def test_miss_then_hit_after_identical_rerun(self, tmp_path):
        cache = self._cache(tmp_path)
        key = point_key("sweep", PARAMS)
        hit, _ = cache.get(key)
        assert not hit
        cache.put(key, {"gbps": 6.5}, experiment="sweep",
                  params=PARAMS)
        hit, value = cache.get(key)
        assert hit
        assert value == {"gbps": 6.5}
        assert cache.hits == 1 and cache.misses == 1

    def test_miss_after_config_change(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put(point_key("sweep", PARAMS), {"gbps": 6.5})
        tweaked = default_config()
        tweaked.xpbuffer.sets = 32
        hit, _ = cache.get(point_key("sweep", PARAMS, config=tweaked))
        assert not hit

    def test_miss_after_version_bump(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put(point_key("sweep", PARAMS, version="1.0.0"),
                  {"gbps": 6.5})
        hit, _ = cache.get(point_key("sweep", PARAMS, version="2.0.0"))
        assert not hit

    def test_clear_removes_artifacts(self, tmp_path):
        cache = self._cache(tmp_path)
        for threads in (1, 2, 4):
            cache.put(point_key("sweep", dict(PARAMS, threads=threads)),
                      {"gbps": float(threads)})
        assert cache.stats()["artifacts"] == 3
        assert cache.clear() == 3
        assert cache.stats()["artifacts"] == 0
        hit, _ = cache.get(point_key("sweep", PARAMS))
        assert not hit

    def test_corrupt_artifact_is_a_miss_not_a_crash(self, tmp_path):
        cache = self._cache(tmp_path)
        key = point_key("sweep", PARAMS)
        cache.put(key, {"gbps": 6.5})
        path = cache._path(key)
        with open(path, "w") as fh:
            fh.write("{ this is not json")
        hit, _ = cache.get(key)
        assert not hit
        assert not os.path.exists(path)      # corrupt artifact dropped
        # Repopulating after the corruption works.
        cache.put(key, {"gbps": 6.5})
        hit, value = cache.get(key)
        assert hit and value == {"gbps": 6.5}

    def test_silently_corrupted_result_is_a_miss(self, tmp_path):
        # Valid JSON, valid envelope shape — but the result bytes were
        # altered after writing.  Only the checksum can catch this.
        cache = self._cache(tmp_path)
        key = point_key("sweep", PARAMS)
        cache.put(key, {"gbps": 6.5})
        path = cache._path(key)
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["result"]["gbps"] = 9999.0      # bit-rot simulation
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        hit, _ = cache.get(key)
        assert not hit
        assert not os.path.exists(path)          # dropped, not trusted
        # The rerun repopulates and verifies clean.
        cache.put(key, {"gbps": 6.5})
        hit, value = cache.get(key)
        assert hit and value == {"gbps": 6.5}

    def test_missing_checksum_is_a_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        key = point_key("sweep", PARAMS)
        cache.put(key, {"gbps": 6.5})
        path = cache._path(key)
        with open(path) as fh:
            envelope = json.load(fh)
        del envelope["sha256"]
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        hit, _ = cache.get(key)
        assert not hit

    def test_artifact_carries_checksum(self, tmp_path):
        from repro.harness.cache import result_digest

        cache = self._cache(tmp_path)
        key = point_key("sweep", PARAMS)
        cache.put(key, {"gbps": 6.5})
        with open(cache._path(key)) as fh:
            envelope = json.load(fh)
        assert envelope["sha256"] == result_digest({"gbps": 6.5})

    def test_valid_json_missing_result_field_is_a_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        key = point_key("sweep", PARAMS)
        cache.put(key, {"gbps": 6.5})
        with open(cache._path(key), "w") as fh:
            json.dump({"key": key}, fh)
        hit, _ = cache.get(key)
        assert not hit

    def test_disabled_cache_never_hits_or_writes(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"), enabled=False)
        key = point_key("sweep", PARAMS)
        cache.put(key, {"gbps": 6.5})
        hit, _ = cache.get(key)
        assert not hit
        assert cache.stats()["artifacts"] == 0

    def test_artifact_carries_provenance(self, tmp_path):
        cache = self._cache(tmp_path)
        key = point_key("sweep", PARAMS)
        cache.put(key, {"gbps": 6.5}, experiment="sweep",
                  params=PARAMS, version="9.9.9")
        with open(cache._path(key)) as fh:
            envelope = json.load(fh)
        assert envelope["experiment"] == "sweep"
        assert envelope["params"]["threads"] == 4
        assert envelope["version"] == "9.9.9"

    def test_env_var_overrides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert cache_dir() == str(tmp_path / "env")
        assert ResultCache().root == str(tmp_path / "env")
        assert cache_dir("explicit") == "explicit"


def _unsorted_point(payload):
    """A record whose keys are not in sorted order, holding a tuple."""
    return {"z": payload["i"], "a": (1, 2), "m": {"y": 1, "b": 2}}


class TestRunCachedPoints:
    def test_fresh_record_equals_its_replay(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        payloads = [{"i": 0}, {"i": 1}]
        fresh = run_cached_points(_unsorted_point, payloads, "test.order",
                                  cache=cache, jobs=1)
        replay = run_cached_points(_unsorted_point, payloads,
                                   "test.order", cache=cache, jobs=1)
        assert [o.cached for o in fresh] == [False, False]
        assert [o.cached for o in replay] == [True, True]
        for live, replayed in zip(fresh, replay):
            assert live.value == replayed.value
            assert list(live.value) == list(replayed.value) == \
                ["z", "a", "m"]
            assert list(live.value["m"]) == list(replayed.value["m"])
