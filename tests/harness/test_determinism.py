"""Determinism regression tests.

The virtual-time engine's core invariant is that a run is a pure
function of its configuration — no wall-clock, no unseeded randomness.
These tests guard it end-to-end: the same experiment run twice is
bit-identical, and the parallel executor produces bit-identical output
to the serial path (worker processes each rebuild the same simulated
machine).
"""

from repro._units import KIB
from repro.harness import ResultCache, canonical_json, run_sweep
from repro.lattester.sweep import sweep_grid

GRID = {
    "kind": ("dram-ni", "optane-ni"),
    "op": ("read", "ntstore"),
    "pattern": ("seq", "rand"),
    "access": (256,),
    "threads": (1, 4),
}


def _uncached():
    return ResultCache(enabled=False)


class TestDeterminism:
    def test_same_sweep_twice_is_bit_identical(self):
        a = run_sweep(GRID, per_thread=16 * KIB, jobs=1,
                      cache=_uncached()).records
        b = run_sweep(GRID, per_thread=16 * KIB, jobs=1,
                      cache=_uncached()).records
        assert canonical_json(a) == canonical_json(b)

    def test_parallel_is_bit_identical_to_serial(self):
        serial = run_sweep(GRID, per_thread=16 * KIB, jobs=1,
                           cache=_uncached()).records
        parallel = run_sweep(GRID, per_thread=16 * KIB, jobs=2,
                             cache=_uncached()).records
        assert canonical_json(serial) == canonical_json(parallel)

    def test_sweep_grid_jobs_1_matches_jobs_2(self):
        serial = sweep_grid(grid=GRID, per_thread=16 * KIB)
        parallel = sweep_grid(grid=GRID, per_thread=16 * KIB, jobs=2)
        assert canonical_json(serial) == canonical_json(parallel)

    def test_sweep_grid_writes_nothing_to_the_cache_dir(self, tmp_path,
                                                        monkeypatch):
        root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        sweep_grid(grid=GRID, per_thread=16 * KIB)
        assert not root.exists()

    def test_cache_replay_is_bit_identical_to_live_run(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        live = run_sweep(GRID, per_thread=16 * KIB, jobs=1,
                         cache=cache)
        replay = run_sweep(GRID, per_thread=16 * KIB, jobs=1,
                           cache=cache)
        assert canonical_json(live.records) == \
            canonical_json(replay.records)
        assert replay.manifest.hit_rate() == 1.0

    def test_figure_run_cached_twice_is_bit_identical(self, tmp_path):
        from repro.core.experiments import run_figure
        cache = ResultCache(root=str(tmp_path / "cache"))
        runs = [run_sweep({"figure": ["fig10"]}, point_fn=run_figure,
                          experiment="experiment", jobs=1, cache=cache)
                for _ in range(2)]
        assert [run.outcomes[0].cached for run in runs] == [False, True]
        first, second = (run.records for run in runs)
        assert canonical_json(first) == canonical_json(second)
        assert first == second
