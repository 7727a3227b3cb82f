"""Generator statistics: determinism, skew, coverage (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import (
    LatestGenerator, RequestStream, ScrambledZipfianGenerator,
    UniformGenerator, WORKLOADS, ZipfianGenerator, fnv64, get_workload,
    key_index, make_key, make_value, zeta,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestFnv64:
    def test_known_stability(self):
        # Pinned outputs: a silent change to the scramble would quietly
        # invalidate every cached serve point.
        assert fnv64(0) == 0xA8C7F832281A39C5
        assert fnv64(1) != fnv64(0)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_in_64_bit_range(self, value):
        assert 0 <= fnv64(value) < 2**64


class TestZipfian:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_deterministic_per_seed(self, seed):
        a = ZipfianGenerator(1000, seed=seed)
        b = ZipfianGenerator(1000, seed=seed)
        assert [a.next() for _ in range(200)] == \
            [b.next() for _ in range(200)]

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_ranks_in_range(self, seed):
        gen = ZipfianGenerator(100, seed=seed)
        assert all(0 <= gen.next() < 100 for _ in range(500))

    def test_rank_zero_frequency_matches_theta(self):
        # P(rank 0) = 1/zeta(n, theta); check the sampler hits it
        # within a loose statistical tolerance.
        n, theta, draws = 1000, 0.99, 20000
        gen = ZipfianGenerator(n, theta=theta, seed=7)
        hits = sum(1 for _ in range(draws) if gen.next() == 0)
        expected = draws / zeta(n, theta)
        assert math.isclose(hits, expected, rel_tol=0.15)

    def test_higher_theta_is_more_skewed(self):
        def top10_mass(theta):
            gen = ZipfianGenerator(1000, theta=theta, seed=3)
            return sum(1 for _ in range(5000) if gen.next() < 10)
        assert top10_mass(0.99) > top10_mass(0.5) > top10_mass(0.1)

    def test_zeta_incremental_matches_direct(self):
        direct = sum(1.0 / (i ** 0.99) for i in range(1, 501))
        assert math.isclose(zeta(500, 0.99), direct, rel_tol=1e-12)
        # A smaller n after a larger one must not reuse the larger sum.
        assert zeta(10, 0.99) < zeta(500, 0.99)


class TestScrambledZipfian:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_deterministic_per_seed(self, seed):
        a = ScrambledZipfianGenerator(512, seed=seed)
        b = ScrambledZipfianGenerator(512, seed=seed)
        assert [a.next() for _ in range(200)] == \
            [b.next() for _ in range(200)]

    def test_hot_keys_spread_over_keyspace(self):
        # The raw zipfian clusters at low ranks; the scramble must
        # spread the mass across the whole keyspace.
        gen = ScrambledZipfianGenerator(1000, seed=11)
        draws = [gen.next() for _ in range(5000)]
        low_half = sum(1 for d in draws if d < 500)
        assert 0.3 < low_half / len(draws) < 0.7

    def test_covers_keyspace(self):
        items = 64
        gen = ScrambledZipfianGenerator(items, seed=5)
        seen = {gen.next() for _ in range(20000)}
        # Every index is reachable; a tiny tail may not be drawn.
        assert len(seen) >= items * 0.85
        assert all(0 <= index < items for index in seen)


class TestUniformAndLatest:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_uniform_deterministic_and_in_range(self, seed):
        a = UniformGenerator(128, seed=seed)
        b = UniformGenerator(128, seed=seed)
        draws = [a.next() for _ in range(300)]
        assert draws == [b.next() for _ in range(300)]
        assert all(0 <= d < 128 for d in draws)

    def test_uniform_covers_keyspace(self):
        gen = UniformGenerator(32, seed=9)
        assert {gen.next() for _ in range(3000)} == set(range(32))

    def test_latest_skews_to_most_recent(self):
        gen = LatestGenerator(1000, seed=13)
        draws = [gen.next() for _ in range(5000)]
        recent = sum(1 for d in draws if d >= 900)
        assert recent / len(draws) > 0.5

    def test_latest_tracks_inserts(self):
        gen = LatestGenerator(100, seed=1)
        assert gen.last == 99
        gen.note_insert(150)
        assert gen.last == 150
        draws = [gen.next() for _ in range(2000)]
        assert max(draws) == 150


class TestRequestStream:
    @given(seeds, st.sampled_from(sorted(WORKLOADS)))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_per_seed_and_client(self, seed, name):
        spec = get_workload(name)
        a = RequestStream(spec, 128, seed=seed, client=1)
        b = RequestStream(spec, 128, seed=seed, client=1)
        assert a.next_requests(100) == b.next_requests(100)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_clients_never_insert_the_same_key(self, seed):
        spec = get_workload("log-append")
        streams = [RequestStream(spec, 64, seed=seed, client=c)
                   for c in range(4)]
        inserted = [
            {r.key_index for r in s.next_requests(50)} for s in streams
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (inserted[i] & inserted[j])

    def test_mix_proportions_within_tolerance(self):
        spec = get_workload("ycsb-a")          # 50/50 read/update
        stream = RequestStream(spec, 256, seed=0)
        ops = [r.op for r in stream.next_requests(4000)]
        reads = ops.count("read") / len(ops)
        assert 0.45 < reads < 0.55
        assert set(ops) == {"read", "update"}

    def test_pointer_chase_is_a_deterministic_chain(self):
        spec = get_workload("pointer-chase")
        stream = RequestStream(spec, 128, seed=0)
        first = [r.key_index for r in stream.next_requests(50)]
        again = RequestStream(spec, 128, seed=0)
        assert [r.key_index for r in again.next_requests(50)] == first
        # The walk must roam the keyspace, not orbit a short cycle.
        assert len(set(first)) > 25

    def test_log_append_is_monotonic_inserts(self):
        spec = get_workload("log-append")
        stream = RequestStream(spec, 32, seed=0)
        reqs = stream.next_requests(40)
        assert all(r.op == "insert" for r in reqs)
        indices = [r.key_index for r in reqs]
        assert indices == sorted(indices)
        assert indices[0] == 32

    def test_scan_lengths_bounded_by_spec(self):
        spec = get_workload("ycsb-e")
        stream = RequestStream(spec, 128, seed=2)
        scans = [r for r in stream.next_requests(500) if r.op == "scan"]
        assert scans
        assert all(1 <= r.scan_len <= spec.scan_max for r in scans)


class TestKeysAndValues:
    @given(st.integers(min_value=0, max_value=10**11))
    @settings(max_examples=50, deadline=None)
    def test_key_roundtrip(self, index):
        assert key_index(make_key(index)) == index

    def test_values_are_never_all_zero(self):
        # Zero-filled (lost) media must read back as *missing*, never
        # as a valid value.
        spec = get_workload("ycsb-a")
        for index in range(64):
            for version in range(3):
                value = make_value(spec, index, version)
                assert len(value) == spec.value_size
                assert value != b"\x00" * len(value)

    def test_versions_produce_distinct_values(self):
        spec = get_workload("ycsb-a")
        values = {make_value(spec, 5, v) for v in range(40)}
        assert len(values) > 1


class TestRegistry:
    def test_all_presets_present(self):
        assert set(WORKLOADS) == {
            "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f",
            "pointer-chase", "log-append",
        }

    def test_mix_weights_sum_to_one(self):
        for spec in WORKLOADS.values():
            assert math.isclose(sum(w for _, w in spec.mix), 1.0)

    def test_unknown_workload_lists_names(self):
        try:
            get_workload("nope")
        except KeyError as exc:
            assert "ycsb-a" in str(exc)
        else:
            raise AssertionError("expected KeyError")
