"""Tests for the PMemKV cmap engine and the Figure 19 study."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmdk import PmemPool
from repro.pmemkv import CMap, overwrite_benchmark
from repro.sim import Machine, run_workloads


def make_kv(buckets=512):
    m = Machine()
    t = m.thread()
    pool = PmemPool.create(m, t)
    return m, t, pool, CMap(pool, buckets=buckets)


class TestCMapFunctional:
    def test_put_get(self):
        _, t, _, kv = make_kv()
        kv.put(t, b"alpha", b"1")
        assert kv.get(t, b"alpha") == b"1"
        assert kv.get(t, b"beta") is None

    def test_same_size_overwrite(self):
        _, t, _, kv = make_kv()
        kv.put(t, b"k", b"aaaa")
        kv.put(t, b"k", b"bbbb")
        assert kv.get(t, b"k") == b"bbbb"
        assert len(kv) == 1

    def test_resize_overwrite(self):
        _, t, _, kv = make_kv()
        kv.put(t, b"k", b"small")
        kv.put(t, b"k", b"considerably-larger-value")
        assert kv.get(t, b"k") == b"considerably-larger-value"

    def test_collisions_resolved(self):
        _, t, _, kv = make_kv(buckets=8)
        for i in range(6):
            kv.put(t, b"key-%d" % i, b"v%d" % i)
        for i in range(6):
            assert kv.get(t, b"key-%d" % i) == b"v%d" % i

    @given(st.dictionaries(st.binary(min_size=1, max_size=10),
                           st.binary(min_size=1, max_size=24),
                           max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_matches_dict(self, model):
        _, t, _, kv = make_kv()
        for k, v in model.items():
            kv.put(t, k, v)
        for k, v in model.items():
            assert kv.get(t, k) == v
        assert len(kv) == len(model)


class TestCMapCrash:
    def test_inserts_survive_crash(self):
        m, t, pool, kv = make_kv()
        for i in range(60):
            kv.put(t, b"k%02d" % i, b"v%02d" % i)
        table = kv.table_offset
        m.power_fail()
        pool2 = PmemPool.open(m)
        kv2 = CMap.open(pool2, table, buckets=512)
        t2 = m.thread()
        for i in range(60):
            assert kv2.get(t2, b"k%02d" % i) == b"v%02d" % i

    def test_publish_is_atomic(self):
        # Object persisted before the bucket pointer: a crash between
        # the two leaves the old mapping intact, never a dangling one.
        m, t, pool, kv = make_kv()
        kv.put(t, b"k", b"1111")
        table = kv.table_offset
        m.power_fail()
        kv2 = CMap.open(PmemPool.open(m), table, buckets=512)
        assert kv2.get(m.thread(), b"k") == b"1111"


class TestConcurrency:
    def test_concurrent_writers_all_land(self):
        m, t, pool, kv = make_kv()
        ts = m.threads(4)

        def worker(t):
            for i in range(40):
                kv.put(t, b"t%d-%02d" % (t.tid, i), b"x" * 32)
                yield

        run_workloads([(w, worker(w)) for w in ts])
        checker = m.thread()
        for w in ts:
            for i in range(40):
                assert kv.get(checker, b"t%d-%02d" % (w.tid, i)) == b"x" * 32

    def test_stripe_lock_serializes_time(self):
        _, t, _, kv = make_kv(buckets=2)   # both keys on stripe 0/1
        other = kv.pool.machine.thread()
        kv.put(t, b"a", b"1")
        unlock_times = list(kv._lock_free_at[:2])
        held = max(unlock_times)
        # A second thread hitting the same stripe at an earlier clock
        # is pushed past the first writer's unlock point.
        stripe = max(range(2), key=lambda i: kv._lock_free_at[i])
        kv._lock(other, stripe)
        assert other.now >= held


class TestFigure19Shape:
    def test_remote_optane_collapses_more_than_dram(self):
        local_o = overwrite_benchmark("optane", threads=4,
                                      ops_per_thread=80).bandwidth_gbps
        remote_o = overwrite_benchmark("optane-remote", threads=4,
                                       ops_per_thread=80).bandwidth_gbps
        local_d = overwrite_benchmark("dram", threads=4,
                                      ops_per_thread=80).bandwidth_gbps
        remote_d = overwrite_benchmark("dram-remote", threads=4,
                                       ops_per_thread=80).bandwidth_gbps
        opt_loss = local_o / remote_o
        dram_loss = local_d / remote_d
        assert opt_loss > 1.3
        assert dram_loss < opt_loss

    def test_local_scales_with_threads(self):
        one = overwrite_benchmark("optane", threads=1,
                                  ops_per_thread=80).bandwidth_gbps
        four = overwrite_benchmark("optane", threads=4,
                                   ops_per_thread=80).bandwidth_gbps
        assert four > 2 * one

