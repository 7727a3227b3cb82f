"""Tests for the sweep driver (CSV round trip) and the
load/report helpers."""

import os

from repro._units import KIB
from repro.lattester.load import loaded_latency
from repro.lattester.sweep import read_csv, sweep_grid, write_csv

SMALL_GRID = {
    "kind": ("dram-ni", "optane-ni"),
    "op": ("read", "ntstore"),
    "pattern": ("seq",),
    "access": (256,),
    "threads": (1, 4),
}


def run_small_grid():
    return sweep_grid(grid=SMALL_GRID, per_thread=16 * KIB)


class TestSweep:
    def setup_method(self):
        self.records = run_small_grid()

    def test_grid_size(self):
        assert len(self.records) == 8

    def test_records_have_results(self):
        assert all(r["gbps"] > 0 for r in self.records)

    def test_csv_roundtrip(self, tmp_path=None):
        path = "/tmp/repro_sweep_test.csv"
        write_csv(self.records, path)
        try:
            back = read_csv(path)
            assert len(back) == len(self.records)
            assert back[0]["access"] == 256
            assert isinstance(back[0]["gbps"], float)
        finally:
            os.unlink(path)

    def test_progress_callback(self):
        seen = []
        sweep_grid(grid={"kind": ("dram-ni",), "op": ("read",),
                         "pattern": ("seq",), "access": (256,),
                         "threads": (1,)},
                   per_thread=8 * KIB, progress=seen.append)
        assert len(seen) == 1


class TestLoadedLatency:
    def test_delay_reduces_bandwidth(self):
        busy = loaded_latency("optane", "read", threads=4,
                              delay_ns=0, per_thread=16 * KIB)
        idle = loaded_latency("optane", "read", threads=4,
                              delay_ns=2000, per_thread=16 * KIB)
        assert idle.bandwidth_gbps < busy.bandwidth_gbps

    def test_load_raises_latency(self):
        busy = loaded_latency("optane", "read", threads=16,
                              delay_ns=0, per_thread=16 * KIB)
        idle = loaded_latency("optane", "read", threads=16,
                              delay_ns=2000, per_thread=16 * KIB)
        assert busy.latency_ns > idle.latency_ns

    def test_random_latency_not_polluted_by_cache_hits(self):
        idle = loaded_latency("optane", "read", threads=2,
                              pattern="rand", delay_ns=2000,
                              per_thread=16 * KIB)
        assert idle.latency_ns > 250          # all true device reads

    def test_store_latency_recorded(self):
        point = loaded_latency("optane", "ntstore", threads=4,
                               delay_ns=500, per_thread=16 * KIB)
        assert point.latency_ns > 0
