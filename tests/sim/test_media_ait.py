"""Unit tests for the media model, AIT wear-levelling and counters."""

import pytest

from repro._units import US, XPLINE
from repro.sim.ait import AddressIndirectionTable
from repro.sim.config import AITConfig, MediaConfig
from repro.sim.counters import (
    DimmCounters, aggregate, effective_write_ratio, write_amplification,
)
from repro.sim.media import XPMedia


def make_media(banks=6, ait=None):
    cfg = MediaConfig(banks=banks)
    return XPMedia(cfg, ait or AITConfig(enabled=False), DimmCounters())


class TestMedia:
    def test_read_line_latency(self):
        media = make_media()
        bank_free, ready = media.read_line(0.0, 0)
        assert bank_free == 235.0
        assert ready == 305.0

    def test_write_line_occupancy(self):
        media = make_media()
        end = media.write_line(0.0, 0)
        assert end == 670.0

    def test_rmw_combines_read_and_write(self):
        media = make_media()
        end = media.write_line(0.0, 0, rmw=True)
        assert end == 905.0

    def test_bank_saturation(self):
        media = make_media(banks=2)
        ends = [media.write_line(0.0, i) for i in range(4)]
        assert ends == [670.0, 670.0, 1340.0, 1340.0]

    def test_counters(self):
        media = make_media()
        media.read_line(0.0, 0)
        media.write_line(0.0, 1)
        media.write_line(0.0, 2, rmw=True)
        assert media.counters.media_read_bytes == 2 * XPLINE
        assert media.counters.media_write_bytes == 2 * XPLINE

    def test_power_budget_scales_occupancy(self):
        cfg = MediaConfig(power_budget=0.5)
        media = XPMedia(cfg, AITConfig(enabled=False), DimmCounters())
        end = media.write_line(0.0, 0)
        assert end == 1340.0

    def test_invalid_power_budget(self):
        cfg = MediaConfig(power_budget=0.0)
        media = XPMedia(cfg, AITConfig(enabled=False), DimmCounters())
        with pytest.raises(ValueError):
            media.write_line(0.0, 0)


class TestAIT:
    def test_disabled_never_stalls(self):
        ait = AddressIndirectionTable(AITConfig(enabled=False))
        assert all(ait.record_write(0) == 0.0 for _ in range(10000))

    def test_migration_every_n_media_writes(self):
        cfg = AITConfig(migrate_every=100, migrate_jitter=1,
                        thermal_every=10**9)
        ait = AddressIndirectionTable(cfg)
        stalls = [ait.record_write(i) for i in range(500)]
        assert sum(1 for s in stalls if s > 0) == 5
        assert ait.migrations == 5

    def test_migration_stall_magnitude(self):
        cfg = AITConfig(migrate_every=10, migrate_jitter=1,
                        thermal_every=10**9, migrate_stall_ns=50 * US)
        ait = AddressIndirectionTable(cfg)
        stalls = [ait.record_write(i) for i in range(10)]
        assert max(stalls) == 50 * US

    def test_thermal_stall_for_hammered_line(self):
        cfg = AITConfig(migrate_every=10**9, thermal_every=50)
        ait = AddressIndirectionTable(cfg)
        stalls = [ait.record_write(7) for _ in range(200)]
        assert sum(1 for s in stalls if s > 0) == 4
        assert ait.thermal_stalls == 4

    def test_thermal_needs_concentration(self):
        cfg = AITConfig(migrate_every=10**9, thermal_every=50)
        ait = AddressIndirectionTable(cfg)
        for i in range(200):
            ait.record_write(i)       # spread over 200 lines
        assert ait.thermal_stalls == 0

    def test_hot_count_restarts_at_each_thermal_stall(self):
        cfg = AITConfig(migrate_every=10**9, thermal_every=4)
        ait = AddressIndirectionTable(cfg)
        counts = []
        for _ in range(6):
            ait.record_write(3)
            counts.append(ait.hot_of(3))
        assert counts == [1, 2, 3, 0, 1, 2]
        assert ait.hot_of(4) == 0

    def test_phase_staggers_migrations(self):
        cfg = AITConfig(migrate_every=100, migrate_jitter=64,
                        thermal_every=10**9)
        a = AddressIndirectionTable(cfg, phase=0)
        b = AddressIndirectionTable(cfg, phase=33)
        first_a = next(i for i in range(300) if a.record_write(i) > 0)
        first_b = next(i for i in range(300) if b.record_write(i) > 0)
        assert first_a != first_b


class TestCounters:
    def test_snapshot_delta(self):
        c = DimmCounters()
        c.imc_write_bytes += 100
        snap = c.snapshot()
        c.imc_write_bytes += 50
        c.media_write_bytes += 200
        d = c.delta(snap)
        assert d.imc_write_bytes == 50
        assert d.media_write_bytes == 200

    def test_ewr(self):
        c = DimmCounters()
        c.imc_write_bytes = 64
        c.media_write_bytes = 256
        assert effective_write_ratio(c.snapshot()) == 0.25

    def test_ewr_nothing_written(self):
        c = DimmCounters()
        assert effective_write_ratio(c.snapshot()) == 1.0
        c.imc_write_bytes = 64
        assert effective_write_ratio(c.snapshot()) == float("inf")

    def test_write_amplification_inverse(self):
        c = DimmCounters()
        c.imc_write_bytes = 100
        c.media_write_bytes = 400
        snap = c.snapshot()
        assert write_amplification(snap) == 4.0
        assert effective_write_ratio(snap) == 0.25

    def test_aggregate(self):
        c1, c2 = DimmCounters(), DimmCounters()
        c1.imc_write_bytes = 10
        c2.imc_write_bytes = 20
        total = aggregate([c1.snapshot(), c2.snapshot()])
        assert total.imc_write_bytes == 30
