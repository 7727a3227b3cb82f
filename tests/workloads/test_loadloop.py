"""Closed/open loops, report shape, determinism, and the knee."""

import json

import pytest

from repro.chaos_serve import chaos_serve_cell
from repro.obs import ObsRecorder
from repro.sim.platform import Machine
from repro.workloads import closed_loop, get_workload, make_service, open_loop
from repro.workloads.loadloop import LATENCY_FRACTIONS

QUICK = dict(records=96, ops=240)


def run_closed(substrate, workload="ycsb-a", seed=0, clients=2):
    spec = get_workload(workload)
    machine = Machine()
    service = make_service(substrate, machine, spec, seed=seed,
                           **QUICK)
    return closed_loop(machine, service, spec, clients=clients,
                       seed=seed, **QUICK)


def run_open(substrate, rate_kops, workload="ycsb-a", seed=0,
             workers=2):
    spec = get_workload(workload)
    machine = Machine()
    service = make_service(substrate, machine, spec, seed=seed,
                           **QUICK)
    return open_loop(machine, service, spec, rate_kops=rate_kops,
                     workers=workers, seed=seed, **QUICK)


class TestClosedLoop:
    def test_report_shape(self):
        report = run_closed("lsm")
        assert report["mode"] == "closed"
        assert report["ops"] == QUICK["ops"]
        assert report["clients"] == 2
        assert sum(report["ops_by_type"].values()) == QUICK["ops"]
        lat = report["latency_us"]
        assert lat["p50"] <= lat["p99"] <= lat["p999"] <= lat["max"]
        assert report["achieved_kops"] > 0
        json.dumps(report, sort_keys=True, allow_nan=False)

    def test_deterministic_across_runs(self):
        assert run_closed("pmemkv") == run_closed("pmemkv")

    def test_seed_changes_the_traffic(self):
        assert run_closed("lsm", seed=0) != run_closed("lsm", seed=1)

    def test_more_clients_more_throughput(self):
        one = run_closed("pmemkv", clients=1)
        four = run_closed("pmemkv", clients=4)
        assert four["achieved_kops"] > one["achieved_kops"]


class TestOpenLoop:
    def test_report_shape(self):
        report = run_open("lsm", rate_kops=500.0)
        assert report["mode"] == "open"
        assert report["offered_kops"] == 500.0
        assert report["workers"] == 2
        assert sum(report["ops_by_type"].values()) == QUICK["ops"]
        json.dumps(report, sort_keys=True, allow_nan=False)

    def test_deterministic_across_runs(self):
        a = run_open("pmemkv", rate_kops=1000.0)
        assert a == run_open("pmemkv", rate_kops=1000.0)

    def test_light_load_latency_is_service_time(self):
        closed = run_closed("lsm")
        light = run_open("lsm", rate_kops=0.1 * closed["achieved_kops"])
        # At 10% load there is almost no queueing: open-loop p50 sits
        # near the closed-loop p50.
        assert light["latency_us"]["p50"] < \
            5 * max(closed["latency_us"]["p50"], 0.1)

    @pytest.mark.parametrize("substrate", ("lsm", "pmemkv"))
    def test_p99_diverges_past_the_knee(self, substrate):
        # The acceptance criterion: open-loop p99 diverges past the
        # closed-loop max-throughput point while achieved throughput
        # stays pinned at the ceiling.
        closed = run_closed(substrate)
        ceiling = closed["achieved_kops"]
        below = run_open(substrate, rate_kops=round(0.5 * ceiling, 3))
        above = run_open(substrate, rate_kops=round(1.5 * ceiling, 3))
        assert above["latency_us"]["p99"] > \
            5 * below["latency_us"]["p99"]
        # Offered 1.5x, achieved ~1x: the substrate saturated.
        assert above["achieved_kops"] < 1.2 * ceiling

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            run_open("lsm", rate_kops=0.0)


class TestTelemetry:
    def test_serve_spans_reach_the_tracer(self):
        from repro.telemetry import recording
        from repro.telemetry.events import CAT_SERVE
        spec = get_workload("ycsb-a")
        with recording() as tracer:
            machine = Machine()
            service = make_service("lsm", machine, spec, seed=0,
                                   **QUICK)
            closed_loop(machine, service, spec, clients=2, seed=0,
                        **QUICK)
        serve_events = [ev for ev in tracer.events()
                        if ev.cat == CAT_SERVE]
        assert len(serve_events) == QUICK["ops"]
        tracks = {ev.track for ev in serve_events}
        assert len(tracks) == 2                       # one per client
        names = {ev.name for ev in serve_events}
        assert names <= {"read", "update", "insert", "scan", "rmw",
                         "delete"}


class TestReportIsTheRecordersSummary:
    """A serving report reads the per-request recorder it fills."""

    @pytest.fixture
    def ingested(self, monkeypatch):
        """Every per-request latency a recorder ingests, in order."""
        seen = []
        ingest = ObsRecorder.ingest

        def spy(self, latencies_ns, end_ts_ns):
            seen.extend(latencies_ns)
            ingest(self, latencies_ns, end_ts_ns)

        monkeypatch.setattr(ObsRecorder, "ingest", spy)
        return seen

    @staticmethod
    def serve(mode):
        """``(report, recorder)`` of one plain or chaos serving call."""
        if mode == "chaos-closed":
            record = chaos_serve_cell({
                "workload": "ycsb-a", "substrate": "lsm",
                "scenario": "power-fail", "mode": "closed",
                "naive": False, "seed": 0, "records": 128, "ops": 320,
                "clients": 2})
            return record["served"], ObsRecorder.from_dict(record["obs"])
        spec = get_workload("ycsb-a")
        machine = Machine()
        service = make_service("lsm", machine, spec, seed=0, **QUICK)
        obs = ObsRecorder("lsm", workload=spec.name)
        if mode == "closed":
            report = closed_loop(machine, service, spec, clients=2,
                                 seed=0, obs=obs, **QUICK)
        else:
            report = open_loop(machine, service, spec, rate_kops=2000.0,
                               workers=2, seed=0, obs=obs, **QUICK)
        return report, obs

    @pytest.mark.parametrize("mode", ("closed", "open", "chaos-closed"))
    def test_report_summarises_the_recorder(self, mode, ingested):
        report, obs = self.serve(mode)
        lat = report["latency_us"]
        percentiles = obs.latency_us(LATENCY_FRACTIONS)
        assert {k: lat[k] for k in percentiles} == percentiles
        assert report["ops"] == obs.hist.total() == len(ingested) > 0
        # Mean and max stay exact over the per-request latencies.
        assert lat["mean"] == round(sum(ingested) / len(ingested) / 1e3, 3)
        assert lat["max"] == round(max(ingested) / 1e3, 3)

    def test_closed_loop_threads_collect_no_per_line_latencies(self):
        spec = get_workload("ycsb-a")
        machine = Machine()
        service = make_service("lsm", machine, spec, seed=0, **QUICK)
        made = []
        threads = machine.threads

        def spy(count, socket=0):
            made.extend(threads(count, socket))
            return made[-count:]

        machine.threads = spy
        closed_loop(machine, service, spec, clients=2, seed=0, **QUICK)
        assert len(made) == 2
        assert all(t.latencies is None for t in made)

    @pytest.mark.parametrize("loop", (closed_loop, open_loop))
    def test_a_recorder_holding_requests_is_refused(self, loop):
        spec = get_workload("ycsb-a")
        machine = Machine()
        service = make_service("lsm", machine, spec, seed=0, **QUICK)
        obs = ObsRecorder("lsm", workload=spec.name)
        obs.ingest([100.0], [100.0])
        extra = {} if loop is closed_loop else {"rate_kops": 500.0}
        with pytest.raises(ValueError, match="already holds"):
            loop(machine, service, spec, seed=0, obs=obs, **QUICK, **extra)
