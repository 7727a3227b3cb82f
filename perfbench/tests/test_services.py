"""The benchmark-side services observe; they must not perturb."""

from repro.obs import ObsRecorder
from repro.workloads import closed_loop, get_workload, open_loop
from repro.workloads.service import Service

from perfbench.services import (
    NullService, SpanService, arrival_span_ns, expected_values, read_back,
    replay,
)
from perfbench.spans import request_ids
from perfbench.workloads import CounterProbe, build_service

RECORDS = 256
OPS = 1200


def serve(substrate, workload, wrap, loop=closed_loop, **extra):
    spec = get_workload(workload)
    machine, service, load_end = build_service(substrate, spec, RECORDS,
                                               OPS, seed=5)
    served = wrap(service)
    obs = ObsRecorder(substrate, workload=workload)
    probe = CounterProbe(machine)
    report = loop(machine, served, spec, records=RECORDS, ops=OPS,
                  seed=5, load_end=load_end, obs=obs, **extra)
    return report, obs, probe.delta(), machine, served, spec


def test_protocol_is_satisfied():
    for cls in (NullService, SpanService):
        assert issubclass(cls, Service)
        for method in ("get", "put", "scan", "delete", "recover", "stats"):
            assert getattr(cls, method) is not getattr(Service, method) \
                or method == "stats"
    null = NullService(op_ns=50.0)

    class Thread:
        now = 0.0
        tid = 0
    thread = Thread()
    assert null.get(thread, b"k") is None
    null.put(thread, b"k", b"v")
    assert null.scan(thread, b"k", 3) == []
    assert null.delete(thread, b"k") is False
    assert thread.now == 200.0
    assert isinstance(null.recover()[0], NullService)


def test_span_service_leaves_closed_loop_untouched():
    plain = serve("lsm", "ycsb-a", lambda s: s, clients=3)
    traced = serve("lsm", "ycsb-a", SpanService, clients=3)
    assert plain[0] == traced[0]                    # the whole report
    assert plain[1].to_dict() == traced[1].to_dict()  # the obs blob
    assert plain[2] == traced[2]                    # device counters
    calls = traced[4].calls
    assert len(calls) == OPS                        # one call per request
    assert all(c[3] >= c[2] and c[5] >= c[4] for c in calls)
    assert traced[4].stats() == plain[4].stats()


def test_span_service_leaves_open_loop_untouched():
    kwargs = dict(loop=open_loop, workers=2, rate_kops=500.0)
    plain = serve("pmemkv", "ycsb-c", lambda s: s, **kwargs)
    traced = serve("pmemkv", "ycsb-c", SpanService, **kwargs)
    assert plain[0] == traced[0]
    assert plain[1].to_dict() == traced[1].to_dict()
    assert plain[2] == traced[2]


def test_rmw_get_and_put_share_a_request_id():
    report, _, _, _, served, spec = serve("pmdk", "ycsb-f", SpanService,
                                          clients=2)
    ops = [[r.op for r in reqs] for reqs in replay(spec, RECORDS, 5, 2, OPS)]
    ids = request_ids(served.calls, ops)
    assert len(ids) == len(served.calls) \
        == OPS + report["ops_by_type"]["rmw"]
    by_id = {}
    for call, request in zip(served.calls, ids):
        by_id.setdefault(request, []).append(call[0])
    shapes = sorted(set(map(tuple, by_id.values())))
    assert shapes == [("get",), ("get", "put")]
    assert sum(1 for v in by_id.values() if len(v) == 2) \
        == report["ops_by_type"]["rmw"]
    assert len(by_id) == OPS


def test_read_back_model_accepts_the_truth_and_catches_a_stale_value():
    _, _, _, machine, service, spec = serve("lsm", "ycsb-a", lambda s: s,
                                            clients=3)
    model = expected_values(spec, RECORDS, replay(spec, RECORDS, 5, 3, OPS))
    assert read_back(service, machine, model) == []
    machine.power_fail()
    recovered, _ = service.recover()
    assert read_back(recovered, machine, model) == []
    written = next(i for i in sorted(model)
                   if model[i] != expected_values(spec, RECORDS, [])[i])
    model[written] = expected_values(spec, RECORDS, [])[written]
    assert read_back(recovered, machine, model) == [written]


def test_arrival_replay_matches_open_loop():
    report = serve("pmemkv", "ycsb-c", lambda s: s, loop=open_loop,
                   workers=2, rate_kops=500.0)[0]
    span = arrival_span_ns(5, 500.0, OPS)
    elapsed = report["sim_seconds"] * 1e9
    # The run ends when the last arrival completes: a little after it.
    assert span <= elapsed <= span + 20_000.0
