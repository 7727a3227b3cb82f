"""The Service protocol: every substrate behind the same five ops."""

import pytest

from repro.sim.platform import Machine
from repro.workloads import get_workload, make_key, make_service, make_value
from repro.workloads.loadloop import preload

ALL_SUBSTRATES = ("lsm", "pmemkv", "nova", "pmdk")


def build(substrate, records=32, ops=64):
    spec = get_workload("ycsb-a")
    machine = Machine()
    service = make_service(substrate, machine, spec, records=records,
                           ops=ops, seed=0)
    return machine, service, spec


@pytest.mark.parametrize("substrate", ALL_SUBSTRATES)
class TestProtocol:
    def test_put_get_roundtrip(self, substrate):
        machine, service, spec = build(substrate)
        thread = machine.thread()
        value = make_value(spec, 3, 1)
        service.put(thread, make_key(3), value)
        assert service.get(thread, make_key(3)) == value
        assert service.get(thread, make_key(99)) is None

    def test_overwrite_returns_latest(self, substrate):
        machine, service, spec = build(substrate)
        thread = machine.thread()
        service.put(thread, make_key(7), make_value(spec, 7, 1))
        newer = make_value(spec, 7, 2)
        service.put(thread, make_key(7), newer)
        assert service.get(thread, make_key(7)) == newer

    def test_delete(self, substrate):
        machine, service, spec = build(substrate)
        thread = machine.thread()
        service.put(thread, make_key(5), make_value(spec, 5, 1))
        assert service.delete(thread, make_key(5)) is True
        assert service.get(thread, make_key(5)) is None
        assert service.delete(thread, make_key(5)) is False

    def test_scan_returns_ordered_pairs(self, substrate):
        machine, service, spec = build(substrate)
        thread = machine.thread()
        for index in range(10):
            service.put(thread, make_key(index),
                        make_value(spec, index, 1))
        pairs = service.scan(thread, make_key(4), 3)
        assert [key for key, _ in pairs] == [
            make_key(4), make_key(5), make_key(6)]
        assert pairs[0][1] == make_value(spec, 4, 1)

    def test_operations_advance_virtual_time(self, substrate):
        machine, service, spec = build(substrate)
        thread = machine.thread()
        before = thread.now
        service.put(thread, make_key(1), make_value(spec, 1, 1))
        service.get(thread, make_key(1))
        assert thread.now > before

    def test_stats_are_jsonable(self, substrate):
        import json
        machine, service, spec = build(substrate)
        thread = machine.thread()
        service.put(thread, make_key(1), make_value(spec, 1, 1))
        json.dumps(service.stats(), sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("substrate", ALL_SUBSTRATES)
class TestRecovery:
    def test_recover_after_power_fail(self, substrate):
        spec = get_workload("ycsb-a")
        machine = Machine()
        service = make_service(substrate, machine, spec, records=24,
                               ops=32, seed=0)
        preload(service, machine, spec, 24)
        thread = machine.thread()
        updated = make_value(spec, 3, 9)
        service.put(thread, make_key(3), updated)        # durable
        machine.power_fail()
        recovered, _report = service.recover()
        check = machine.thread()
        assert recovered.get(check, make_key(3)) == updated
        for index in range(24):
            assert recovered.get(check, make_key(index)) is not None

    def test_recovered_service_keeps_serving(self, substrate):
        spec = get_workload("ycsb-a")
        machine = Machine()
        service = make_service(substrate, machine, spec, records=8,
                               ops=32, seed=0)
        preload(service, machine, spec, 8)
        machine.power_fail()
        recovered, _ = service.recover()
        thread = machine.thread()
        value = make_value(spec, 2, 5)
        recovered.put(thread, make_key(2), value)
        assert recovered.get(thread, make_key(2)) == value


class TestMakeService:
    def test_unknown_substrate_lists_names(self):
        spec = get_workload("ycsb-a")
        with pytest.raises(KeyError, match="lsm"):
            make_service("nope", Machine(), spec, records=8)

    def test_insert_only_mix_fits_fixed_tables(self):
        # log-append writes `ops` fresh keys: cmap buckets and the
        # pmdk slot table must be sized for records + ops, not records.
        spec = get_workload("log-append")
        for substrate in ("pmemkv", "pmdk"):
            machine = Machine()
            service = make_service(substrate, machine, spec, records=8,
                                   ops=200, seed=0)
            thread = machine.thread()
            for index in range(8 + 200):
                service.put(thread, make_key(index),
                            make_value(spec, index, 1))


class TestNovaAdapter:
    """The NOVA adapter does work in proportion to the request."""

    @staticmethod
    def _two_read_get(service, thread, key):
        """The adapter's former get: a header read, then a value read."""
        from repro.workloads.generators import key_index
        if key_index(key) not in service._live:
            return None
        off = service._slot(key)
        raw = service.fs.read(thread, service.inode, off, 2)
        if len(raw) < 2:
            return None
        vlen = int.from_bytes(raw, "little")
        if vlen == 0:
            return None
        return service.fs.read(thread, service.inode, off + 2, vlen)

    def test_get_matches_the_two_read_version(self):
        machine, service, spec = build("nova")
        thread = machine.thread()
        value = make_value(spec, 3, 1)
        last = make_key(31)

        def check(*keys):
            for key in keys + (make_key(99),):        # + a missing key
                want = self._two_read_get(service, thread, key)
                assert service.get(thread, key) == want

        service.put(thread, make_key(3), value)
        service.put(thread, make_key(4), make_value(spec, 4, 1))
        check(make_key(3), make_key(4))
        assert service.get(thread, make_key(3)) == value
        service.put(thread, make_key(3), value[:7])    # shorter re-put
        check(make_key(3), make_key(4))
        assert service.get(thread, make_key(3)) == value[:7]
        service.delete(thread, make_key(3))
        check(make_key(3), make_key(4))
        assert service.get(thread, make_key(3)) is None
        service.put(thread, make_key(3), value)        # re-put
        check(make_key(3), make_key(4))
        # The last slot ends at EOF, short of its stride.
        service.put(thread, last, value[:5])
        assert service.fs.stat_size(service.inode) < 32 * service.stride
        check(last)
        assert service.get(thread, last) == value[:5]
        assert [k for k, _ in service.scan(thread, make_key(3), 5)] == [
            make_key(3), make_key(4), last]

    def test_get_is_one_read(self):
        # Twin machines with the same history: a get must advance its
        # thread exactly as one syscall, the slot's loads and the
        # per-extent merge charge do — a second read would add a second
        # syscall.
        from repro.fs.layout import PAGE
        from repro.fs.nova import SYSCALL_NS
        clocks = []
        for twin in range(2):
            machine, service, spec = build("nova")
            thread = machine.thread()
            for version in range(3):
                for index in range(32):
                    service.put(thread, make_key(index),
                                make_value(spec, index, version))
            if twin == 0:
                assert service.get(thread, make_key(9)) == \
                    make_value(spec, 9, 2)
            else:
                f = service.fs._files[service.inode]
                pgoff, in_off = divmod(9 * service.stride, PAGE)
                thread.sleep(SYSCALL_NS)
                service.fs._page_contents(thread, f, pgoff, in_off,
                                          service.stride)
                assert len(f.overlays[pgoff]) == 32
                thread.sleep(40.0 * len(f.overlays[pgoff]))
            clocks.append(thread.now)
        assert clocks[0] == clocks[1]

    def test_no_cleaner_cliff_past_512_pages(self):
        # A clean leaves one WriteEntry per page behind; the trigger
        # counts what lies beyond them, or a file of >= 512 pages would
        # clean on every write.
        spec = get_workload("ycsb-a")
        machine = Machine()
        records = 20000
        service = make_service("nova", machine, spec, records=records)
        preload(service, machine, spec, records)
        f = service.fs._files[service.inode]
        assert len(f.pages) + len(f.overlays) >= 625
        thread = machine.thread()
        heads = {f.log.head}
        for index in range(300):
            service.put(thread, make_key(index * 61 % records),
                        make_value(spec, index, 1))
            heads.add(f.log.head)
        assert len(heads) - 1 <= 1             # cleans over 300 puts
        service.fs.clean(thread, service.inode)
        assert f.log.length == len(f.pages) >= 625
