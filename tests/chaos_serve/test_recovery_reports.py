"""``Service.recover()`` honesty across all four substrates.

Every substrate must come back from a power failure with a
:class:`~repro.faults.report.RecoveryReport` that counts what survived,
what was truncated, and what was lost — and recovery must never raise,
even over poisoned media.
"""

import pytest

from repro.faults.model import (
    FaultController, MediaError, SimulatedPowerFailure,
)
from repro.faults.report import RecoveryReport
from repro.sim.platform import Machine
from repro.workloads.generators import (
    get_workload, make_key, make_value,
)
from repro.workloads.loadloop import preload
from repro.workloads.service import SUBSTRATES, make_service

SPEC = get_workload("ycsb-a")
RECORDS = 48


def build(substrate, seed=0, tear=False, naive=False):
    machine = Machine()
    controller = FaultController(machine, seed=seed, tear=tear)
    service = make_service(substrate, machine, SPEC, RECORDS,
                           ops=64, seed=seed, naive=naive)
    preload(service, machine, SPEC, RECORDS, seed=seed)
    return machine, controller, service


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
class TestEverySubstrate:
    def test_clean_crash_returns_a_full_report(self, substrate):
        machine, _, service = build(substrate)
        machine.power_fail()
        recovered, report = service.recover()
        assert isinstance(report, RecoveryReport)
        assert report.recovered > 0
        assert report.lost == 0
        thread = machine.thread()
        assert recovered.get(thread, make_key(0)) == \
            make_value(SPEC, 0, 0)

    def test_mid_write_crash_recovers_with_report(self, substrate):
        machine, controller, service = build(substrate, tear=True)
        thread = machine.thread()
        controller.crash_at = controller.persists + 3
        try:
            service.put(thread, make_key(0), make_value(SPEC, 0, 1))
        except SimulatedPowerFailure:
            pass
        controller.crash_at = None
        machine.power_fail()
        recovered, report = service.recover()
        assert isinstance(report, RecoveryReport)
        # The interrupted write may be in or out, but never corrupt:
        # the read (if it succeeds) returns one of the two versions.
        try:
            observed = recovered.get(thread, make_key(0))
        except MediaError:
            observed = None
        if observed is not None:
            assert observed in (make_value(SPEC, 0, 0),
                                make_value(SPEC, 0, 1))

    def test_poisoned_media_never_raises_out_of_recover(self,
                                                        substrate):
        machine, controller, service = build(substrate)
        # Poison a spread of persist sites: wherever they land —
        # index, log, value — recovery must degrade, not die.
        for index in (3, 17, 91, 233, 1021):
            controller.poison_site(index)
        machine.power_fail()
        recovered, report = service.recover()
        assert isinstance(report, RecoveryReport)
        assert report.lost >= 0
        thread = machine.thread()
        survivors = 0
        for index in range(RECORDS):
            try:
                if recovered.get(thread, make_key(index)) is not None:
                    survivors += 1
            except MediaError:
                continue
        assert survivors + report.lost > 0


class TestLostKeyAttribution:
    def test_pmdk_names_keys_whose_values_were_poisoned(self):
        from repro._units import XPLINE
        from repro.workloads.service import PMDKService
        machine = Machine()
        controller = FaultController(machine)
        # 1 KiB values: slots span multiple XPLines, so one line can
        # die inside a value while the slot's header and key survive —
        # the case the report can attribute to a key.
        service = PMDKService(machine, records=8, value_size=1024)
        thread = machine.thread()
        for index in range(8):
            service.put(thread, make_key(index), b"v" * 1024)
        slot = service._slots[make_key(7)]
        value_off = service.pool.base + service._slot_off(slot) + \
            service._SLOT_HEADER.size + len(make_key(7))
        line = -(-value_off // XPLINE) * XPLINE   # first full line inside
        controller.poison(service.pool.ns, line, 1)
        machine.power_fail()
        recovered, report = service.recover()
        assert report.lost > 0
        assert make_key(7) in report.lost_keys
        assert recovered.get(thread, make_key(3)) == b"v" * 1024

    def test_lsm_counts_poisoned_wal_records_as_lost(self):
        machine, controller, service = build("lsm")
        lost_somewhere = False
        for index in (5, 25, 50, 100, 200):
            controller.poison_site(index)
        machine.power_fail()
        _, report = service.recover()
        lost_somewhere = report.lost > 0 or report.truncated > 0
        assert isinstance(report, RecoveryReport)
        assert lost_somewhere or report.recovered > 0
