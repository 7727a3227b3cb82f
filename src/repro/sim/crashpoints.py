"""Systematic crash-point injection.

Because the simulator is fully deterministic, we can test crash
consistency exhaustively: run a workload once to count how many times
data reaches the ADR domain, then re-run it once per persist boundary,
killing the power exactly there, recovering, and checking invariants.
This catches torn-update bugs that a single random crash test would
miss.

Usage::

    def workload(machine):
        db = LSMStore(machine, mode="wal-flex")
        t = machine.thread()
        db.put(t, b"k", b"v")

    def check(machine, crashed_at):
        db = LSMStore.recover(machine, mode="wal-flex")
        ...assert invariants...

    exhaustive_crash_test(workload, check)
"""

from repro.sim.platform import Machine


class SimulatedPowerFailure(Exception):
    """Raised inside a workload when the injected crash point hits."""


class CrashInjector:
    """Counts ADR insertions and raises at a chosen one.

    Installing the injector *chains* any pre-existing persist hook
    rather than clobbering it, so fault hooks (or nested injectors)
    keep running; ``uninstall()`` restores the previous hook.
    """

    def __init__(self, machine, crash_at=None):
        self.machine = machine
        self.crash_at = crash_at
        self.persists = 0
        self._prev_hook = machine._persist_hook
        # Keep the exact bound-method object we install: each attribute
        # access creates a fresh one, so uninstall() needs this handle
        # for its identity check.
        self._hook = self._on_persist
        machine._persist_hook = self._hook

    def _on_persist(self):
        if self._prev_hook is not None:
            self._prev_hook()
        self.persists += 1
        if self.crash_at is not None and self.persists >= self.crash_at:
            raise SimulatedPowerFailure(
                "power failed at persist #%d" % self.persists)

    def uninstall(self):
        """Restore the hook that was installed before this injector."""
        if self.machine._persist_hook is self._hook:
            self.machine._persist_hook = self._prev_hook


def count_persists(workload):
    """Dry-run the workload; returns how many persist points it has."""
    machine = Machine()
    injector = CrashInjector(machine)
    workload(machine)
    return injector.persists


def exhaustive_crash_test(workload, check, stride=1):
    """Crash at every ``stride``-th persist boundary and verify recovery.

    ``workload(machine)`` runs the operation sequence; ``check(machine,
    crashed_at)`` is called after the simulated power failure and must
    assert the recovery invariants.  Returns the number of crash points
    exercised.
    """
    exercised = 0
    for crash_at in range(1, count_persists(workload) + 1, stride):
        machine = Machine()
        injector = CrashInjector(machine, crash_at=crash_at)
        try:
            workload(machine)
        except SimulatedPowerFailure:
            pass
        injector.uninstall()                 # recovery runs normally
        machine.power_fail()
        check(machine, crash_at)
        exercised += 1
    return exercised
