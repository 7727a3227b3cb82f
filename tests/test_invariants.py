"""Cross-cutting property tests: simulator-wide invariants.

These pin down the contracts everything else relies on: persistence is
a subset of what was written, counters are consistent, EWR is bounded
by physics, and simulated time never runs backwards.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import CACHELINE, XPLINE
from repro.sim import Machine

OPS = st.lists(
    st.tuples(
        st.sampled_from(["ntstore", "store", "clwb-after-store", "load"]),
        st.integers(0, 255),              # line index
    ),
    min_size=1, max_size=60,
)


@given(OPS, st.booleans())
@settings(max_examples=30, deadline=None)
def test_persistent_view_is_subset_of_writes(ops, fence_at_end):
    """After a crash, every persistent byte was explicitly written."""
    m = Machine()
    ns = m.namespace("optane")
    t = m.thread()
    written = set()
    for op, line_idx in ops:
        addr = line_idx * CACHELINE
        payload = bytes([line_idx or 1]) * CACHELINE
        if op == "load":
            ns.load(t, addr)
        elif op == "ntstore":
            ns.ntstore(t, addr, CACHELINE, data=payload)
            written.add(line_idx)
        elif op == "store":
            ns.store(t, addr, CACHELINE, data=payload)
            written.add(line_idx)
        else:
            ns.store(t, addr, CACHELINE, data=payload)
            ns.clwb(t, addr)
            written.add(line_idx)
    if fence_at_end:
        t.sfence()
    m.power_fail()
    for line_idx in range(256):
        data = ns.read_persistent(line_idx * CACHELINE, CACHELINE)
        if any(data):
            assert line_idx in written
            assert data == bytes([line_idx or 1]) * CACHELINE, \
                "torn line %d" % line_idx


@given(OPS)
@settings(max_examples=30, deadline=None)
def test_fenced_ntstores_always_survive(ops):
    """ntstore + sfence is the strongest persistence contract."""
    m = Machine()
    ns = m.namespace("optane")
    t = m.thread()
    fenced = {}
    for op, line_idx in ops:
        addr = line_idx * CACHELINE
        payload = bytes([(line_idx % 250) + 1]) * CACHELINE
        if op == "ntstore":
            ns.ntstore(t, addr, CACHELINE, data=payload)
            t.sfence()
            fenced[line_idx] = payload
        elif op == "store":
            # Unfenced temporal store to a *different* region must not
            # disturb the fenced contract.
            ns.store(t, (512 + line_idx) * CACHELINE, CACHELINE,
                     data=payload)
    m.power_fail()
    for line_idx, payload in fenced.items():
        assert ns.read_persistent(line_idx * CACHELINE,
                                  CACHELINE) == payload


@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from([64, 256]))
@settings(max_examples=15, deadline=None)
def test_time_monotonic_and_counters_consistent(nthreads, xplines, access):
    """Clocks never go backwards; media writes imply iMC writes."""
    from repro.sim import run_workloads

    m = Machine()
    ns = m.namespace("optane-ni")
    ts = m.threads(nthreads)

    def worker(t):
        rng = random.Random(t.tid)
        last = t.now
        for i in range(xplines * 4):
            addr = (t.tid * 64 + rng.randrange(xplines * 4)) * access
            ns.ntstore(t, addr)
            assert t.now >= last
            last = t.now
            yield
        t.sfence()
        assert t.now >= last

    run_workloads([(t, worker(t)) for t in ts])
    for dimm in ns.dimms:
        dimm.drain(0.0)
        c = dimm.counters
        assert c.media_write_bytes % XPLINE == 0
        assert c.imc_write_bytes % CACHELINE == 0
        if c.imc_write_bytes:
            assert c.media_write_bytes > 0


@given(st.sampled_from([64, 128, 256, 512]), st.integers(1, 4))
@settings(max_examples=12, deadline=None)
def test_ewr_bounded_by_physics(access, threads):
    """EWR can never exceed XPLine/accessed-bytes combining limits."""
    from repro._units import KIB
    from repro.lattester.ewr import ewr_experiment

    p = ewr_experiment(access=access, threads=threads, pattern="rand",
                       per_thread=32 * KIB)
    # At best every media write carries 256 fresh bytes: EWR <= ~1
    # (mild overshoot possible only from still-buffered lines, which
    # the experiment drains).
    assert 0.0 < p.ewr <= 1.05


def test_crash_idempotence():
    """Two consecutive crashes leave the same persistent state."""
    m = Machine()
    ns = m.namespace("optane")
    t = m.thread()
    ns.pwrite(t, 0, b"stable", instr="ntstore")
    m.power_fail()
    first = ns.read_persistent(0, 6)
    m.power_fail()
    assert ns.read_persistent(0, 6) == first == b"stable"


def test_volatile_resets_to_persistent_after_crash():
    m = Machine()
    ns = m.namespace("optane")
    t = m.thread()
    ns.pwrite(t, 0, b"KEEP", instr="clwb")
    ns.store(t, 64, 64, data=b"DROP" * 16)
    m.power_fail()
    assert ns.read_volatile(0, 4) == b"KEEP"
    assert ns.read_volatile(64, 4) == b"\x00" * 4
