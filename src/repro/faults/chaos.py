"""The chaos matrix: crash point x tear pattern x poison site.

Every workload in :data:`WORKLOADS` is a small end-to-end run of one
stack layer (LSM in each durability mode, NOVA-datalog, PMDK
transactions).  The matrix re-runs each workload once per fault
combination — power failure at a chosen persist boundary, a torn-write
pattern for the final XPLine, and an optionally poisoned persist site —
then recovers and checks the layer's *degradation invariants*:

1. recovery never raises;
2. every value read back is correct or missing, never wrong;
3. missing values form a suffix of the operation order (crash
   semantics) unless the recovery report admits media loss;
4. data loss is always *reported* — a gap without ``report.lost > 0``
   is a violation.

Cases fan out through :func:`repro.harness.run_matrix` (uncached, with
the harness' per-case timeout), and the run emits a normalized manifest
whose bytes depend only on (matrix, seed) — timings are zeroed — so two
runs with the same arguments produce identical files (``repro compare``
friendly).

``naive=True`` replays the kvstore WALs without CRC verification: the
matrix is expected to *find* wrong-value violations then, demonstrating
that it catches exactly the torn-tail corruption the CRCs prevent.
"""

from repro.faults.model import MediaError, count_persists, crash_once
from repro.faults.report import RecoveryReport
from repro.harness.runner import run_matrix

#: Tear patterns: ``none`` disables tearing, ``prefix-N`` keeps exactly
#: N 64 B chunks of the final XPLine, ``seeded`` derives the kept
#: prefix from the injector seed per torn line.
TEAR_PATTERNS = ("none", "prefix-0", "prefix-1", "prefix-2", "seeded")
QUICK_TEARS = ("none", "prefix-1", "seeded")

POISON_SITES = (None, 0, 1, 2)
QUICK_POISONS = (None, 0)


def _parse_tear(pattern):
    """Map a tear-pattern name to FaultController(tear=, tear_keep=)."""
    if pattern == "none":
        return False, None
    if pattern == "seeded":
        return True, None
    if pattern.startswith("prefix-"):
        return True, int(pattern[len("prefix-"):])
    raise ValueError("unknown tear pattern %r" % pattern)


# -- workloads ---------------------------------------------------------------
#
# Each workload is (run, check).  ``run(machine, payload)`` performs the
# operations; ``check(machine, payload)`` recovers and returns
# ``(violations, RecoveryReport)``.  Values deliberately exceed 64 B so
# records span multiple tear chunks — a torn record is then *partially*
# old bytes, which only a CRC can reject.

_LSM_FLUSH_AT = 4
_LSM_KEYS = 6


def _lsm_pairs():
    return [(b"key%02d" % i, bytes([0x41 + i]) * 96)
            for i in range(_LSM_KEYS)]


def _lsm_run(machine, payload):
    from repro.kvstore.lsm import LSMStore

    store = LSMStore(machine, mode=payload["mode"], seed=1)
    thread = machine.thread()
    for i, (key, value) in enumerate(_lsm_pairs()):
        if i == _LSM_FLUSH_AT:
            store.flush(thread)       # exercise SSTable + manifest sites
        store.put(thread, key, value, sync=True)


def _lsm_check(machine, payload):
    from repro.kvstore.lsm import LSMStore

    store = LSMStore.recover(machine, mode=payload["mode"], seed=1,
                             naive=payload.get("naive", False))
    report = store.recovery_report
    thread = machine.thread()
    violations = []
    present = []
    missing = []
    for key, value in _lsm_pairs():
        got = store.get(thread, key)
        if got is None:
            missing.append(key)
        elif got != value:
            violations.append("wrong value for %r: %r..."
                              % (key, bytes(got[:8])))
        else:
            present.append(key)
    keys = [k for k, _ in _lsm_pairs()]
    if not report.data_loss and present != keys[:len(present)]:
        violations.append("non-suffix hole without reported loss: "
                          "missing %r" % (missing,))
    if missing and payload["crash_at"] is None \
            and payload["tear"] == "none" and not report.data_loss:
        violations.append("clean shutdown lost %r" % (missing,))
    return violations, report


def _make_lsm(mode):
    def run(machine, payload):
        payload = dict(payload, mode=mode)
        _lsm_run(machine, payload)

    def check(machine, payload):
        return _lsm_check(machine, dict(payload, mode=mode))

    return run, check


_NOVA_WRITES = 6
_NOVA_SPAN = 256


def _nova_run(machine, payload):
    from repro.fs.nova import NovaFS

    fs = NovaFS(machine, datalog=True)
    thread = machine.thread()
    inode = fs.create(thread)
    for i in range(_NOVA_WRITES):
        fs.write(thread, inode, i * _NOVA_SPAN,
                 bytes([0x61 + i]) * _NOVA_SPAN, sync=True)


def _nova_check(machine, payload):
    from repro.fs.nova import NovaFS

    fs = NovaFS.mount(machine, datalog=True)
    report = fs.recovery_report
    violations = []
    if 1 not in fs._files:
        # The whole file vanished: legal after a crash (the inode slot
        # may never have committed) or when the report owns the damage.
        if payload["crash_at"] is None and payload["tear"] == "none" \
                and not (report.truncated or report.lost):
            violations.append("file missing after clean shutdown "
                              "without reported damage")
        return violations, report
    total = _NOVA_WRITES * _NOVA_SPAN
    data = fs.read_persistent_file(1, 0, total).ljust(total, b"\x00")
    present = []
    missing = []
    for i in range(_NOVA_WRITES):
        chunk = data[i * _NOVA_SPAN:(i + 1) * _NOVA_SPAN]
        expected = bytes([0x61 + i]) * _NOVA_SPAN
        if chunk == expected:
            present.append(i)
        elif not any(chunk):
            missing.append(i)
        else:
            violations.append("write %d recovered corrupt" % i)
    if not report.data_loss and present != list(range(len(present))):
        violations.append("non-suffix hole without reported loss: "
                          "missing %r" % (missing,))
    return violations, report


def _pmdk_run(machine, payload):
    from repro.pmdk.pool import PmemPool
    from repro.pmdk.tx import Transaction

    thread = machine.thread()
    pool = PmemPool.create(machine, thread)
    a = pool.heap.alloc(64) - pool.base
    b = pool.heap.alloc(64) - pool.base
    pool.write(thread, a, b"A" * 64, instr="ntstore")
    pool.write(thread, b, b"B" * 64, instr="ntstore")
    with Transaction(pool, thread) as tx:
        tx.store(a, b"X" * 64)
        tx.store(b, b"Y" * 64)


def _pmdk_check(machine, payload):
    from repro.pmdk.pool import PmemPool
    from repro.pmdk.tx import recover_report

    report = RecoveryReport(component="pmdk-tx")
    try:
        pool = PmemPool.open(machine)
    except ValueError:
        return [], report             # crashed before the pool header
    except MediaError:
        report.lost += 1
        report.note("pool header poisoned: pool unopenable")
        return [], report
    thread = machine.thread()
    restored, report = recover_report(pool, thread)
    a = pool.heap.alloc(64) - pool.base - 128
    b = a + 64
    try:
        va = pool.read_persistent(a, 64)
        vb = pool.read_persistent(b, 64)
    except MediaError:
        report.lost += 1
        report.note("object poisoned: state unverifiable")
        return [], report
    violations = []
    states_a = (b"\x00" * 64, b"A" * 64, b"X" * 64)
    states_b = (b"\x00" * 64, b"B" * 64, b"Y" * 64)
    if va not in states_a or vb not in states_b:
        violations.append("object bytes corrupt: %r/%r"
                          % (va[:2], vb[:2]))
    elif va == b"X" * 64 or vb == b"Y" * 64:
        committed = va == b"X" * 64 and vb == b"Y" * 64
        rolled = va == b"A" * 64 and vb == b"B" * 64
        if not (committed or rolled) and not report.data_loss:
            violations.append("mixed tx state without reported loss: "
                              "%r/%r" % (va[:1], vb[:1]))
    return violations, report


WORKLOADS = {
    "lsm-flex": _make_lsm("wal-flex"),
    "lsm-posix": _make_lsm("wal-posix"),
    "lsm-pmem": _make_lsm("persistent-memtable"),
    "nova": (_nova_run, _nova_check),
    "pmdk-tx": (_pmdk_run, _pmdk_check),
}


# -- one case ----------------------------------------------------------------

def _run_case(payload):
    """Run one (workload, crash, tear, poison) cell; module-level so the
    parallel executor can pickle it.  Traced through the harness, the
    case's Chrome trace shows its fault instants on the ``faults``
    track."""
    run, check = WORKLOADS[payload["workload"]]
    tear, keep = _parse_tear(payload["tear"])
    machine, controller, crashed = crash_once(
        lambda machine: run(machine, payload), payload["crash_at"],
        seed=payload["seed"], tear=tear, tear_keep=keep)
    if payload.get("poison_site") is not None:
        controller.poison_site(payload["poison_site"])
    try:
        violations, report = check(machine, payload)
    except Exception as exc:
        violations = ["recovery raised %s: %s" % (type(exc).__name__, exc)]
        report = None
    return {
        "workload": payload["workload"],
        "crash_at": payload["crash_at"],
        "tear": payload["tear"],
        "poison_site": payload.get("poison_site"),
        "naive": bool(payload.get("naive", False)),
        "crashed": crashed,
        "torn_chunks": controller.torn_chunks,
        "violations": violations,
        "report": report.to_dict() if report is not None else None,
    }


# -- the matrix --------------------------------------------------------------

def build_matrix(quick=False, seed=0, naive=False, workloads=None):
    """Enumerate the payloads of one chaos sweep, deterministically."""
    names = sorted(workloads) if workloads else sorted(WORKLOADS)
    tears = QUICK_TEARS if quick else TEAR_PATTERNS
    poisons = QUICK_POISONS if quick else POISON_SITES
    payloads = []
    for name in names:
        run, _ = WORKLOADS[name]
        total = count_persists(
            lambda machine: run(machine, {"crash_at": None,
                                          "tear": "none"}))
        if quick:
            points = [None] + sorted({1, max(1, total // 2), total})
        else:
            points = [None] + list(range(1, total + 1))
        for crash_at in points:
            for tear in tears:
                for poison in poisons:
                    payloads.append({
                        "workload": name,
                        "crash_at": crash_at,
                        "tear": tear,
                        "poison_site": poison,
                        "seed": seed,
                        "naive": naive,
                    })
    return payloads


def _case_trace_name(index, payload):
    """Deterministic per-case trace filename."""
    return "case-%04d-%s.trace.json" % (index, payload["workload"])


def _case_name(payload):
    return {k: payload[k] for k in ("workload", "crash_at", "tear",
                                    "poison_site")}


def run_chaos(quick=False, seed=0, jobs=None, naive=False, workloads=None,
              progress=None, trace_dir=None):
    """Run the chaos matrix; returns a
    :class:`~repro.harness.runner.SweepRun`.

    Cases are uncached on purpose (each takes milliseconds), so their
    manifest points carry ``key: null``.  The manifest is deterministic:
    same (matrix, seed, naive) -> byte-identical JSON, because every
    timing field is zeroed and the worker count (which cannot affect
    the results) is not recorded.  ``violations`` holds one
    ``{"violation": text, "cell": ...}`` per broken invariant.

    ``trace_dir`` records every case as a Chrome trace — fault
    injection points appear as instant events on the ``faults`` track —
    and annotates each manifest point with its artifact path.
    """
    return run_matrix(
        _run_case,
        build_matrix(quick=quick, seed=seed, naive=naive,
                     workloads=workloads),
        name="faults-quick" if quick else "faults",
        grid={
            "workloads": sorted(workloads) if workloads
            else sorted(WORKLOADS),
            "tears": list(QUICK_TEARS if quick else TEAR_PATTERNS),
            "poison_sites": list(QUICK_POISONS if quick
                                 else POISON_SITES),
            "seed": seed,
            "naive": naive,
        },
        cell=_case_name,
        findings={"violations": lambda rec: [{"violation": text}
                                             for text in rec["violations"]]},
        jobs=jobs, progress=progress, trace_dir=trace_dir,
        trace_name=_case_trace_name)
