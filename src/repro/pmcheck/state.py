"""The persistency-order state machine.

``PmCheck`` observes every PM-bound store, flush, non-temporal store,
cache eviction, fence and power failure of one :class:`Machine` and
tracks each cache line through

    clean -> dirty -> pending (flushed / ntstored, in the WPQ)
                   -> durable (fence-ordered)

plus the side state *evicted* — a dirty line that left the cache on its
own.  An evicted line's bytes do reach media (the WPQ persists on
insert, ADR), but nothing *ordered* that write: software that relies on
it is durable by luck, which is exactly the class of bug the crash
matrix only catches when a sampled crash point happens to land in the
window.  The checker flags it every time.

Violation classes
-----------------

``unflushed-at-ack``
    An operation acked (see :meth:`op_begin`/:meth:`op_ack`) while a
    line it wrote was still dirty in cache (or only evicted) — a
    missing ``clwb``/``ntstore``.
``ack-before-fence``
    The flush was issued but no fence ordered it before the ack — a
    missing ``sfence``.
``fence-without-flush``
    An ``sfence`` that drained nothing while lines this thread stored
    since its last fence sit dirty in cache — the fence the programmer
    wrote orders nothing (clwb forgotten, fence kept).
``redundant-fence``
    An ``sfence`` with nothing pending and nothing dirty — pure cost
    (only exact because an empty ``sfence`` is a latency no-op in the
    engine; see ``ThreadCtx.sfence``).
``redundant-flush``
    Flushing a line that is clean, already pending or already durable —
    the perf bug the paper's eADR discussion warns about.
``unordered-dependent-writes``
    A :meth:`require_order` annotation (e.g. "WAL payload before commit
    record") whose *later* write became durable without — or in the
    same fence as — its *earlier* write.
``dirty-at-power-fail``
    Lines still dirty at :meth:`power_fail` that no in-flight operation
    excuses (skipped entirely when the machine models eADR, where the
    caches themselves are in the persistence domain).

Attribution: every violation carries the substrate call-site tag
(:func:`repro.pmcheck.sites.call_site`) and the virtual timestamp, is
deduplicated by ``(kind, site)`` with an occurrence count, and is
exported as a ``pmcheck`` telemetry instant when a tracer is installed.

Zero overhead when off: nothing here runs unless a checker is
installed — the sim hooks are a single ``machine.pmcheck is None`` test
inside the one body each memory instruction has, so checker-on runs
execute the same code and report the same simulated results as
checker-off runs.
"""

from contextlib import contextmanager

from repro._units import CACHELINE
from repro.pmcheck.sites import call_site
from repro.telemetry.events import CAT_PMCHECK

# Line states.  CLEAN is represented by an absent record.
CLEAN = 0
DIRTY = 1
PENDING = 2
DURABLE = 3
EVICTED = 4

_STATE_NAMES = {CLEAN: "clean", DIRTY: "dirty", PENDING: "pending",
                DURABLE: "durable", EVICTED: "evicted"}

V_UNFLUSHED_AT_ACK = "unflushed-at-ack"
V_ACK_BEFORE_FENCE = "ack-before-fence"
V_FENCE_WITHOUT_FLUSH = "fence-without-flush"
V_REDUNDANT_FENCE = "redundant-fence"
V_REDUNDANT_FLUSH = "redundant-flush"
V_UNORDERED = "unordered-dependent-writes"
V_DIRTY_AT_POWER_FAIL = "dirty-at-power-fail"

KINDS = (V_UNFLUSHED_AT_ACK, V_ACK_BEFORE_FENCE, V_FENCE_WITHOUT_FLUSH,
         V_REDUNDANT_FENCE, V_REDUNDANT_FLUSH, V_UNORDERED,
         V_DIRTY_AT_POWER_FAIL)

# Record layout (a list for in-place mutation):
_ST = 0      # line state
_EPOCH = 1   # bumped on every store/ntstore; stale WPQ entries don't durable it
_SITE = 2    # call site of the latest store (what an ack violation blames)
_TS = 3      # virtual time of the latest store
_SEQ = 4     # global fence sequence number that made the line durable


class PmCheck:
    """Durability-order checker for one machine.  See the module doc."""

    def __init__(self, machine):
        self.machine = machine
        self._lines = {}        # (ns_id, line) -> [state, epoch, site, ts, seq]
        self._pending = {}      # tid -> [((ns_id, line), epoch), ...]
        self._since_fence = {}  # tid -> set of keys cache-stored since a fence
        self._windows = {}      # tid -> [op label, set of keys written]
        self._rules = []        # open require_order annotations
        self._fence_seq = 0
        self._flagged = set()   # keys already blamed at an ack (dedup at crash)
        self._violations = []   # insertion-ordered, deduped by (kind, site)
        self._by_sig = {}

    # ------------------------------------------------------------------
    # install / uninstall

    def install(self):
        """Attach to the machine; the namespace hooks start firing."""
        if self.machine.pmcheck is not None:
            raise RuntimeError("a PmCheck is already installed on this machine")
        self.machine.pmcheck = self
        return self

    def uninstall(self):
        if self.machine.pmcheck is not self:
            raise RuntimeError("this PmCheck is not installed")
        self.machine.pmcheck = None
        return self

    # ------------------------------------------------------------------
    # sim hooks (called from namespace/engine/platform when installed)

    def on_store(self, thread, ns_id, line):
        """A cached store dirtied ``line``."""
        key = (ns_id, line)
        rec = self._lines.get(key)
        if rec is None:
            self._lines[key] = [DIRTY, 1, call_site(), thread.now, 0]
        else:
            rec[_ST] = DIRTY
            rec[_EPOCH] += 1
            rec[_SITE] = call_site()
            rec[_TS] = thread.now
        tid = thread.tid
        seen = self._since_fence.get(tid)
        if seen is None:
            seen = self._since_fence[tid] = set()
        seen.add(key)
        win = self._windows.get(tid)
        if win is not None:
            win[1].add(key)

    def on_ntstore(self, thread, ns_id, line):
        """A non-temporal store sent ``line`` straight to the WPQ."""
        key = (ns_id, line)
        rec = self._lines.get(key)
        if rec is None:
            rec = self._lines[key] = [PENDING, 1, call_site(), thread.now, 0]
        else:
            rec[_ST] = PENDING
            rec[_EPOCH] += 1
            rec[_SITE] = call_site()
            rec[_TS] = thread.now
        self._pending.setdefault(thread.tid, []).append((key, rec[_EPOCH]))
        win = self._windows.get(thread.tid)
        if win is not None:
            win[1].add(key)

    def on_flush(self, thread, ns_id, line):
        """A ``clwb``/``clflush``/``clflushopt`` targeted ``line``."""
        key = (ns_id, line)
        rec = self._lines.get(key)
        state = CLEAN if rec is None else rec[_ST]
        if state == DIRTY or state == EVICTED:
            # Flushing an evicted line is *not* redundant: the re-flush
            # gives the following fence something to order.
            rec[_ST] = PENDING
            self._pending.setdefault(thread.tid, []).append((key, rec[_EPOCH]))
        else:
            self._violation(
                V_REDUNDANT_FLUSH, key, thread.now, call_site(),
                "flush of a %s line costs issue slots and orders nothing"
                % _STATE_NAMES[state])

    def on_evict(self, ns_id, line):
        """The cache wrote back a dirty victim on its own."""
        rec = self._lines.get((ns_id, line))
        if rec is not None and rec[_ST] == DIRTY:
            rec[_ST] = EVICTED

    def on_sfence(self, thread):
        tid = thread.tid
        entries = self._pending.pop(tid, None)
        stored = self._since_fence.pop(tid, None)
        if entries:
            self._mark_durable(thread, entries)
            return
        # This fence drained nothing.  Either the flush is missing (the
        # stores this thread issued since its last fence are still
        # dirty) or the fence itself is pure cost.
        if stored:
            lines = self._lines
            dirty = [key for key in stored
                     if lines[key][_ST] in (DIRTY, EVICTED)]
            if dirty:
                self._violation(
                    V_FENCE_WITHOUT_FLUSH, min(dirty), thread.now, call_site(),
                    "sfence ordered nothing while %d stored line(s) sit "
                    "dirty in cache (missing clwb?)" % len(dirty))
                return
        self._violation(
            V_REDUNDANT_FENCE, None, thread.now, call_site(),
            "sfence with nothing flushed and nothing dirty — pure cost")

    def on_mfence(self, thread):
        """``mfence`` drains loads too; never flagged as redundant."""
        entries = self._pending.pop(thread.tid, None)
        self._since_fence.pop(thread.tid, None)
        if entries:
            self._mark_durable(thread, entries)

    def on_power_fail(self):
        """Audit-and-reset at a power failure.

        WPQ-pending and evicted lines made it to media (persistence on
        WPQ insert — ADR); dirty lines are lost.  Dirty lines inside an
        open (un-acked) operation window are legitimate in-flight state;
        dirty lines already blamed at an ack are not re-blamed here.
        Under eADR the caches are in the persistence domain and nothing
        is lost.  Either way, the new machine state after the failure is
        all-clean, so the checker resets.
        """
        if not self.machine.config.cache.eadr:
            excused = set(self._flagged)
            for win in self._windows.values():
                excused.update(win[1])
            now = max((t.now for t in self.machine._threads), default=0.0)
            for key in sorted(k for k, rec in self._lines.items()
                              if rec[_ST] == DIRTY and k not in excused):
                rec = self._lines[key]
                self._violation(
                    V_DIRTY_AT_POWER_FAIL, key, now, rec[_SITE],
                    "line stored at t=%.0fns was still dirty in cache at "
                    "power failure" % rec[_TS])
        self._lines.clear()
        self._pending.clear()
        self._since_fence.clear()
        self._windows.clear()
        del self._rules[:]
        self._flagged.clear()

    def _mark_durable(self, thread, entries):
        self._fence_seq += 1
        seq = self._fence_seq
        lines = self._lines
        for key, epoch in entries:
            rec = lines.get(key)
            # A WPQ entry only durables the *write it carried*: if the
            # line was re-dirtied since (epoch moved on), the new bytes
            # are not ordered by this fence.
            if rec is not None and rec[_EPOCH] == epoch and rec[_ST] == PENDING:
                rec[_ST] = DURABLE
                rec[_SEQ] = seq
        if self._rules:
            self._eval_rules(thread)

    # ------------------------------------------------------------------
    # ack boundaries

    def op_begin(self, thread, op):
        """Open an operation window: subsequent PM writes by this thread
        belong to ``op`` until :meth:`op_ack`.  Re-beginning (e.g. after
        a faulted request is retried) resets any stale window."""
        self._windows[thread.tid] = [op, set()]

    def op_ack(self, thread):
        """The operation acked: every line it wrote must be durable."""
        win = self._windows.pop(thread.tid, None)
        if win is None:
            return
        op, keys = win
        lines = self._lines
        for key in sorted(keys):
            rec = lines.get(key)
            state = CLEAN if rec is None else rec[_ST]
            if state == DIRTY:
                self._flagged.add(key)
                self._violation(
                    V_UNFLUSHED_AT_ACK, key, thread.now, rec[_SITE],
                    "%s acked with the line still dirty in cache "
                    "(missing clwb/ntstore)" % op)
            elif state == EVICTED:
                self._flagged.add(key)
                self._violation(
                    V_UNFLUSHED_AT_ACK, key, thread.now, rec[_SITE],
                    "%s acked; the line reached media only via a chance "
                    "cache eviction, never fence-ordered" % op)
            elif state == PENDING:
                self._violation(
                    V_ACK_BEFORE_FENCE, key, thread.now, rec[_SITE],
                    "%s acked with the flush issued but not fenced "
                    "(missing sfence)" % op)

    # ------------------------------------------------------------------
    # ordering annotations

    def require_order(self, earlier, later, site=None, note=""):
        """Declare "``earlier`` must be durable strictly before ``later``".

        Both arguments are iterables of ``(ns, addr, size)`` byte ranges
        (``ns`` a namespace object).  Lines the two sets share — e.g. a
        slot header in the same cache line as the start of its body —
        are checked only on the *later* side.

        Declare the rule after the earlier write is (supposed to be)
        durable and before the later write is issued: the rule arms on
        the epochs it sees at declaration, fires at the first fence
        after which every later line is durable *with a newer epoch*,
        and then checks that every earlier line is durable under a
        strictly smaller fence sequence number.  Same-fence durability
        is a violation — one fence cannot order two writes against each
        other.
        """
        later_keys = self._range_keys(later)
        earlier_keys = self._range_keys(earlier) - later_keys
        if not earlier_keys or not later_keys:
            return
        lines = self._lines
        armed = {}
        for key in sorted(later_keys):
            rec = lines.get(key)
            armed[key] = 0 if rec is None else rec[_EPOCH]
        self._rules.append({
            "earlier": sorted(earlier_keys),
            "later": armed,
            "site": call_site() if site is None else site,
            "note": note,
        })

    def _eval_rules(self, thread):
        lines = self._lines
        remaining = []
        for rule in self._rules:
            later_min = None
            done = True
            for key, armed_epoch in rule["later"].items():
                rec = lines.get(key)
                if rec is None or rec[_ST] != DURABLE or rec[_EPOCH] <= armed_epoch:
                    done = False
                    break
                if later_min is None or rec[_SEQ] < later_min:
                    later_min = rec[_SEQ]
            if not done:
                remaining.append(rule)
                continue
            bad = why = None
            for key in rule["earlier"]:
                rec = lines.get(key)
                state = CLEAN if rec is None else rec[_ST]
                if state == EVICTED:
                    bad, why = key, ("reached media only via a cache "
                                     "eviction, never fence-ordered")
                    break
                if state != DURABLE:
                    bad, why = key, "is %s, not durable" % _STATE_NAMES[state]
                    break
                if rec[_SEQ] >= later_min:
                    bad, why = key, ("became durable in the same fence as "
                                     "(or after) the dependent write")
                    break
            if bad is not None:
                prefix = rule["note"] + ": " if rule["note"] else ""
                self._violation(
                    V_UNORDERED, bad, thread.now, rule["site"],
                    prefix + "earlier line " + why)
        self._rules = remaining

    def _range_keys(self, ranges):
        keys = set()
        for ns, addr, size in ranges:
            if size <= 0:
                continue
            ns_id = ns.ns_id
            line = addr - addr % CACHELINE
            last = addr + size - 1
            last -= last % CACHELINE
            while line <= last:
                keys.add((ns_id, line))
                line += CACHELINE
        return keys

    # ------------------------------------------------------------------
    # reporting

    def _violation(self, kind, key, ts, site, note):
        sig = (kind, site)
        seen = self._by_sig.get(sig)
        if seen is not None:
            seen["count"] += 1
            return
        if key is None:
            ns_name = None
            line = None
        else:
            ns_name = self.machine._ns_by_id[key[0]].name
            line = key[1]
        entry = {"kind": kind, "site": site, "ns": ns_name, "line": line,
                 "ts": round(ts, 3), "note": note, "count": 1}
        self._by_sig[sig] = entry
        self._violations.append(entry)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(ts, CAT_PMCHECK, "pmcheck." + kind,
                           track="pmcheck",
                           args={"site": site, "ns": ns_name, "line": line})

    def summary(self):
        """JSON-able report: total, per-kind counts, deduped violations."""
        kinds = {}
        for entry in self._violations:
            kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + entry["count"]
        return {
            "total": sum(kinds.values()),
            "kinds": dict(sorted(kinds.items())),
            "violations": [dict(entry) for entry in self._violations],
        }


@contextmanager
def checking(machine):
    """``with checking(machine) as checker: ...`` — install/uninstall."""
    checker = PmCheck(machine).install()
    try:
        yield checker
    finally:
        checker.uninstall()
