"""The durability oracle: durable linearizability, checked per key.

After every recovery the oracle reads back each key the history ever
touched and asks whether the observed state is *explainable* by the
acknowledged-operation record:

* an **acknowledged** write must be readable — unless a later
  acknowledged write definitely superseded it (began after it was
  acknowledged), or the substrate's recovery report *admits* the loss;
* an **in-flight** write (issued, never acknowledged, cut by a crash)
  may read as either the old or the new value — the client cannot
  tell the difference and neither outcome breaks a promise;
* **garbage** — bytes matching no version ever written to the key —
  is never legal: it means a torn or corrupt record was served as if
  it were data (exactly what CRCs and atomic publishes prevent).

Loss accounting follows the contract :mod:`repro.faults` established:
data loss is legal only when it is *reported*.  A missing or stale
acknowledged write is excused when the recovery report names the key in
``lost_keys``, or — for substrates that cannot attribute a destroyed
region to keys (a poisoned WAL hole) — when the report counts
unattributed losses (``lost > 0``).  A gap without a report is a
violation.

The superseded rule is deliberately conservative about concurrency: an
acknowledged write is only *definitely* superseded when some other
acknowledged write to the key **started after it was acknowledged**.
Overlapping acknowledged writes may linearize either way, so both
values stay legal — no false violations from scheduler interleaving.
"""

from repro.chaos_serve.history import DELETE, PUT
from repro.faults.model import MediaError
from repro.workloads.generators import make_key, make_value

#: Violation kinds the oracle reports.
LOST_ACKED = "lost-acknowledged-write"
STALE_ACKED = "stale-acknowledged-write"
GARBAGE = "garbage-value"
UNREADABLE = "unreadable-without-report"


def service_read_fn(service, thread):
    """The default read-back: a point ``get`` through the recovered
    service, with media errors surfaced as ``("unreadable", msg)``.

    Returns a callable mapping ``key_index`` to one of
    ``("value", bytes)``, ``("missing", None)`` or
    ``("unreadable", str)``.
    """
    def read(key_index):
        key = make_key(key_index)
        last = None
        for _attempt in range(5):
            try:
                value = service.get(thread, key)
            except MediaError as exc:
                last = exc
                if not exc.transient:
                    break
                thread.sleep(2_000.0)    # transient: back off and retry
                continue
            if value is None:
                return ("missing", None)
            return ("value", bytes(value))
        return ("unreadable", str(last))
    return read


def _expected_value(spec, mut):
    """The exact bytes mutation ``mut`` promised (None for deletes)."""
    if mut.op == DELETE:
        return None
    return make_value(spec, mut.key_index, mut.version)


def _candidates(muts):
    """The mutations whose effect may legally be the key's final state.

    Acked mutations are candidates unless definitely superseded by a
    later acked mutation; un-acked (in-flight) mutations are always
    candidates — old *or* new is legal for them.  Excused mutations
    (losses a recovery report already covered) behave like in-flight
    ones: always candidates, never superseding — a reported rollback
    re-legalizes the value it rolled back *to*.
    """
    acked = [m for m in muts if m.acked and not m.excused]
    out = []
    for mut in muts:
        if mut.acked and not mut.excused \
                and any(o is not mut and o.start_ns > mut.end_ns
                        for o in acked):
            continue
        out.append(mut)
    return out


#: Sentinel "observed" that matches no mutation's expected value —
#: used to excuse every acked write of a key at once.
_NOTHING = object()


def _excuse(muts, spec, observed):
    """Void the promises a covered loss contradicted.

    Every acked mutation whose expected value differs from what was
    actually observed is marked excused: its loss has been reported
    once, and durability does not require re-reporting it after every
    subsequent crash.  Mutations matching the observed state (and any
    future writes) remain full promises.
    """
    for mut in muts:
        if mut.acked and not mut.excused \
                and _expected_value(spec, mut) != observed:
            mut.excused = True


def _report_covers(report, key, attributed, truncated_ok=False):
    """Whether the recovery report admits losing ``key``.

    ``attributed`` keys are named in ``lost_keys``; otherwise any
    unattributed loss count (``lost`` beyond the named keys) covers the
    gap — a substrate that lost a region it cannot map to keys still
    *reported* the damage.

    ``truncated_ok`` extends coverage to reported *truncation*: a torn
    final XPLine rolls back whole 64-byte chunks, which can silently
    un-publish the most recently acknowledged write (a bucket pointer,
    a log tail) — legal crash semantics so long as the damage was
    reported.  Truncation only ever excuses a *clean* rollback (missing
    or stale data), never garbage: CRCs and atomic publishes exist
    precisely so a tear cannot surface as corrupt bytes.
    """
    if report is None:
        return False
    if key in attributed:
        return True
    if report.lost > len(attributed):
        return True
    return truncated_ok and report.truncated > 0


def check_durability(history, read_fn, spec, report, naive_note=None):
    """Audit one recovered service against the history.

    ``read_fn`` maps a key index to the observed post-recovery state
    (see :func:`service_read_fn`).  Returns a JSON-able dict::

        {"keys_checked": int,
         "legal": int,              # keys whose state is explainable
         "reported_lost": int,      # gaps excused by the report
         "inflight_keys": int,      # keys with in-flight writes seen
         "violations": [ ... ]}     # the durability failures

    Every violation carries the offending history window so the report
    is actionable without re-running anything.
    """
    groups = history.by_key()
    attributed = set()
    if report is not None:
        attributed = {k for k in report.lost_keys}
    result = {"keys_checked": 0, "legal": 0, "reported_lost": 0,
              "inflight_keys": 0, "violations": []}

    def violate(kind, key_index, observed, legal):
        result["violations"].append({
            "kind": kind,
            "key_index": key_index,
            "key": make_key(key_index).decode(),
            "observed": observed,
            "legal": legal,
            "window": [_mut_dict(m) for m in history.window(key_index)],
        })

    for key_index in sorted(groups):
        muts = groups[key_index]
        key = make_key(key_index)
        result["keys_checked"] += 1
        if any(not m.acked for m in muts):
            result["inflight_keys"] += 1
        candidates = _candidates(muts)
        legal_values = {}
        for mut in candidates:
            value = _expected_value(spec, mut)
            if value is not None:
                legal_values[value] = mut
        # "Missing" is legal when nothing was ever promised (no
        # un-excused acked mutation) or a candidate delete may have
        # landed.
        none_legal = (not any(m.acked and not m.excused for m in muts)
                      or any(m.op == DELETE for m in candidates))
        state, payload = read_fn(key_index)

        if state == "unreadable":
            if none_legal or _report_covers(report, key, attributed):
                result["reported_lost"] += 1
                _excuse(muts, spec, _NOTHING)
            else:
                violate(UNREADABLE, key_index, payload,
                        _legal_summary(legal_values, none_legal))
            continue
        if state == "missing":
            if none_legal:
                result["legal"] += 1
            elif _report_covers(report, key, attributed,
                                truncated_ok=True):
                result["reported_lost"] += 1
                _excuse(muts, spec, None)
            else:
                violate(LOST_ACKED, key_index, None,
                        _legal_summary(legal_values, none_legal))
            continue
        observed = payload
        if observed in legal_values:
            result["legal"] += 1
            continue
        # Not a legal final value: was it *ever* a value of this key?
        known = {_expected_value(spec, m): m for m in muts
                 if m.op == PUT}
        if observed in known:
            if _report_covers(report, key, attributed,
                              truncated_ok=True):
                result["reported_lost"] += 1
                _excuse(muts, spec, observed)
            else:
                violate(STALE_ACKED, key_index,
                        _value_summary(observed),
                        _legal_summary(legal_values, none_legal))
            continue
        # Garbage: bytes no client ever wrote.  Only a loss admission
        # (attributed or counted) excuses serving corrupt data —
        # reported truncation never does.
        if _report_covers(report, key, attributed):
            result["reported_lost"] += 1
            _excuse(muts, spec, _NOTHING)
        else:
            violate(GARBAGE, key_index, _value_summary(observed),
                    _legal_summary(legal_values, none_legal))
    if naive_note and result["violations"]:
        result["note"] = naive_note
    return result


def _mut_dict(mut):
    return {
        "client": mut.client, "op": mut.op, "version": mut.version,
        "start_ns": round(mut.start_ns, 1),
        "end_ns": None if mut.end_ns is None else round(mut.end_ns, 1),
        "acked": mut.acked,
        "excused": mut.excused,
    }


def _value_summary(value):
    """A short printable form of observed bytes."""
    head = value[:8]
    return "%d bytes %r%s" % (len(value), bytes(head),
                              "..." if len(value) > 8 else "")


def _legal_summary(legal_values, none_legal):
    out = sorted(_value_summary(v) for v in legal_values)
    if none_legal:
        out.append("missing")
    return out


def format_violation(v):
    """One violation as the lines the CLI prints, opening with the
    ``workload/substrate/scenario/mode`` cell a matrix run tagged it
    with."""
    cell = v.get("cell")
    where = "" if cell is None else "%s/%s/%s/%s: " % (
        cell["workload"], cell["substrate"], cell["scenario"], cell["mode"])
    lines = ["%s%s key=%s observed=%s" % (where, v["kind"], v["key"],
                                          v["observed"])]
    lines.append("  legal: %s" % ", ".join(v["legal"]))
    for mut in v["window"]:
        lines.append("  history: client=%d %s v%d [%s..%s] %s"
                     % (mut["client"], mut["op"], mut["version"],
                        mut["start_ns"], mut["end_ns"],
                        "acked" if mut["acked"] else "IN-FLIGHT"))
    return "\n".join(lines)
