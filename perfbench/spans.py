"""Spans recorded from the benchmark's own files, and their arithmetic.

A traced run wraps each ``closed_loop`` / ``open_loop`` /
``chaos_serve_cell`` / ``sweep_grid`` call in a root span and records
one child span per ``Service`` call (see
:class:`perfbench.services.SpanService`).  Spans stay in memory and are
written out once, as a Chrome ``trace_event`` file, when the run ends.
Nothing below the service boundary is spanned: wrapping a namespace or
installing a tracer would push it off its fused fast path, so the
namespace/device share is reported from isolation loops instead.
"""

import json
import time
from collections import namedtuple
from contextlib import contextmanager, nullcontext

#: One span.  ``host_*`` are ``perf_counter_ns`` readings, ``sim_*``
#: simulated ns (None where the caller has no simulated clock),
#: ``parent`` the id of the span that caused it (None for a root) and
#: ``request`` the id its request's spans share.
Span = namedtuple("Span", "id name parent host_start host_end "
                          "sim_start sim_end request")


class SpanLog:
    """In-memory span store for one traced run."""

    def __init__(self):
        self.spans = []

    def add(self, name, parent, host_start, host_end, sim_start=None,
            sim_end=None, request=None):
        span = Span(len(self.spans), name, parent, host_start, host_end,
                    sim_start, sim_end, request)
        self.spans.append(span)
        return span.id

    @contextmanager
    def root(self, name):
        """Time a root span around the ``with`` body; yields its id.

        The id is reserved up front so children recorded inside the
        body can name their parent.
        """
        index = len(self.spans)
        self.spans.append(None)
        started = time.perf_counter_ns()
        try:
            yield index
        finally:
            self.spans[index] = Span(index, name, None, started,
                                     time.perf_counter_ns(), None, None,
                                     None)

    def add_calls(self, parent, calls, substrate, requests):
        """Turn a :class:`SpanService` call list into child spans.

        ``requests`` is the per-call request id list from
        :func:`request_ids`.
        """
        for (op, _tid, h0, h1, s0, s1), request in zip(calls, requests):
            self.add("service.%s.%s" % (substrate, op), parent, h0, h1,
                     s0, s1, request)


def root_span(log, name):
    """``log.root(name)``, or a no-op context when ``log`` is None.

    Lets a workload write its timed call once for traced and untraced
    windows; the untraced context yields ``None`` as the root id.
    """
    return nullcontext() if log is None else log.root(name)


def request_ids(calls, ops_by_client):
    """Request ids (``"<tid>:<seq>"``) for a recorded call list.

    ``ops_by_client[c]`` is client ``c``'s replayed op sequence; clients
    map to the sorted distinct tids in ``calls`` (the serve loops spawn
    their threads in client order).  A ``read`` is one ``get``, an
    ``update``/``insert`` one ``put`` and an ``rmw`` a ``get`` then a
    ``put`` — which therefore share one id.
    """
    calls_per_op = {"read": 1, "update": 1, "insert": 1, "rmw": 2,
                    "scan": 1, "delete": 1}
    tids = sorted({call[1] for call in calls})
    cursors = {}
    for client, tid in enumerate(tids):
        ops = ops_by_client[client] if client < len(ops_by_client) else ()
        cursors[tid] = [iter(ops), 0, -1]     # ops, calls left, seq
    out = []
    for call in calls:
        cursor = cursors[call[1]]
        if cursor[1] == 0:
            op = next(cursor[0], None)
            cursor[1] = calls_per_op.get(op, 1)
            cursor[2] += 1
        cursor[1] -= 1
        out.append("%d:%d" % (call[1], cursor[2]))
    return out


def covered(intervals, lo, hi):
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time_rows(spans):
    """Per-name ``(name, count, total_ns, self_ns)`` rows, largest first.

    A span's self time is its duration minus the part of its interval
    its child spans cover, so the self times of a tree sum to the root
    span's duration exactly.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.host_start, span.host_end))
    rows = {}
    for span in spans:
        duration = span.host_end - span.host_start
        own = duration - covered(children.get(span.id, ()),
                                 span.host_start, span.host_end)
        row = rows.setdefault(span.name, [0, 0, 0])
        row[0] += 1
        row[1] += duration
        row[2] += own
    return sorted(((name, r[0], r[1], r[2]) for name, r in rows.items()),
                  key=lambda row: -row[3])


def root_total(spans):
    return sum(s.host_end - s.host_start for s in spans
               if s.parent is None)


def format_table(rows, total_ns):
    """The per-layer self-time table printed after a traced run."""
    lines = ["  %-34s %9s %12s %12s %7s"
             % ("span", "count", "total ms", "self ms", "share")]
    for name, count, total, own in rows:
        lines.append("  %-34s %9d %12.3f %12.3f %6.1f%%"
                     % (name, count, total / 1e6, own / 1e6,
                        100.0 * own / total_ns if total_ns else 0.0))
    self_sum = sum(row[3] for row in rows)
    lines.append("  %-34s %9s %12.3f %12.3f %6.1f%%"
                 % ("sum of self times vs root spans", "",
                    total_ns / 1e6, self_sum / 1e6,
                    100.0 * self_sum / total_ns if total_ns else 0.0))
    return "\n".join(lines)


def write_chrome_trace(spans, path):
    """Write ``spans`` as a Chrome ``trace_event`` JSON file."""
    origin = min((s.host_start for s in spans), default=0)
    events = []
    for span in spans:
        args = {"parent": span.parent}
        if span.request is not None:
            args["request"] = span.request
        if span.sim_start is not None:
            args["sim_start_ns"] = span.sim_start
            args["sim_end_ns"] = span.sim_end
        tid = 0 if span.request is None \
            else int(span.request.split(":")[0]) + 1
        events.append({
            "name": span.name, "cat": span.name.split(".")[0],
            "ph": "X", "pid": 1, "tid": tid, "id": span.id,
            "ts": (span.host_start - origin) / 1e3,
            "dur": (span.host_end - span.host_start) / 1e3,
            "args": args,
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
        fh.write("\n")
