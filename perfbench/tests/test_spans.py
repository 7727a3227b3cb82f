"""Span self-time arithmetic on hand-built trees."""

import json

from perfbench.spans import (
    SpanLog, covered, format_table, root_total, self_time_rows,
    write_chrome_trace,
)


def tree():
    log = SpanLog()
    root = log.add("loop", None, 0, 1000)
    log.add("service.lsm.get", root, 100, 300, 5.0, 9.0, "1:0")
    put = log.add("service.lsm.put", root, 400, 900, 9.0, 30.0, "1:0")
    log.add("wal", put, 450, 650)
    log.add("wal", put, 600, 800)         # overlaps its sibling
    return log


def test_covered_merges_overlaps_and_clips():
    assert covered([(450, 650), (600, 800)], 400, 900) == 350
    assert covered([(0, 50), (950, 2000)], 100, 1000) == 50
    assert covered([], 0, 10) == 0


def test_self_times_sum_to_the_root():
    spans = tree().spans
    rows = {name: (count, total, own)
            for name, count, total, own in self_time_rows(spans)}
    assert rows["loop"] == (1, 1000, 300)          # 1000 - 200 - 500
    assert rows["service.lsm.get"] == (1, 200, 200)
    assert rows["service.lsm.put"] == (1, 500, 150)    # 500 - 350
    # Overlapping siblings each keep their whole duration as self
    # time, so the tree's sum exceeds the root by the 50 ns overlap.
    assert rows["wal"] == (2, 400, 400)
    assert sum(r[2] for r in rows.values()) == root_total(spans) + 50


def test_rows_sum_exactly_without_overlap():
    log = SpanLog()
    with log.root("loadloop.closed_loop") as root:
        pass
    span = log.spans[root]
    third = (span.host_end - span.host_start) // 3
    log.add("service.lsm.get", root, span.host_start,
            span.host_start + third)
    log.add("service.lsm.put", root, span.host_start + third,
            span.host_start + 2 * third)
    rows = self_time_rows(log.spans)
    assert sum(r[3] for r in rows) == root_total(log.spans)
    text = format_table(rows, root_total(log.spans))
    assert text.splitlines()[-1].rstrip().endswith("100.0%")


def test_chrome_trace_is_loadable(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(tree().spans, str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == 5
    get = next(e for e in events if e["name"] == "service.lsm.get")
    assert get["ph"] == "X" and get["dur"] == 0.2 and get["ts"] == 0.1
    assert get["args"] == {"parent": 0, "request": "1:0",
                           "sim_start_ns": 5.0, "sim_end_ns": 9.0}
    put = next(e for e in events if e["name"] == "service.lsm.put")
    assert put["args"]["request"] == get["args"]["request"]
