"""The ``repro report`` builder: tables, JSON and a one-file HTML page.

Input is a run manifest (serve or chaos, externalized or fresh); the
builder resolves every point's obs blob, merges them per substrate,
and produces one deterministic report structure:

* **substrates** — merged latency percentiles, SLO burn, per-op and
  named counters per substrate;
* **curves** — throughput / latency-vs-load points from open-loop
  serve measurements (offered vs achieved kops, p50/p99);
* **cells** — chaos timelines: each cell's injected faults, breaker
  transitions and recovery audits, correlated against the latency
  windows they perturbed (each event is annotated with the burn state
  of the window it landed in).

The JSON form contains only virtual-time quantities, counts and
content derived from manifest records — no wall clock, no filesystem
paths — so a ``--jobs 4`` run reports byte-identically to ``--jobs 1``
(the CI ``report-smoke`` job compares exactly that).

The terminal tables and the HTML page render one section list, so
they show the same tables.  The HTML report adds the charts and is a
single self-contained file (inline CSS + SVG, no external assets, no
JavaScript dependencies) so it can be attached to CI artifacts and
opened anywhere.
"""

import html as _html
import json

from repro.harness.keys import canonical_json
from repro.lattester.report import format_value, table
from repro.obs.artifacts import load_obs_blob
from repro.obs.hist import bucket_midpoint
from repro.obs.recorder import ObsRecorder
from repro.obs.schema import validate_obs

REPORT_VERSION = 1

_NS_PER_US = 1e3


class ObsReportError(ValueError):
    """An obs blob failed validation while building a report."""


def _point_recorders(points, base_dir):
    """Yield ``(point, recorder)`` for every obs-carrying point.

    Each blob is loaded, validated and parsed exactly once.  A serve
    manifest may list the same measurement twice (a saturation probe
    that landed on a curve rate); duplicates are skipped by point key
    so nothing merges or plots double.
    """
    seen = set()
    for index, point in enumerate(points):
        key = point.get("key") or canonical_json(
            point.get("params") or {})
        if key in seen:
            continue
        seen.add(key)
        blob = load_obs_blob(point, base_dir)
        if blob is None:
            continue
        problems = validate_obs(blob)
        if problems:
            raise ObsReportError(
                "point %d has an invalid obs artifact: %s"
                % (index, "; ".join(problems)))
        yield point, ObsRecorder.from_dict(blob)


def _window_series(rec):
    """Burn windows as a sorted, JSON-able series.

    Each row is ``[window_index, ops, slo_misses, errors, mean_us,
    max_us]`` — the timeline the chaos correlation draws against.
    """
    rows = []
    for idx in sorted(rec.windows):
        ops, miss, err, total, peak = rec.windows[idx]
        mean_us = round((total / ops) / _NS_PER_US, 3) if ops else 0.0
        rows.append([idx, ops, miss, err, mean_us,
                     round(peak / _NS_PER_US, 3)])
    return rows


def _annotate_events(rec):
    """Events with the burn state of the window each landed in."""
    window_ns = rec.window_us * _NS_PER_US
    out = []
    for event in rec.events:
        idx = int(event["ts"] // window_ns)
        entry = {"ts_us": round(event["ts"] / _NS_PER_US, 3),
                 "name": event["name"], "window": idx}
        if "args" in event:
            entry["args"] = event["args"]
        win = rec.windows.get(idx)
        if win and win[0]:
            entry["window_burn"] = round((win[1] / win[0]) / rec.budget,
                                         6)
            entry["window_max_us"] = round(win[4] / _NS_PER_US, 3)
        out.append(entry)
    return out


def build_report(manifest, base_dir="."):
    """Build the report from a manifest (object or plain dict).

    One pass over the points: each obs blob is loaded, validated and
    parsed once, read for its cell or curve row, then merged into its
    substrate.  Returns ``(report, hists)`` — the report dict
    :func:`report_json` serializes, and each substrate's merged
    :class:`~repro.obs.hist.LatencyHistogram` for the HTML charts.

    Raises :class:`ObsReportError` when a blob fails validation.  A
    manifest with no obs artifacts at all still yields a report (with
    ``with_obs == 0``) so obs-off runs do not crash the verb.
    """
    points = manifest.points if hasattr(manifest, "points") \
        else manifest.get("points", ())
    merged = {}        # substrate -> ObsRecorder
    curves = {}        # substrate -> [curve point, ...]
    cells = []
    with_obs = 0
    for point, rec in _point_recorders(points, base_dir):
        with_obs += 1
        substrate = rec.substrate or "?"
        params = point.get("params") or {}
        if "scenario" in params:
            cells.append({
                "workload": params.get("workload"),
                "substrate": params.get("substrate"),
                "scenario": params.get("scenario"),
                "mode": params.get("mode", "closed"),
                "summary": rec.summary(),
                "windows": _window_series(rec),
                "events": _annotate_events(rec),
            })
        elif params.get("mode") == "open" and "rate_kops" in params:
            lat = rec.latency_us((0.50, 0.99))
            curves.setdefault(substrate, []).append({
                "offered_kops": params["rate_kops"],
                "achieved_kops": (point.get("record") or {}).get(
                    "achieved_kops"),
                "p50_us": lat["p50"],
                "p99_us": lat["p99"],
            })
        # Merging last: the first recorder of a substrate becomes its
        # accumulator only after its own rows were read.
        if substrate in merged:
            merged[substrate].merge(rec)
        else:
            merged[substrate] = rec
    for series in curves.values():
        series.sort(key=lambda p: p["offered_kops"])
    substrates = {}
    for substrate in sorted(merged):
        rec = merged[substrate]
        substrates[substrate] = {
            "summary": rec.summary(),
            "ops": {op: dict(rec.ops[op]) for op in sorted(rec.ops)},
            "counters": {name: rec.counters[name]
                         for name in sorted(rec.counters)},
        }
    report = {
        "obs_report_version": REPORT_VERSION,
        "kind": "chaos" if cells else "serve",
        "points": len(points),
        "with_obs": with_obs,
        "substrates": substrates,
        "curves": {s: curves[s] for s in sorted(curves)},
        "cells": cells,
    }
    return report, {s: merged[s].hist for s in sorted(merged)}


# -- the section list both renderers draw ------------------------------------


def _sections(report, hists=None):
    """Yield every report section as ``(title, headers, rows, chart)``.

    The terminal and the HTML page render this one list, so they show
    the same tables; ``chart`` is an inline-SVG fragment (or ``""``)
    that only the HTML page draws.
    """
    substrates = report["substrates"]
    if substrates:
        rows, charts = [], []
        for substrate, data in substrates.items():
            lat = data["summary"]["latency_us"]
            burn = data["summary"]["burn"]
            rows.append([substrate, data["summary"]["ops"], lat["p50"],
                         lat["p90"], lat["p95"], lat["p99"], lat["p999"],
                         burn["total_burn"], burn["worst_window_burn"]])
            if hists and substrate in hists:
                charts.append("<p class='legend'>%s latency distribution "
                              "(bucket midpoints, us)</p>%s"
                              % (_esc(substrate),
                                 _svg_bars(_hist_pairs(hists[substrate]))))
        burn = next(iter(substrates.values()))["summary"]["burn"]
        yield ("Latency and SLO burn per substrate (SLO %s us, budget %s)"
               % (burn["slo_us"], burn["budget"]),
               ["substrate", "ops", "p50 us", "p90 us", "p95 us", "p99 us",
                "p999 us", "burn", "worst win"], rows, "".join(charts))
    for substrate, series in report["curves"].items():
        yield ("Latency vs load: %s" % substrate,
               ["offered kops", "achieved kops", "p50 us", "p99 us"],
               [[p["offered_kops"], p["achieved_kops"], p["p50_us"],
                 p["p99_us"]] for p in series],
               _svg_curve(series))
    cells = report["cells"]
    if cells:
        rows = []
        for cell in cells:
            summary = cell["summary"]
            names = [ev["name"] for ev in cell["events"]]
            rows.append(["%s/%s" % (cell["workload"], cell["substrate"]),
                         cell["scenario"], cell["mode"], summary["ops"],
                         summary["latency_us"]["p99"],
                         summary["burn"]["worst_window_burn"],
                         sum(n.startswith("chaos.") for n in names),
                         sum(n.startswith("breaker.") for n in names)])
        yield ("Chaos cells",
               ["cell", "scenario", "mode", "ops", "p99 us", "worst burn",
                "faults", "breaker"], rows, "")
    for cell in cells:
        if not cell["events"]:
            continue
        chart = ""
        if cell["windows"]:
            chart = ("<p class='legend'>Per-window max latency (us) over "
                     "virtual time; the table lists injected faults, "
                     "breaker transitions and recovery audits.</p>"
                     + _svg_bars([(w[0], w[5]) for w in cell["windows"]],
                                 color="#7c3aed"))
        yield ("Chaos: %s/%s %s (%s)" % (cell["workload"], cell["substrate"],
                                        cell["scenario"], cell["mode"]),
               ["ts us", "event", "window", "window burn", "window max us",
                "args"],
               [[ev["ts_us"], ev["name"], ev["window"],
                 ev.get("window_burn", ""), ev.get("window_max_us", ""),
                 " ".join("%s=%s" % arg
                          for arg in sorted(ev.get("args", {}).items()))]
                for ev in cell["events"]],
               chart)
    rows = [[substrate, name, value]
            for substrate, data in substrates.items()
            for name, value in data["counters"].items()]
    if rows:
        yield "Counters", ["substrate", "counter", "value"], rows, ""


def _empty(report):
    return "no obs artifacts in this manifest (%d points)" % report["points"]


def render_tables(report):
    """ASCII tables for the terminal; returns one string."""
    blocks = [table(headers, rows, title=title)
              for title, headers, rows, _chart in _sections(report)]
    return "\n\n".join(blocks or [_empty(report)])


# -- HTML rendering ----------------------------------------------------------

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro observability report</title>
<style>
body {{ font-family: -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 960px; color: #1a1a2e; }}
h1 {{ font-size: 1.5em; }}  h2 {{ font-size: 1.15em; margin-top: 2em; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
th, td {{ border: 1px solid #cbd5e1; padding: 0.3em 0.7em;
          text-align: right; font-variant-numeric: tabular-nums; }}
th {{ background: #eef2f7; }}
td:first-child, th:first-child {{ text-align: left; }}
svg {{ background: #fafbfd; border: 1px solid #cbd5e1; }}
.legend {{ font-size: 0.85em; color: #475569; }}
</style>
</head>
<body>
<h1>repro observability report ({kind})</h1>
<p class="legend">{points} manifest points, {with_obs} with obs
artifacts.  All times are virtual nanosecond-clock quantities;
histogram buckets are log-linear (32 sub-buckets per octave, &le;3.125%
relative width).</p>
{body}
</body>
</html>
"""


def _esc(value):
    return _html.escape(str(value))


def _html_table(headers, rows):
    """One table, its cells formatted as the terminal formats them."""
    head = "".join("<th>%s</th>" % _esc(h) for h in headers)
    body = "".join(
        "<tr>%s</tr>" % "".join("<td>%s</td>" % _esc(format_value(c))
                                for c in row)
        for row in rows)
    return ("<table><thead><tr>%s</tr></thead>"
            "<tbody>%s</tbody></table>" % (head, body))


def _svg_bars(pairs, width=880, height=160, color="#2563eb"):
    """A simple bar chart from ``[(label, value), ...]``."""
    if not pairs:
        return ""
    peak = max(v for _, v in pairs) or 1
    n = len(pairs)
    bar_w = max(1.0, (width - 40) / n - 1)
    parts = []
    for i, (_label, value) in enumerate(pairs):
        h = (height - 30) * value / peak
        x = 30 + i * ((width - 40) / n)
        y = height - 20 - h
        parts.append('<rect x="%.1f" y="%.1f" width="%.1f" '
                     'height="%.1f" fill="%s"/>'
                     % (x, y, bar_w, h, color))
    first, last = pairs[0][0], pairs[-1][0]
    parts.append('<text x="30" y="%d" font-size="10">%s</text>'
                 % (height - 6, _esc(first)))
    parts.append('<text x="%d" y="%d" font-size="10" '
                 'text-anchor="end">%s</text>'
                 % (width - 10, height - 6, _esc(last)))
    return ('<svg width="%d" height="%d" role="img">%s</svg>'
            % (width, height, "".join(parts)))


def _svg_curve(series, width=880, height=220):
    """p99-vs-offered-load polyline for one substrate's curve."""
    if len(series) < 2:
        return ""
    xs = [p["offered_kops"] for p in series]
    ys = [p["p99_us"] for p in series]
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(ys) or 1.0
    span_x = (x_hi - x_lo) or 1.0

    def sx(x):
        return 40 + (width - 60) * (x - x_lo) / span_x

    def sy(y):
        return height - 25 - (height - 45) * y / y_hi

    pts = " ".join("%.1f,%.1f" % (sx(x), sy(y))
                   for x, y in zip(xs, ys))
    dots = "".join('<circle cx="%.1f" cy="%.1f" r="3" fill="#dc2626"/>'
                   % (sx(x), sy(y)) for x, y in zip(xs, ys))
    labels = ('<text x="40" y="%d" font-size="10">%s kops</text>'
              '<text x="%d" y="%d" font-size="10" text-anchor="end">'
              '%s kops</text>'
              '<text x="8" y="20" font-size="10">p99 %s us</text>'
              % (height - 8, _esc(round(x_lo, 1)), width - 20,
                 height - 8, _esc(round(x_hi, 1)),
                 _esc(round(y_hi, 1))))
    return ('<svg width="%d" height="%d" role="img">'
            '<polyline points="%s" fill="none" stroke="#dc2626" '
            'stroke-width="1.5"/>%s%s</svg>'
            % (width, height, pts, dots, labels))


def _hist_pairs(hist, limit=64):
    """A histogram as at most ``limit`` ``(midpoint_us, count)`` bars.

    Adjacent occupied buckets are summed into one bar labelled by its
    highest bucket, so the bars count every request and the last bar
    holds the slowest one.
    """
    buckets = sorted(hist.counts.items())
    per_bar = -(-len(buckets) // limit) or 1
    pairs = []
    for start in range(0, len(buckets), per_bar):
        group = buckets[start:start + per_bar]
        pairs.append((round(bucket_midpoint(group[-1][0]) / _NS_PER_US, 2),
                      sum(count for _idx, count in group)))
    return pairs


def render_html(report, hists=None):
    """The self-contained HTML page; returns one string.

    It draws the terminal's tables, each under its title with its
    chart; ``hists`` (the second half of :func:`build_report`'s
    result) adds the per-substrate latency distributions.
    """
    parts = ["<h2>%s</h2>%s%s" % (_esc(title), chart,
                                  _html_table(headers, rows))
             for title, headers, rows, chart in _sections(report, hists)]
    return _PAGE.format(kind=_esc(report["kind"]),
                        points=report["points"],
                        with_obs=report["with_obs"],
                        body="\n".join(parts or
                                       ["<p>%s</p>" % _esc(_empty(report))]))


def report_json(report):
    """The canonical serialized form (what the CI byte-compares)."""
    return json.dumps(report, sort_keys=True, indent=1,
                      allow_nan=False) + "\n"
