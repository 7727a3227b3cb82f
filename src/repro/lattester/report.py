"""Result formatting: ASCII tables and nested-record outlines.

LATTester's results are plain dataclasses; this module renders them
the way the paper's tables/figures organise them, for the CLI
(``python -m repro``), ``scripts/regenerate_all.py`` and the benchmark
reports.
"""


def format_value(value, digits=2):
    """Human-friendly scalar formatting."""
    if isinstance(value, float):
        if value != value:                    # NaN
            return "nan"
        if abs(value) >= 1000:
            return "%.0f" % value
        return ("%." + str(digits) + "f") % value
    return str(value)


def table(headers, rows, title=None):
    """Render an ASCII table; every cell is formatted with format_value."""
    cells = [[format_value(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def outline(value, indent="  "):
    """Yield a nested record (dicts, lists, scalars) as indented lines.

    A scalar under a key renders ``key: value``; a dict or list under a
    key renders ``key:`` with its block indented two more spaces below.
    ``repro run`` prints and ``scripts/regenerate_all.py`` writes a
    figure's :func:`~repro.harness.keys.to_jsonable` record this way.
    """
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, (dict, list)):
                yield "%s%s:" % (indent, key)
                yield from outline(sub, indent + "  ")
            else:
                yield "%s%s: %s" % (indent, key, sub)
    elif isinstance(value, list):
        for item in value:
            yield "%s%s" % (indent, item)
    else:
        yield "%s%s" % (indent, value)
