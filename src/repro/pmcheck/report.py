"""Rendering pmcheck results for humans (the CLI and test output)."""


def format_violation(violation):
    """One violation as a compact multi-line block.

    ``violation`` is an entry from :meth:`PmCheck.summary`; a matrix
    run tags it with the ``cell`` (workload/substrate/naive) it came
    from, and the block then opens with that cell.
    """
    cell = violation.get("cell")
    where = "" if cell is None else "%s/%s%s: " % (
        cell.get("workload"), cell.get("substrate"),
        "(naive)" if cell.get("naive") else "")
    head = "%s%s at %s" % (where, violation["kind"], violation["site"])
    lines = [head]
    if violation.get("ns") is not None:
        lines.append("    line 0x%x in %s, t=%.0fns"
                     % (violation["line"], violation["ns"], violation["ts"]))
    else:
        lines.append("    t=%.0fns" % violation["ts"])
    lines.append("    %s" % violation["note"])
    if violation.get("count", 1) > 1:
        lines.append("    (%d occurrences, first shown)" % violation["count"])
    return "\n".join(lines)


def format_summary(summary):
    """One-line per-kind tally, e.g. ``3 violations (ack-before-fence x3)``."""
    total = summary.get("total", 0)
    if not total:
        return "clean"
    parts = ["%s x%d" % (kind, count)
             for kind, count in sorted(summary.get("kinds", {}).items())]
    return "%d violation%s (%s)" % (total, "s" if total != 1 else "",
                                    ", ".join(parts))
