"""The systematic parameter sweep (Section 3.1).

LATTester's first phase is a broad sweep over access pattern,
operation, access size, thread count, NUMA placement and interleaving.
``sweep_grid`` reproduces that: it returns a flat list of records
(dicts) that the targeted experiments and Figure 9's scatter are mined
from.  Over the default grid this produces several hundred data points;
the paper collected "over ten thousand" across both phases.

Every sweep runs through :func:`repro.harness.run_sweep`: ``jobs``
fans points out across worker processes and a ``cache`` replays points
the harness has already measured.  The default call is one in-process
worker and no cache, so it writes nothing to disk.
"""

import csv

from repro._units import KIB

CSV_FIELDS = ("kind", "op", "pattern", "access", "threads",
              "gbps", "ewr", "elapsed_ns")

DEFAULT_GRID = {
    "kind": ("optane", "optane-ni", "dram"),
    "op": ("read", "ntstore", "clwb"),
    "pattern": ("seq", "rand"),
    "access": (64, 256, 4096),
    "threads": (1, 4, 16),
}

# The quick grid is the historical default; the full grid is the
# paper-scale sweep of ``python -m repro sweep``.
QUICK_GRID = DEFAULT_GRID

FULL_GRID = {
    "kind": ("optane", "optane-ni", "optane-remote", "dram",
             "dram-ni", "dram-remote"),
    "op": ("read", "ntstore", "clwb", "store"),
    "pattern": ("seq", "rand"),
    "access": (64, 128, 256, 512, 1024, 4096, 16384),
    "threads": (1, 2, 4, 8, 16, 24),
}


def sweep_grid(grid=None, per_thread=64 * KIB, progress=None, jobs=1,
               cache=None):
    """Run the full cartesian sweep; returns a list of result records.

    Points fan out across ``jobs`` worker processes and are replayed
    from ``cache`` when it holds them (``None``: a disabled cache, so
    every point is measured and nothing is written).  Records are in
    grid order, and a point that fails raises once the run is over.
    """
    from repro.harness import ResultCache, run_sweep
    run = run_sweep(dict(DEFAULT_GRID if grid is None else grid),
                    per_thread=per_thread, jobs=jobs,
                    cache=ResultCache(enabled=False) if cache is None
                    else cache,
                    progress=None if progress is None
                    else (lambda outcome: progress(_outcome_record(outcome))))
    run.raise_on_failure("sweep")
    return run.records


def _outcome_record(outcome):
    """Shape a harness :class:`PointOutcome` for the progress callback.

    Successful points pass the measured record through unchanged;
    failed points surface as a record with ``"error"`` set so callers
    can count or log them before :func:`sweep_grid` raises at the end
    of the run.
    """
    if outcome.ok:
        return outcome.value
    record = dict(outcome.payload)
    record.pop("per_thread", None)
    record["error"] = outcome.error
    return record


def csv_fieldnames(records):
    """Column order for a set of records: known fields, then extras.

    The well-known :data:`CSV_FIELDS` keep their canonical order (and
    appear only if some record carries them); any other keys — harness
    annotations like ``trace``, future metrics — follow alphabetically
    instead of being silently dropped.
    """
    present = set()
    for rec in records:
        present.update(rec)
    fields = [f for f in CSV_FIELDS if f in present]
    fields.extend(sorted(present - set(CSV_FIELDS)))
    return fields


def write_csv(records, path):
    """Persist sweep records to a CSV file (one row per experiment).

    Columns are derived from the records themselves (see
    :func:`csv_fieldnames`), so extra keys round-trip instead of being
    dropped; records missing a column write an empty cell.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=csv_fieldnames(records),
                                restval="")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)


def _restore(text):
    """Undo CSV stringification: int, then float, else the string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    """Load sweep records back, with numeric fields restored.

    Tolerates absent optional columns (older files written before a
    field existed load fine) and extra ones (restored generically:
    int, then float, then string).  Empty cells — a record that lacked
    that column when written — are omitted from the loaded dict, so
    ``write_csv`` → ``read_csv`` is an identity on the records.
    """
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append({k: _restore(v) for k, v in row.items()
                        if v != ""})
    return out
