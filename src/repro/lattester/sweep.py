"""The systematic parameter sweep (Section 3.1).

LATTester's first phase is a broad sweep over access pattern,
operation, access size, thread count, NUMA placement and interleaving.
``sweep_grid`` reproduces that: it returns a flat list of records
(dicts) that the targeted experiments and Figure 9's scatter are mined
from.  Over the default grid this produces several hundred data points;
the paper collected "over ten thousand" across both phases.

Sweeps run through :mod:`repro.harness`: pass ``jobs`` to fan points
out across worker processes and ``cache`` (or rely on the default
on-disk cache when ``jobs`` is given) to never re-measure a point the
harness has already seen.  The default call stays serial and uncached,
exactly as before the harness existed.
"""

import csv

from repro._units import KIB
from repro.lattester.bandwidth import measure_bandwidth

CSV_FIELDS = ("kind", "op", "pattern", "access", "threads",
              "gbps", "ewr", "elapsed_ns")

DEFAULT_GRID = {
    "kind": ("optane", "optane-ni", "dram"),
    "op": ("read", "ntstore", "clwb"),
    "pattern": ("seq", "rand"),
    "access": (64, 256, 4096),
    "threads": (1, 4, 16),
}

# The quick grid is the historical default; the full grid matches the
# paper-scale sweep of scripts/full_sweep.py.
QUICK_GRID = DEFAULT_GRID

FULL_GRID = {
    "kind": ("optane", "optane-ni", "optane-remote", "dram",
             "dram-ni", "dram-remote"),
    "op": ("read", "ntstore", "clwb", "store"),
    "pattern": ("seq", "rand"),
    "access": (64, 128, 256, 512, 1024, 4096, 16384),
    "threads": (1, 2, 4, 8, 16, 24),
}


def sweep_grid(grid=None, per_thread=64 * KIB, progress=None,
               jobs=None, cache=None):
    """Run the full cartesian sweep; returns a list of result records.

    With ``jobs`` or ``cache`` unset the sweep runs serially in-process
    with no memoization (the historical behavior).  Otherwise it runs
    through the experiment harness: points fan out across ``jobs``
    worker processes and previously measured points are replayed from
    the content-addressed ``cache``.  Records are in grid order either
    way, and a point that fails under the harness raises, matching the
    serial path.
    """
    grid = dict(DEFAULT_GRID if grid is None else grid)
    if jobs is None and cache is None:
        return _sweep_serial(grid, per_thread, progress)
    from repro.harness import run_sweep
    run = run_sweep(grid, per_thread=per_thread, jobs=jobs, cache=cache,
                    progress=None if progress is None
                    else (lambda outcome: progress(_outcome_record(outcome))))
    run.raise_on_failure("sweep")
    return run.records


def _outcome_record(outcome):
    """Shape a harness :class:`PointOutcome` for the progress callback.

    Successful points pass the measured record through unchanged (the
    same dict the serial path reports).  Failed points used to be
    silently dropped from the callback; now they surface as a record
    with ``"error"`` set so callers can count or log them before
    :func:`sweep_grid` raises at the end of the run.
    """
    if outcome.ok:
        return outcome.value
    record = dict(outcome.payload)
    record.pop("per_thread", None)
    record["error"] = outcome.error
    return record


def _sweep_serial(grid, per_thread, progress):
    records = []
    for params in _expand(grid):
        result = measure_bandwidth(per_thread=per_thread, **params)
        record = dict(params)
        record["gbps"] = result.gbps
        record["ewr"] = result.ewr
        record["elapsed_ns"] = result.elapsed_ns
        records.append(record)
        if progress is not None:
            progress(record)
    return records


def _expand(grid):
    from repro.harness.runner import expand_grid
    return expand_grid(grid)


def filter_records(records, **criteria):
    """Select sweep records matching all the given field values."""
    out = []
    for rec in records:
        if all(rec.get(k) == v for k, v in criteria.items()):
            out.append(rec)
    return out


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


def best_thread_count(records, kind, op, access=None):
    """The thread count achieving peak bandwidth for a configuration."""
    matches = [
        r for r in records
        if r["kind"] == kind and r["op"] == op
        and (access is None or r["access"] == access)
    ]
    if not matches:
        raise ValueError("no sweep records for %s/%s" % (kind, op))
    return max(matches, key=lambda r: r["gbps"])["threads"]
