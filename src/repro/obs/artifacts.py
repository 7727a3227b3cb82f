"""Content-addressed obs artifacts, referenced from run manifests.

A fresh serve point or chaos cell carries its obs blob *inline* in the
record (so cache replay keeps it).  Before a manifest is saved, the
CLI calls :func:`externalize_obs`: each inline blob is popped out of
the record, written as ``obs/obs-<address>.json`` next to the manifest
(the address is the SHA-256 of the blob's canonical JSON, so identical
content gets identical filenames whatever the run was called), and the
manifest point gains an ``"obs"`` reference to the relative path.

Two runs of the same matrix therefore produce byte-identical manifests
— the references are content addresses, never run-specific paths — and
the blobs dedupe on disk for free.  ``repro compare`` never opens
them: a serving record's own ``latency_us`` is already the recorder's
histogram summary, so the comparator diffs those numbers directly.
"""

import hashlib
import json
import os

from repro.harness.keys import canonical_json

#: Subdirectory (next to the manifest) that holds externalized blobs.
OBS_DIR = "obs"


def obs_address(blob):
    """The 16-hex-char content address of an obs blob."""
    return hashlib.sha256(
        canonical_json(blob).encode("utf-8")).hexdigest()[:16]


def obs_ref(blob):
    """The manifest-relative reference path of a blob."""
    return "%s/obs-%s.json" % (OBS_DIR, obs_address(blob))


def write_obs_blob(blob, manifest_path):
    """Write one blob next to ``manifest_path``; returns its ref."""
    ref = obs_ref(blob)
    target = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                          *ref.split("/"))
    os.makedirs(os.path.dirname(target), exist_ok=True)
    # Content-addressed: an existing file already holds these bytes.
    if not os.path.exists(target):
        with open(target, "w") as fh:
            json.dump(blob, fh, sort_keys=True, indent=1,
                      allow_nan=False)
            fh.write("\n")
    return ref


def externalize_obs(manifest, manifest_path):
    """Move inline obs blobs out of a manifest's records.

    Mutates the manifest's points in place; returns the number of
    blobs externalized.  Points without obs are untouched, so obs-off
    runs save byte-identical manifests to pre-obs versions.
    """
    moved = 0
    for point in manifest.points:
        record = point.get("record")
        if not isinstance(record, dict) or "obs" not in record:
            continue
        blob = record.pop("obs")
        if blob is None:
            continue
        point["obs"] = write_obs_blob(blob, manifest_path)
        moved += 1
    return moved


def load_obs_blob(point, base_dir):
    """The obs blob of one manifest point, or ``None``.

    Handles both forms: an inline ``record["obs"]`` dict (a manifest
    that was never externalized, e.g. straight from ``serve()``) and
    an externalized ``point["obs"]`` reference resolved against the
    manifest's directory.
    """
    record = point.get("record")
    if isinstance(record, dict):
        blob = record.get("obs")
        if isinstance(blob, dict):
            return blob
    ref = point.get("obs")
    if not isinstance(ref, str):
        return None
    path = os.path.join(base_dir, *ref.split("/"))
    with open(path) as fh:
        return json.load(fh)

