"""Content addressing for experiment results.

A cached result is only reusable when *everything* that influenced it
is unchanged: the experiment's name, the grid point's parameters, the
full simulator configuration and the package version.  ``point_key``
folds all four into one stable SHA-256 so the cache never has to guess
— any change to any input produces a different key and therefore a
miss, never a stale hit.
"""

import dataclasses
import functools
import hashlib
import json


def to_jsonable(value):
    """Convert a result value to plain JSON-serializable structures.

    Dataclasses become dicts, tuples become lists; anything already
    JSON-native passes through.  Unknown objects fall back to ``repr``
    so a cache write never crashes an experiment.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_json(value):
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(to_jsonable(value), sort_keys=True,
                      separators=(",", ":"))


def config_fingerprint(config=None):
    """Stable hash of a simulator :class:`MachineConfig` (or default)."""
    if config is None:
        return _default_fingerprint()
    return hashlib.sha256(
        canonical_json(config).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _default_fingerprint():
    """The default config's hash, computed once per process."""
    from repro.sim import default_config
    return config_fingerprint(default_config())


def point_key(experiment, params, config=None, version=None):
    """The content address of one experiment point.

    ``experiment`` names the workload (e.g. ``"lattester.sweep"`` or
    ``"experiment:fig4"``), ``params`` is the grid point, ``config``
    the simulator configuration it ran under (default config when
    omitted) and ``version`` the package version (current when
    omitted).
    """
    if version is None:
        from repro import __version__ as version
    payload = canonical_json({
        "experiment": experiment,
        "params": params,
        "config": config_fingerprint(config),
        "version": version,
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
