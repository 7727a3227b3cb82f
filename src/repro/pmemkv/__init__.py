"""PMemKV: a persistent key-value engine (the cmap engine).

Public surface::

    from repro.pmdk import PmemPool
    from repro.pmemkv import CMap
    from repro.sim import Machine

    m = Machine()
    t = m.thread()
    pool = PmemPool.create(m, t)
    kv = CMap(pool)
    kv.put(t, b"key", b"value")
    assert kv.get(t, b"key") == b"value"
"""

from repro.pmemkv.btree import BPlusTree
from repro.pmemkv.cmap import CMap
from repro.pmemkv.study import (
    OverwriteResult, degradation, figure19, overwrite_benchmark,
)

__all__ = [
    "BPlusTree", "CMap", "OverwriteResult", "degradation", "figure19",
    "overwrite_benchmark",
]
