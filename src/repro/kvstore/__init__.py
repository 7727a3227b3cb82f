"""An LSM key-value store (the RocksDB stand-in of Section 4.2).

Public surface::

    from repro.kvstore import LSMStore
    from repro.sim import Machine

    m = Machine()
    db = LSMStore(m, mode="wal-flex", kind="optane")
    t = m.thread()
    db.put(t, b"key", b"value")
    assert db.get(t, b"key") == b"value"
    m.power_fail()
    db2 = LSMStore.recover(m, mode="wal-flex", kind="optane")
    assert db2.get(t, b"key") == b"value"
"""

from repro.kvstore.bloom import BloomFilter
from repro.kvstore.lsm import MODES, LSMStore
from repro.kvstore.manifest import Manifest
from repro.kvstore.memtable import VolatileMemtable
from repro.kvstore.persistent_skiplist import PersistentSkipList
from repro.kvstore.skiplist import SkipList
from repro.kvstore.sstable import SSTable
from repro.kvstore.study import SetResult, figure8, set_benchmark
from repro.kvstore.wal import WalFlex, WalPosix

__all__ = [
    "BloomFilter", "LSMStore", "MODES", "Manifest", "PersistentSkipList",
    "SSTable", "SetResult", "SkipList", "VolatileMemtable", "WalFlex",
    "WalPosix", "figure8", "set_benchmark",
]
