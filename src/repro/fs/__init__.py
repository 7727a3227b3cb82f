"""NOVA-like log-structured file system + DAX comparators + FIO.

Public surface::

    from repro.fs import NovaFS
    from repro.sim import Machine

    m = Machine()
    fs = NovaFS(m, datalog=True)
    t = m.thread()
    inode = fs.create(t)
    fs.write(t, inode, 0, b"hello")
    assert fs.read(t, inode, 0, 5) == b"hello"
    m.power_fail()
    fs2 = NovaFS.mount(m, datalog=True)
    assert fs2.read_persistent_file(inode, 0, 5) == b"hello"
"""

from repro.fs.cleaner import clean_file
from repro.fs.dax import DAXFileSystem
from repro.fs.fio import FIOResult, run_fio
from repro.fs.layout import PAGE, AllocationPolicy, PageAllocator
from repro.fs.log import InodeLog, encode_entry
from repro.fs.nova import NovaFS
from repro.fs.study import (
    FIG12_SYSTEMS, IOLatency, figure12, figure17, file_io_latency,
)

__all__ = [
    "AllocationPolicy", "DAXFileSystem", "FIG12_SYSTEMS",
    "FIOResult", "IOLatency", "InodeLog", "NovaFS",
    "PAGE", "PageAllocator",
    "clean_file", "encode_entry",
    "figure12", "figure17", "file_io_latency", "run_fio",
]
