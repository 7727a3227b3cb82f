"""Persistent object pools (the PMDK libpmemobj stand-in).

A pool is a namespace region with a header, a fixed log area per
transaction lane (:mod:`repro.pmdk.lane`), and a heap managed by
:class:`~repro.pmdk.alloc.Heap`.
Objects are referenced by pool offset (a ``PMEMoid`` without the pool
uuid, since we keep one pool per namespace region).
"""

import struct

from repro._units import KIB, MIB
from repro.pmdk.alloc import Heap

_HEADER = struct.Struct("<8sQQQ")
_MAGIC = b"PMDKPOOL"

HEADER_SIZE = 4 * KIB
LANE_SIZE = 64 * KIB
DEFAULT_LANES = 4


class PmemPool:
    """One persistent object pool on a namespace."""

    def __init__(self, machine, kind="optane", base=0, size=64 * MIB,
                 lanes=DEFAULT_LANES, _open=False):
        self.machine = machine
        self.ns = machine.namespace(kind)
        self.base = base
        self.size = size
        self.lanes = lanes
        self._root_offset = 0
        #: lane -> live log epoch, kept in DRAM (see repro.pmdk.lane).
        self.lane_epochs = {}
        if _open:
            # The persisted geometry, not the defaults, sizes the heap.
            self._read_header()
        heap_base = base + HEADER_SIZE + self.lanes * LANE_SIZE
        self.heap = Heap(heap_base, base + self.size - heap_base)

    # -- header ---------------------------------------------------------------

    def _write_header(self, thread):
        blob = _HEADER.pack(_MAGIC, self.size, self.lanes,
                            self._root_offset)
        self.ns.pwrite(thread, self.base, blob, instr="ntstore")

    def _read_header(self):
        raw = self.ns.read_persistent(self.base, _HEADER.size)
        magic, size, lanes, root = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError("no pool at %#x" % self.base)
        self.size = size
        self.lanes = lanes
        self._root_offset = root

    @classmethod
    def create(cls, machine, thread, kind="optane", base=0,
               size=64 * MIB, lanes=DEFAULT_LANES):
        pool = cls(machine, kind=kind, base=base, size=size, lanes=lanes)
        pool._write_header(thread)
        return pool

    @classmethod
    def open(cls, machine, kind="optane", base=0):
        return cls(machine, kind=kind, base=base, _open=True)

    # -- root object -----------------------------------------------------------

    def set_root(self, thread, offset):
        self._root_offset = offset
        self._write_header(thread)

    def root(self):
        return self._root_offset

    # -- lanes -------------------------------------------------------------------

    def lane_base(self, lane):
        if not 0 <= lane < self.lanes:
            raise ValueError("bad lane index")
        return self.base + HEADER_SIZE + lane * LANE_SIZE

    # -- raw object IO --------------------------------------------------------------

    def addr(self, offset):
        """Absolute namespace address of a pool offset."""
        return self.base + offset

    def read(self, thread, offset, size):
        return self.ns.pread(thread, self.addr(offset), size)

    def read_volatile(self, offset, size):
        return self.ns.read_volatile(self.addr(offset), size)

    def read_persistent(self, offset, size):
        return self.ns.read_persistent(self.addr(offset), size)

    def write(self, thread, offset, data, instr="clwb", fence=True):
        self.ns.pwrite(thread, self.addr(offset), data, instr=instr,
                       fence=fence)
