"""Micro-buffering (the Pangolin optimisation, Section 5.2.1).

Instead of issuing loads and undo-logged stores directly against
persistent memory, a micro-buffered transaction copies the object into
a DRAM staging buffer at ``open``, lets the program modify the staged
copy for free, and writes the whole object back at ``commit`` — with
non-temporal stores (``PGL-NT``, the original design) or with cached
stores plus clwb (``PGL-CLWB``, the paper's suggested tuning for small
objects).  The paper puts the crossover near 1 KB; Figure 15 measures
it between 256 B and 512 B here
(:data:`~repro.core.guidelines.NTSTORE_CROSSOVER_BYTES`).

Fault tolerance follows Pangolin: every object row belongs to a parity
group; commit updates the row's parity line with an XOR delta (one
64 B line per commit in this model).  ``redo=True`` selects a heavier
redo-image scheme instead: the staged image goes into the lane log as a
redo entry (the :mod:`repro.pmdk.lane` format undo transactions use)
before write-back, and the epoch bump after it retires the image.
:func:`recover_microbuffer` replays a live image after a crash — useful
when you need byte-exact recovery in tests.
"""

from repro._units import CACHELINE
from repro.pmdk.lane import REDO, encode, invalidate, recover_report
from repro.pmdk.pool import LANE_SIZE


class MicroBufferTx:
    """One micro-buffered transaction over a single object."""

    def __init__(self, pool, thread, lane=0, writeback="ntstore",
                 redo=False):
        if writeback not in ("ntstore", "clwb"):
            raise ValueError("writeback must be 'ntstore' or 'clwb'")
        self.pool = pool
        self.thread = thread
        self.lane = lane
        self.writeback = writeback
        self.redo = redo
        self._lane_base = pool.lane_base(lane)
        self._offset = None
        self._staged = None

    def open(self, offset, size):
        """Stage the object: one bulk read into DRAM."""
        if self._staged is not None:
            raise RuntimeError("an object is already staged")
        self._offset = offset
        self._staged = bytearray(self.pool.read(self.thread, offset, size))
        # The DRAM copy only exists once every fill has completed.
        self.thread.drain()
        return self._staged

    def commit(self):
        """Protect (parity or redo), write back, done."""
        if self._staged is None:
            raise RuntimeError("nothing staged")
        data = bytes(self._staged)
        if self.redo:
            self._append_redo(data)
        else:
            self._update_parity()
        self.pool.write(self.thread, self._offset, data,
                        instr=self.writeback)
        if self.redo:
            invalidate(self.pool, self.thread, self.lane)
        self._offset = None
        self._staged = None

    def discard(self):
        self._offset = None
        self._staged = None

    # -- parity (default Pangolin-style protection) ---------------------------

    def _update_parity(self):
        """XOR-delta one parity line in the lane area and fence."""
        parity_addr = self._lane_base + LANE_SIZE - CACHELINE
        self.pool.ns.pwrite(self.thread, parity_addr, b"\x00" * CACHELINE,
                            instr="ntstore")

    # -- redo image (optional byte-exact recovery) -------------------------------

    def _append_redo(self, data):
        blob = encode(self.pool, self.lane, REDO, self._offset, data)
        if CACHELINE + len(blob) > LANE_SIZE:
            raise RuntimeError("object too large for the lane log")
        self.pool.ns.ntstore(self.thread, self._lane_base + CACHELINE,
                             len(blob), data=blob)
        self.thread.sfence()


def recover_microbuffer(pool, thread):
    """Replay any committed-but-unapplied redo image after a crash
    (the one lane scan undo transactions recover with, too)."""
    return recover_report(pool, thread)[0]
