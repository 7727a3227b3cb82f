"""Common size and time units used throughout the simulator.

All simulated time is expressed in nanoseconds (floats), all sizes in
bytes (ints).  Keeping the unit helpers in one module avoids magic
numbers scattering through the code base.
"""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

CACHELINE = 64          # CPU cache line / DDR-T transfer granularity
XPLINE = 256            # 3D XPoint media access granularity
LINES_PER_XPLINE = XPLINE // CACHELINE

NS_PER_S = 1e9
US = 1000.0             # one microsecond, in ns
MS = 1000.0 * US


def gb_per_s(nbytes, ns):
    """Convert a (bytes, nanoseconds) pair into GB/s (decimal, as the paper plots)."""
    if ns <= 0:
        return 0.0
    return (nbytes / 1e9) / (ns / NS_PER_S)


def align_down(addr, granularity):
    """Round ``addr`` down to a multiple of ``granularity``."""
    return addr - (addr % granularity)


def align_up(addr, granularity):
    """Round ``addr`` up to a multiple of ``granularity``."""
    return addr + (-addr % granularity)
