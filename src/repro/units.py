"""Byte and time unit constants shared across the simulator.

All simulated time in this package is expressed in *microseconds* as floats;
all sizes and addresses are expressed in *bytes* as ints.  This module holds
the conversion constants so that configuration code reads naturally
(``capacity=32 * GIB``, ``window=2 * MS``) and so unit mistakes are easy to
spot in review.
"""

from __future__ import annotations

# --- sizes (bytes) ---------------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Logical block (sector) size exported by the block interface.
SECTOR = 512

# --- times (microseconds) --------------------------------------------------
US = 1.0
MS = 1000.0
SEC = 1_000_000.0


def mb_per_s(nbytes: int, elapsed_us: float) -> float:
    """Bandwidth in MB/s (decimal-free: MiB/s is not used by the paper's
    tables, which quote MB/s; we follow the storage convention of 2**20).

    Returns 0.0 for a zero or negative elapsed time, which happens when a
    measurement window contained no completed I/O.
    """
    if elapsed_us <= 0.0:
        return 0.0
    return (nbytes / MIB) / (elapsed_us / SEC)


def align_up(value: int, granularity: int) -> int:
    """Smallest multiple of *granularity* that is >= *value*."""
    return -(-value // granularity) * granularity
