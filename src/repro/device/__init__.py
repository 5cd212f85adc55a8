"""Storage devices: the SSD simulator plus the common block interface.

Everything that looks like a disk in this repo — the SSD, the HDD model,
RAID, MEMS, tiered SSDs — answers ``capacity_bytes``, ``stats`` and
``submit(request)``, with completion callbacks on the shared event loop.
Higher layers (workload drivers, the object store, the contract checker)
only ever see that interface.  The HDD, MEMS, RAID-5 and tiered models
derive from :class:`repro.device.interface.StorageDevice`, which holds the
one request prologue and the one completion; the SSD keeps its own, which
also run its NCQ slots and retries.
"""

from repro.device.interface import (
    Completion,
    DeviceStats,
    IORequest,
    OpType,
    StorageDevice,
)
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig

__all__ = [
    "Completion",
    "DeviceStats",
    "IORequest",
    "OpType",
    "StorageDevice",
    "SSD",
    "SSDConfig",
]
