"""SSD configuration: one dataclass aggregating every knob of the simulator.

Presets for the paper's devices live in :mod:`repro.device.presets`; this
module only defines the schema and its validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.checks import Checked, bounded
from repro.flash.faults import FaultConfig
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.cleaning import CleaningConfig
from repro.ftl.wearlevel import WearConfig

__all__ = ["SSDConfig"]

FTL_TYPES = ("pagemap", "blockmap")
BUFFER_TYPES = ("passthrough", "align", "queue-merge")


@dataclass(frozen=True)
class SSDConfig(Checked):
    """Full parameterization of one simulated SSD."""

    name: str = "ssd"
    #: number of independently-schedulable flash elements (packages/dies)
    n_elements: int = bounded(8, ge=1)
    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timing: FlashTiming = field(default_factory=FlashTiming.slc)

    ftl_type: str = "pagemap"
    #: page-mapped FTL: mapping/striping unit (defaults to the flash page)
    logical_page_bytes: Optional[int] = bounded(None, ge=1)
    #: block-mapped FTL: elements per gang (defaults to all)
    gang_size: Optional[int] = bounded(None, ge=1)
    spare_fraction: float = bounded(0.10, gt=0, lt=1)

    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    wear: WearConfig = field(default_factory=WearConfig)
    #: process FREE (TRIM) notifications — the paper's informed mode (§3.5)
    trim_enabled: bool = False

    scheduler: str = "fcfs"
    #: maximum host requests being serviced concurrently (NCQ depth)
    max_inflight: int = bounded(32, ge=1)
    #: fixed firmware/protocol cost per host request
    controller_overhead_us: float = bounded(20.0, ge=0)
    #: host link (SATA/PCIe) bandwidth
    host_interface_mb_s: float = bounded(250.0, gt=0)

    write_buffer: str = "passthrough"
    #: alignment unit of the merging buffers (defaults to the FTL stripe)
    buffer_page_bytes: Optional[int] = bounded(None, ge=1)
    #: write-back cache: idle time after which a partial page flushes
    buffer_window_us: float = bounded(1000.0, ge=0)
    #: write-back cache: buffered bytes above which the oldest page flushes
    buffer_capacity_bytes: int = bounded(1 << 20, ge=1)

    #: flash failure injection (None or ``enabled=False`` leaves every
    #: fault hook dormant — runs are bit-identical to the fault-free model)
    faults: Optional[FaultConfig] = None
    #: host-side retries for writes failing with a transient device error
    host_retry_limit: int = bounded(2, ge=0)
    #: backoff before the first retry; doubles per subsequent attempt
    host_retry_backoff_us: float = bounded(100.0, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ftl_type not in FTL_TYPES:
            raise ValueError(f"ftl_type must be one of {FTL_TYPES}")
        if self.write_buffer not in BUFFER_TYPES:
            raise ValueError(f"write_buffer must be one of {BUFFER_TYPES}")
