"""Heterogeneous SLC+MLC SSD (paper §3.3, contract term 3).

"We believe that in the future, SSDs might be constructed with multiple
types of memories (SLC/MLC). ... Such heterogeneity in the address space can
be better utilized if the device performs block allocation for higher-level
objects.  For example, an SSD can choose to co-locate all the data belonging
to a root object in SLC memory for faster access."

:class:`TieredSSD` concatenates a fast (SLC) SSD and a dense (MLC) SSD into
one linear address space.  Through the *block* interface the split is
invisible and hot data lands wherever the file system happened to allocate
it — which is exactly why contract term 3 fails.  The object layer
(:mod:`repro.core.placement`) instead places objects by tier attribute.
"""

from __future__ import annotations

from functools import partial
from typing import List

from repro.device.interface import (
    DeviceStats, IORequest, OpType, StorageDevice, submit_pieces,
)
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.sim.engine import Simulator

__all__ = ["TieredSSD"]


class TieredSSD(StorageDevice):
    """Two SSDs glued into one address space: [0, slc) ++ [slc, slc+mlc)."""

    def __init__(self, sim: Simulator, slc_config: SSDConfig, mlc_config: SSDConfig):
        super().__init__(sim)
        self.slc = SSD(sim, slc_config)
        self.mlc = SSD(sim, mlc_config)

    @property
    def capacity_bytes(self) -> int:
        return self.slc.capacity_bytes + self.mlc.capacity_bytes

    @property
    def tier_boundary(self) -> int:
        """First byte of the MLC tier."""
        return self.slc.capacity_bytes

    @property
    def stats(self) -> DeviceStats:
        self._stats.media_bytes_written = (
            self.slc.stats.media_bytes_written + self.mlc.stats.media_bytes_written
        )
        return self._stats

    def submit(self, request: IORequest) -> None:
        self._accept(request)
        op = request.op
        priority = request.priority
        pieces: List[tuple[SSD, IORequest]] = []
        if op is OpType.FLUSH:
            pieces = [(self.slc, IORequest(op, 0, 0, priority=priority)),
                      (self.mlc, IORequest(op, 0, 0, priority=priority))]
        else:
            boundary = self.tier_boundary
            if request.offset < boundary:
                size = min(request.size, boundary - request.offset)
                pieces.append((self.slc, IORequest(op, request.offset, size,
                                                   priority=priority)))
            if request.end > boundary:
                start = max(request.offset, boundary)
                pieces.append((self.mlc, IORequest(op, start - boundary,
                                                   request.end - start,
                                                   priority=priority)))
        # the parent fails with its first failed piece
        submit_pieces(self.sim, pieces, partial(self._complete, request))
