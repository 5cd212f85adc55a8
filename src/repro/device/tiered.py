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

from typing import List

from repro.device.interface import DeviceStats, IORequest, OpType
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.sim.engine import Simulator

__all__ = ["TieredSSD"]


class TieredSSD:
    """Two SSDs glued into one address space: [0, slc) ++ [slc, slc+mlc)."""

    def __init__(self, sim: Simulator, slc_config: SSDConfig, mlc_config: SSDConfig):
        self.sim = sim
        self.slc = SSD(sim, slc_config)
        self.mlc = SSD(sim, mlc_config)
        self._stats = DeviceStats()

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
        request.validate(self.capacity_bytes)
        request.submit_us = self.sim.now
        boundary = self.tier_boundary
        pieces: List[tuple[SSD, int, int]] = []
        if request.op is OpType.FLUSH:
            pieces = [(self.slc, 0, 0), (self.mlc, 0, 0)]
        else:
            if request.offset < boundary:
                size = min(request.size, boundary - request.offset)
                pieces.append((self.slc, request.offset, size))
            if request.end > boundary:
                start = max(request.offset, boundary)
                pieces.append((self.mlc, start - boundary, request.end - start))

        remaining = [len(pieces)]

        def child_done(child: IORequest) -> None:
            # the parent fails with its first failed piece
            if request.error is None:
                request.error = child.error
            remaining[0] -= 1
            if remaining[0] == 0:
                self._complete(request)

        for device, offset, size in pieces:
            if request.op is OpType.FLUSH:
                child = IORequest(OpType.FLUSH, 0, 0,
                                  priority=request.priority, on_complete=child_done)
            else:
                child = IORequest(request.op, offset, size,
                                  priority=request.priority, on_complete=child_done)
            device.submit(child)

    def _complete(self, request: IORequest) -> None:
        request.complete_us = self.sim.now
        self._stats.record(request)
        if request.on_complete is not None:
            request.on_complete(request)
