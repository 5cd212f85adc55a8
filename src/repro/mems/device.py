"""MEMS-based storage after Schlosser & Ganger [20] / Griffin et al. [12].

A spring-mounted media sled moves in X/Y over a fixed array of read/write
tips.  Seeks are two-dimensional and take the *maximum* of the two axes'
travel times (they actuate independently); both are sub-millisecond, so the
sequential/random gap is modest but real — which is why the paper's Table 1
marks every contract term satisfied for MEMS:

1. sequential beats random (small but positioning-dominated for small I/O),
2. LBN distance predicts positioning time,
3. the address space is uniform (no zoning),
4. no write amplification,
5. no practical wear-out (media, not charge-trap, limited),
6. fully passive.
"""

from __future__ import annotations

import math

from repro.device.interface import IORequest, OpType, StorageDevice
from repro.sim.engine import Simulator
from repro.sim.resource import SerialResource
from repro.units import MIB, SECTOR

__all__ = ["MEMSStore"]

CAPACITY_BYTES = 512 * MIB
#: media grid: sled positions in x, sectors per sled track in y
X_POSITIONS = 2500
#: full-sweep actuator times per axis
X_FULL_SWEEP_US = 800.0
Y_FULL_SWEEP_US = 500.0
SETTLE_US = 120.0
#: streaming rate once positioned (parallel tips)
MEDIA_MB_S = 25.0
INTERFACE_MB_S = 100.0
CONTROLLER_OVERHEAD_US = 15.0


class MEMSStore(StorageDevice):
    """A MEMS storage device (a :class:`StorageDevice`)."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self.sectors = CAPACITY_BYTES // SECTOR
        self.sectors_per_column = max(1, self.sectors // X_POSITIONS)
        self.link = SerialResource(sim, INTERFACE_MB_S)
        self._x = 0.0
        self._y = 0.0
        self._media_free_at = 0.0
        self._last_end_lba = -1

    @property
    def capacity_bytes(self) -> int:
        return self.sectors * SECTOR

    # ------------------------------------------------------------------

    def _position_of(self, lba: int) -> tuple[float, float]:
        """Sled coordinates in [0, 1]^2 for a logical sector (column-major:
        consecutive LBNs run down a column, then move one x position)."""
        column = lba // self.sectors_per_column
        row = lba % self.sectors_per_column
        x = min(1.0, column / max(1, X_POSITIONS - 1))
        y = row / max(1, self.sectors_per_column - 1)
        return x, y

    def submit(self, request: IORequest) -> None:
        self._accept(request)
        if request.op in (OpType.FREE, OpType.FLUSH):
            self.sim.schedule(CONTROLLER_OVERHEAD_US, self._complete, request)
            return
        self.sim.schedule(CONTROLLER_OVERHEAD_US, self._media_access, request)

    def _media_access(self, request: IORequest) -> None:
        lba = request.offset // SECTOR
        x1, y1 = self._position_of(lba)
        if lba == self._last_end_lba:
            # contiguous with the previous access: the sled keeps moving at
            # streaming velocity, no reposition/settle
            seek = 0.0
        else:
            tx = X_FULL_SWEEP_US * math.sqrt(abs(x1 - self._x))
            ty = Y_FULL_SWEEP_US * math.sqrt(abs(y1 - self._y))
            seek = max(tx, ty)
            if seek > 0:
                seek += SETTLE_US
        self._x, self._y = x1, y1
        self._last_end_lba = lba + request.size // SECTOR
        start = max(self.sim.now + seek, self._media_free_at)
        transfer = request.size / (MEDIA_MB_S * 1024 * 1024 / 1e6)
        self._media_free_at = start + transfer
        if request.op is OpType.WRITE:
            self._stats.media_bytes_written += request.size
        self.sim.schedule_at(
            self._media_free_at, self._transfer_out, request
        )

    def _transfer_out(self, request: IORequest) -> None:
        self.link.transfer(request.size, lambda now, r=request: self._complete(r))
