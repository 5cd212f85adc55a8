"""RAID-5 over model disks.

Included for the contract table (Table 1): the array breaks contract terms
the single disk keeps —

* term 4 (no write amplification): a small write performs the classic
  read-modify-write parity update (read old data + old parity, write new
  data + new parity), so media bytes written exceed host bytes;
* term 2 (distance ~ seek time): chunking across disks decouples LBN
  distance from any single arm's travel;
* term 6 (passive device): an optional background scrub keeps the array
  busy without host requests.

Parity is rotated per stripe (left-symmetric is overkill here; rotation is
what matters for load spreading).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional

from repro.checks import Checked, bounded
from repro.device.interface import (
    DeviceStats, IORequest, OpType, StorageDevice, submit_pieces,
)
from repro.hdd.disk import HDD, HDDConfig
from repro.sim.engine import Simulator
from repro.units import GIB, SECTOR

__all__ = ["RAID5", "RAID5Config"]

#: bytes each background scrub read covers
SCRUB_BYTES = 64 * 1024


@dataclass(frozen=True)
class RAID5Config(Checked):
    name: str = "raid5"
    #: RAID-5 needs at least two data disks and one parity disk
    n_disks: int = bounded(4, ge=3)
    chunk_bytes: int = bounded(64 * 1024, ge=SECTOR)
    disk: HDDConfig = field(default_factory=lambda: HDDConfig(capacity_bytes=GIB))
    #: issue a scrub read every interval (0 disables); term-6 probe material
    scrub_interval_us: float = bounded(0.0, ge=0)
    #: scrubbing stops after this much simulated time (keeps the event loop
    #: finite: an endless self-rescheduling scrub would never go idle)
    scrub_duration_us: float = bounded(1_000_000.0, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.chunk_bytes % SECTOR:
            raise ValueError("chunk must be sector aligned")


class RAID5(StorageDevice):
    """Software RAID-5 striping over :class:`repro.hdd.disk.HDD` members."""

    def __init__(self, sim: Simulator, config: Optional[RAID5Config] = None) -> None:
        super().__init__(sim)
        self.config = config if config is not None else RAID5Config()
        cfg = self.config
        self.disks: List[HDD] = [
            HDD(sim, replace(cfg.disk, name=f"{cfg.name}-d{i}"))
            for i in range(cfg.n_disks)
        ]
        data_disks = cfg.n_disks - 1
        chunks_per_disk = self.disks[0].capacity_bytes // cfg.chunk_bytes
        self._stripes = chunks_per_disk
        self._capacity = self._stripes * data_disks * cfg.chunk_bytes
        self.scrub_reads = 0
        self._scrub_position = 0
        if cfg.scrub_interval_us > 0:
            sim.schedule(cfg.scrub_interval_us, self._scrub_tick)

    # ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def stats(self) -> DeviceStats:
        self._stats.media_bytes_written = sum(
            d.stats.media_bytes_written for d in self.disks
        )
        return self._stats

    def submit(self, request: IORequest) -> None:
        self._accept(request)
        if request.op in (OpType.FREE, OpType.FLUSH):
            # once per request; the array has no dispatch pump to re-enter
            self.sim.schedule(0.0, self._complete, request)
            return
        pieces: List[tuple[HDD, IORequest]] = []
        for stripe, chunk_index, chunk_off, length in self._split(
                request.offset, request.size):
            if request.op is OpType.READ:
                disk_index, lba_offset = self._place(stripe, chunk_index,
                                                     chunk_off)
                pieces.append(
                    (self.disks[disk_index],
                     IORequest(OpType.READ, lba_offset, length,
                               priority=request.priority))
                )
            else:
                pieces.extend(
                    self._small_write(stripe, chunk_index, chunk_off, length,
                                      request.priority)
                )
        # the array request fails with its first failed member piece
        submit_pieces(self.sim, pieces, partial(self._complete, request))

    # ------------------------------------------------------------------

    def _split(self, offset: int, size: int):
        """Yield (stripe, chunk_index, offset_in_chunk, length) pieces."""
        cfg = self.config
        data_disks = cfg.n_disks - 1
        pos = offset
        end = offset + size
        while pos < end:
            chunk_global = pos // cfg.chunk_bytes
            stripe = chunk_global // data_disks
            chunk_index = chunk_global % data_disks
            chunk_off = pos % cfg.chunk_bytes
            length = min(cfg.chunk_bytes - chunk_off, end - pos)
            yield stripe, chunk_index, chunk_off, length
            pos += length

    def _place(self, stripe: int, chunk_index: int, chunk_off: int) -> tuple[int, int]:
        """Map a data chunk to (disk, byte offset); parity rotates by stripe."""
        cfg = self.config
        parity_disk = stripe % cfg.n_disks
        disk_index = chunk_index if chunk_index < parity_disk else chunk_index + 1
        return disk_index, stripe * cfg.chunk_bytes + chunk_off

    def _small_write(self, stripe, chunk_index, chunk_off, length, priority):
        """The RAID-5 small-write penalty: read old data and parity, write
        new data and parity (4 media ops on 2 disks)."""
        cfg = self.config
        data_index, data_off = self._place(stripe, chunk_index, chunk_off)
        data_disk = self.disks[data_index]
        parity_disk = self.disks[stripe % cfg.n_disks]
        parity_off = stripe * cfg.chunk_bytes + chunk_off
        return [
            (data_disk, IORequest(OpType.READ, data_off, length,
                                  priority=priority)),
            (parity_disk, IORequest(OpType.READ, parity_off, length,
                                    priority=priority)),
            (data_disk, IORequest(OpType.WRITE, data_off, length,
                                  priority=priority)),
            (parity_disk, IORequest(OpType.WRITE, parity_off, length,
                                    priority=priority)),
        ]

    def _scrub_tick(self) -> None:
        cfg = self.config
        if self.sim.now >= cfg.scrub_duration_us:
            return
        disk = self.disks[self._scrub_position % cfg.n_disks]
        offset = (self._scrub_position * SCRUB_BYTES) % (
            disk.capacity_bytes - SCRUB_BYTES
        )
        self._scrub_position += 1
        self.scrub_reads += 1
        disk.submit(IORequest(OpType.READ, offset, SCRUB_BYTES))
        self.sim.schedule(cfg.scrub_interval_us, self._scrub_tick)
