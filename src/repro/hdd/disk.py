"""The HDD device: rotation, seeks, write-back cache, read-ahead, SSTF drain.

Service model
-------------
One mechanical assembly serves media jobs serially.  A job's service time is

    seek(|Δcylinder|) [+ head switch] + rotational wait + transfer,

with the rotational position derived from the continuous simulated clock
(the platter never stops).  Multi-track transfers pay a head/track switch per
boundary crossed.

Caching
-------
* Write-back cache (default on, as on the consumer drive the paper measured):
  writes acknowledge after the interface transfer and drain to media in the
  background, shortest-seek-first.  Reads overlapping a dirty extent are
  served from the cache.  This is why the paper's HDD random *writes*
  (1.3 MB/s) beat its random reads (0.6 MB/s).
* Track read-ahead: after a media read the rest of the track lands in the
  buffer, so small sequential reads stream at interface speed.

The host interface serializes data transfers (SATA-class bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nsmallest
from typing import Callable, List, Optional, Tuple

from repro.checks import Checked, bounded
from repro.device.interface import DeviceStats, IORequest, OpType
from repro.hdd.geometry import DiskGeometry, Location
from repro.hdd.seek import SeekModel
from repro.sim.engine import Simulator
from repro.sim.resource import SerialResource
from repro.units import GIB, SECTOR

__all__ = ["HDD", "HDDConfig"]

#: effectively-overlapped transfer (the drive streams to the host while
#: reading ahead), so the link rarely bounds throughput
INTERFACE_MB_S = 1000.0
#: write-back cache size (when ``HDDConfig.write_cache`` is on)
WRITE_CACHE_BYTES = 16 << 20


@dataclass(frozen=True)
class HDDConfig(Checked):
    """Parameters of the disk model (defaults ≈ Barracuda 7200.11, scaled)."""

    name: str = "hdd"
    capacity_bytes: int = bounded(4 * GIB, ge=SECTOR)
    heads: int = bounded(4, ge=1)
    n_zones: int = bounded(8, ge=1)
    outer_spt: int = bounded(1700, ge=1)
    inner_spt: int = bounded(950, ge=1)
    rpm: int = bounded(7200, ge=1)
    seek: SeekModel = field(default_factory=SeekModel.barracuda)
    controller_overhead_us: float = bounded(100.0, ge=0)
    write_cache: bool = True


class _MediaJob:
    __slots__ = ("op", "lba", "sectors", "callback", "loc")

    def __init__(self, op: OpType, lba: int, sectors: int,
                 callback: Callable[[], None], loc: Location):
        self.op = op
        self.lba = lba
        self.sectors = sectors
        self.callback = callback
        #: located once: the write-drain pick ranks every dirty job by it,
        #: and the pick's estimates and the service time read it again
        self.loc = loc


class HDD:
    """A mechanical disk implementing the StorageDevice protocol."""

    def __init__(self, sim: Simulator, config: Optional[HDDConfig] = None) -> None:
        self.sim = sim
        self.config = config if config is not None else HDDConfig()
        cfg = self.config
        self.geometry = DiskGeometry.stock(
            cfg.capacity_bytes,
            heads=cfg.heads,
            n_zones=cfg.n_zones,
            outer_spt=cfg.outer_spt,
            inner_spt=cfg.inner_spt,
        )
        self.rotation_us = 60_000_000.0 / cfg.rpm
        self.link = SerialResource(sim, INTERFACE_MB_S)
        self._stats = DeviceStats()

        self._current_cylinder = 0
        self._current_head = 0
        self._last_end_lba = -1
        self._media_busy = False
        self._inflight_job: Optional[_MediaJob] = None
        self._read_queue: List[_MediaJob] = []
        self._dirty: List[_MediaJob] = []
        self._dirty_bytes = 0
        self._ack_waiters: List[Tuple[IORequest, int]] = []
        self._flush_waiters: List[IORequest] = []
        #: (start_lba, end_lba) span held in the read-ahead buffer
        self._readahead_span: Tuple[int, int] = (0, 0)

    # ------------------------------------------------------------------
    # StorageDevice protocol
    # ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.geometry.capacity_bytes

    @property
    def stats(self) -> DeviceStats:
        return self._stats

    def submit(self, request: IORequest) -> None:
        request.validate(self.capacity_bytes)
        request.submit_us = self.sim.now
        self.sim.schedule(
            self.config.controller_overhead_us, self._dispatch, request
        )

    # ------------------------------------------------------------------

    def _dispatch(self, request: IORequest) -> None:
        op = request.op
        if op is OpType.READ:
            self._start_read(request)
        elif op is OpType.WRITE:
            self.link.transfer(
                request.size, lambda now, r=request: self._write_arrived(r)
            )
        elif op is OpType.FREE:
            self._complete(request)  # disks have no delete notion
        elif op is OpType.FLUSH:
            if self._dirty or self._media_busy:
                self._flush_waiters.append(request)
            else:
                self._complete(request)
        else:  # pragma: no cover
            raise ValueError(f"unhandled op {op!r}")

    # -- reads ------------------------------------------------------------

    def _start_read(self, request: IORequest) -> None:
        lba = request.offset // SECTOR
        sectors = request.size // SECTOR
        if self._cached(lba, sectors):
            # read-ahead hit: no positioning, but delivery is still paced by
            # the rate the media fills the buffer (zone-dependent)
            loc = self.geometry.locate(lba)
            pace = sectors * (self.rotation_us / loc.sectors_per_track)
            self.sim.schedule(
                pace,
                lambda r=request: self.link.transfer(
                    r.size, lambda now, rr=r: self._complete(rr)
                ),
            )
            return
        job = self._job(
            OpType.READ, lba, sectors,
            callback=lambda r=request: self._read_media_done(r),
        )
        self._read_queue.append(job)
        self._media_kick()

    def _cached(self, lba: int, sectors: int) -> bool:
        lo, hi = self._readahead_span
        if lo <= lba and lba + sectors <= hi:
            return True
        # cache also covers dirty (not yet written) data in the write buffer,
        # including the extent currently being written to the media
        candidates = list(self._dirty)
        if self._inflight_job is not None and self._inflight_job.op is OpType.WRITE:
            candidates.append(self._inflight_job)
        for job in candidates:
            if job.lba <= lba and lba + sectors <= job.lba + job.sectors:
                return True
        return False

    def _read_media_done(self, request: IORequest) -> None:
        # the drive keeps reading to the end of the track
        end_lba = request.offset // SECTOR + request.size // SECTOR
        loc = self.geometry.locate(min(end_lba, self.geometry.total_sectors - 1))
        to_track_end = loc.sectors_per_track - loc.sector
        self._readahead_span = (
            request.offset // SECTOR,
            min(end_lba + to_track_end, self.geometry.total_sectors),
        )
        self.link.transfer(request.size, lambda now, r=request: self._complete(r))

    # -- writes -----------------------------------------------------------

    def _write_arrived(self, request: IORequest) -> None:
        sectors = request.size // SECTOR
        if not self.config.write_cache:
            job = self._job(
                OpType.WRITE, request.offset // SECTOR, sectors,
                callback=lambda r=request: self._complete(r),
            )
            self._dirty.append(job)
            self._media_kick()
            return
        if self._dirty_bytes + request.size <= WRITE_CACHE_BYTES:
            self._absorb_write(request)
        else:
            self._ack_waiters.append((request, request.size))
        self._media_kick()

    def _absorb_write(self, request: IORequest) -> None:
        self._dirty_bytes += request.size
        job = self._job(OpType.WRITE, request.offset // SECTOR,
                        request.size // SECTOR,
                        callback=lambda s=request.size: self._drained(s))
        self._dirty.append(job)
        self._complete(request)

    def _drained(self, size: int) -> None:
        self._dirty_bytes -= size
        while self._ack_waiters:
            request, need = self._ack_waiters[0]
            if self._dirty_bytes + need > WRITE_CACHE_BYTES:
                break
            self._ack_waiters.pop(0)
            self._absorb_write(request)

    # -- the mechanical assembly -------------------------------------------

    def _job(self, op: OpType, lba: int, sectors: int,
             callback: Callable[[], None]) -> _MediaJob:
        return _MediaJob(op, lba, sectors, callback, self.geometry.locate(lba))

    def _media_kick(self) -> None:
        if self._media_busy:
            return
        job = self._next_job()
        if job is None:
            if not self._dirty:
                for request in self._flush_waiters:
                    self._complete(request)
                self._flush_waiters.clear()
            return
        self._media_busy = True
        self._inflight_job = job
        duration = self._service_time(job)
        self.sim.schedule(duration, self._media_done, job)

    def _next_job(self) -> Optional[_MediaJob]:
        """Reads first (hosts wait on them); dirty writes drain with a
        positioning-aware pick: among the 8 nearest-cylinder candidates,
        take the one with the smallest seek+rotation estimate (SATF-lite,
        the scheduling freedom a write-back cache buys the drive).
        ``heapq.nsmallest`` is documented equal to ``sorted(...)[:8]``, so
        cylinder ties go to the earlier dirty job, without sorting the
        whole queue per pick."""
        if self._read_queue:
            return self._read_queue.pop(0)
        dirty = self._dirty
        if not dirty:
            return None
        cylinder = self._current_cylinder
        nearest = nsmallest(8, range(len(dirty)),
                            key=lambda i: abs(dirty[i].loc.cylinder - cylinder))
        best = min(nearest, key=lambda i: self._positioning_estimate(dirty[i]))
        return dirty.pop(best)

    def _positioning_estimate(self, job: _MediaJob) -> float:
        """Seek + rotational wait if *job* started now (no state change)."""
        loc = job.loc
        seek = self.config.seek.seek_us(abs(loc.cylinder - self._current_cylinder))
        arrive = self.sim.now + seek
        sector_time = self.rotation_us / loc.sectors_per_track
        angle_sectors = (arrive % self.rotation_us) / sector_time
        wait_sectors = (loc.sector - angle_sectors) % loc.sectors_per_track
        return seek + wait_sectors * sector_time

    def _service_time(self, job: _MediaJob) -> float:
        cfg = self.config
        loc = job.loc
        distance = abs(loc.cylinder - self._current_cylinder)
        seek = cfg.seek.seek_us(distance)
        if distance == 0 and loc.head != self._current_head:
            seek += cfg.seek.head_switch_us

        arrive = self.sim.now + seek
        spt = loc.sectors_per_track
        sector_time = self.rotation_us / spt
        if job.lba == self._last_end_lba:
            # contiguous with the previous access: the read-ahead/write
            # coalescing hardware keeps streaming, no rotational re-sync
            rotational = 0.0
        else:
            angle_sectors = (arrive % self.rotation_us) / sector_time
            wait_sectors = (loc.sector - angle_sectors) % spt
            rotational = wait_sectors * sector_time

        transfer = job.sectors * sector_time
        crossings = (loc.sector + job.sectors - 1) // spt
        transfer += crossings * cfg.seek.head_switch_us

        self._current_cylinder = loc.cylinder
        self._current_head = loc.head
        self._last_end_lba = job.lba + job.sectors
        if job.op is OpType.WRITE:
            self._stats.media_bytes_written += job.sectors * SECTOR
        return seek + rotational + transfer

    def _media_done(self, job: _MediaJob) -> None:
        self._media_busy = False
        self._inflight_job = None
        job.callback()
        self._media_kick()

    # ------------------------------------------------------------------

    def _complete(self, request: IORequest) -> None:
        request.complete_us = self.sim.now
        self._stats.record(request)
        if request.on_complete is not None:
            request.on_complete(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HDD {self.config.name} cyl={self._current_cylinder} "
            f"dirty={len(self._dirty)}>"
        )
