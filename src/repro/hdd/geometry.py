"""Zoned disk geometry: LBA -> (cylinder, head, sector) translation.

Zoned bit recording gives outer cylinders more sectors per track than inner
ones, so outer-zone bandwidth is higher — the reason contract term 3 ("LBN
spaces can be interchanged") fails on disks.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Tuple

from repro.units import SECTOR

__all__ = ["Zone", "DiskGeometry", "Location"]


@dataclass(frozen=True)
class Zone:
    """A contiguous run of cylinders sharing one sectors-per-track count."""

    cylinders: int
    sectors_per_track: int

    def __post_init__(self) -> None:
        if self.cylinders <= 0 or self.sectors_per_track <= 0:
            raise ValueError("zone fields must be positive")


@dataclass(frozen=True)
class Location:
    """Physical position of one logical sector."""

    cylinder: int
    head: int
    sector: int
    sectors_per_track: int


class DiskGeometry:
    """Cylinder-major layout over a list of zones (outermost first)."""

    def __init__(self, heads: int, zones: List[Zone]) -> None:
        if heads <= 0:
            raise ValueError("heads must be positive")
        if not zones:
            raise ValueError("at least one zone required")
        self.heads = heads
        self.zones = list(zones)
        self._zone_start_cyl: List[int] = []
        self._zone_start_sector: List[int] = []
        cyl = 0
        sector = 0
        for zone in self.zones:
            self._zone_start_cyl.append(cyl)
            self._zone_start_sector.append(sector)
            cyl += zone.cylinders
            sector += zone.cylinders * heads * zone.sectors_per_track
        self.total_cylinders = cyl
        self.total_sectors = sector
        self.capacity_bytes = sector * SECTOR

    def locate(self, lba: int) -> Location:
        """Physical location of logical sector *lba*."""
        if not 0 <= lba < self.total_sectors:
            raise ValueError(f"lba {lba} out of range [0, {self.total_sectors})")
        index = bisect.bisect_right(self._zone_start_sector, lba) - 1
        zone = self.zones[index]
        rel = lba - self._zone_start_sector[index]
        sectors_per_cyl = self.heads * zone.sectors_per_track
        cylinder = self._zone_start_cyl[index] + rel // sectors_per_cyl
        rem = rel % sectors_per_cyl
        return Location(
            cylinder=cylinder,
            head=rem // zone.sectors_per_track,
            sector=rem % zone.sectors_per_track,
            sectors_per_track=zone.sectors_per_track,
        )

    @classmethod
    def stock(cls, capacity_bytes: int, heads: int = 4, n_zones: int = 8,
              outer_spt: int = 1600, inner_spt: int = 900) -> "DiskGeometry":
        """Build a geometry of roughly *capacity_bytes* with a linear
        outer-to-inner sectors-per-track taper (7200.11-flavoured)."""
        spts = [
            outer_spt - (outer_spt - inner_spt) * z // max(1, n_zones - 1)
            for z in range(n_zones)
        ]
        per_zone_bytes = capacity_bytes / n_zones
        zones = []
        for spt in spts:
            track_bytes = spt * SECTOR
            cylinders = max(1, round(per_zone_bytes / (track_bytes * heads)))
            zones.append(Zone(cylinders=cylinders, sectors_per_track=spt))
        return cls(heads=heads, zones=zones)
