"""Seek-time model: settle + sqrt (short seeks) + linear (long seeks).

The standard piecewise fit used by disk simulators (DiskSim lineage):

    t(0) = 0
    t(d) = settle + a * sqrt(d)            for d <  pivot
    t(d) = settle + b + c * d              for d >= pivot

with continuity at the pivot.  Presets approximate the Barracuda 7200.11
the paper measured (~11 ms full stroke, ~2 ms single-cylinder-ish).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.checks import Checked, bounded

__all__ = ["SeekModel"]


@dataclass(frozen=True)
class SeekModel(Checked):
    """Piecewise seek curve over cylinder distance."""

    settle_us: float = bounded(500.0, ge=0)
    sqrt_coeff_us: float = bounded(90.0, ge=0)
    linear_coeff_us: float = bounded(0.04, ge=0)
    pivot_cylinders: int = bounded(12000, ge=0)
    head_switch_us: float = bounded(800.0, ge=0)

    def seek_us(self, distance_cylinders: int) -> float:
        d = abs(distance_cylinders)
        if d == 0:
            return 0.0
        if d < self.pivot_cylinders:
            return self.settle_us + self.sqrt_coeff_us * math.sqrt(d)
        at_pivot = self.sqrt_coeff_us * math.sqrt(self.pivot_cylinders)
        return self.settle_us + at_pivot + self.linear_coeff_us * (d - self.pivot_cylinders)

    @classmethod
    def barracuda(cls) -> "SeekModel":
        """Coefficients fitted for the *scaled-capacity* model drive so that
        average random positioning lands near the Barracuda 7200.11's ≈8 ms
        (the scaled drive has far fewer cylinders, so per-cylinder costs are
        proportionally higher)."""
        return cls(
            settle_us=500.0,
            sqrt_coeff_us=85.0,
            linear_coeff_us=0.5,
            pivot_cylinders=3000,
            head_switch_us=300.0,
        )
