"""Object model: descriptors and attributes.

Attributes carry exactly the semantic hints §3.7 argues the device should
receive: a priority class for QoS-sensitive I/O (scheduled ahead of
background cleaning), a read-only marker (cold data, placed on worn blocks
during wear-leveling), and a tier hint (SLC co-location for root/hot
objects on heterogeneous devices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.checks import Checked, bounded

__all__ = ["ObjectAttributes", "ObjectDescriptor"]


@dataclass
class ObjectAttributes(Checked):
    """Per-object semantic hints exported through the OSD interface."""

    #: >0 marks the object's I/O as foreground/priority (§3.6)
    priority: int = bounded(0, ge=0)
    #: read-only (cold) data: placed on the most-worn blocks (§3.5/§3.7)
    read_only: bool = False
    #: "fast" pins the object to the SLC tier of a heterogeneous device
    #: (§3.3); None lets the placement policy decide
    tier: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.tier not in (None, "fast", "capacity"):
            raise ValueError(f"tier must be None/'fast'/'capacity', got {self.tier!r}")


@dataclass
class ObjectDescriptor:
    """One object: identity, logical size, and its physical extents."""

    oid: int
    attributes: ObjectAttributes = field(default_factory=ObjectAttributes)
    size: int = 0
    #: physical layout, ordered by logical offset
    extents: List["Extent"] = field(default_factory=list)

    def physical_ranges(self, offset: int, size: int) -> List[Tuple[int, int]]:
        """Translate a logical byte range into physical (offset, size) pieces."""
        if offset < 0 or size < 0 or offset + size > self.size:
            raise ValueError(
                f"range [{offset}, {offset + size}) outside object of size "
                f"{self.size}"
            )
        pieces: List[Tuple[int, int]] = []
        logical = 0
        remaining_start, remaining = offset, size
        for extent in self.extents:
            if remaining == 0:
                break
            extent_end = logical + extent.length
            if remaining_start < extent_end:
                inner = remaining_start - logical
                take = min(extent.length - inner, remaining)
                pieces.append((extent.start + inner, take))
                remaining_start += take
                remaining -= take
            logical = extent_end
        if remaining:
            raise ValueError("extent map shorter than object size")
        return pieces
