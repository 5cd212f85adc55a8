"""Flash element geometry.

An element is addressed as (block, page): ``blocks_per_element`` erase blocks
of ``pages_per_block`` pages of ``page_bytes`` bytes.  Planes and dies inside
a package matter for advanced command interleaving, which this simulator
folds into the element count (one element per independently-schedulable die),
matching how Agrawal et al. parameterize their simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checks import Checked, bounded

__all__ = ["FlashGeometry"]


@dataclass(frozen=True)
class FlashGeometry(Checked):
    """Physical layout of one flash element."""

    page_bytes: int = bounded(4096, ge=1)
    pages_per_block: int = bounded(64, ge=1)
    blocks_per_element: int = bounded(2048, ge=1)

    @property
    def block_bytes(self) -> int:
        return self.page_bytes * self.pages_per_block

    @property
    def pages_per_element(self) -> int:
        return self.pages_per_block * self.blocks_per_element

    @classmethod
    def with_capacity(
        cls,
        element_bytes: int,
        page_bytes: int = 4096,
        pages_per_block: int = 64,
    ) -> "FlashGeometry":
        """Geometry for an element of (at least) *element_bytes* capacity."""
        block_bytes = page_bytes * pages_per_block
        blocks = -(-element_bytes // block_bytes)
        return cls(
            page_bytes=page_bytes,
            pages_per_block=pages_per_block,
            blocks_per_element=blocks,
        )

    def page_index(self, block: int, page: int) -> int:
        """Flat physical page number for (block, page)."""
        return block * self.pages_per_block + page

    def block_of(self, ppn: int) -> int:
        return ppn // self.pages_per_block

    def page_of(self, ppn: int) -> int:
        return ppn % self.pages_per_block
