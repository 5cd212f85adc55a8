"""Flash command timing and endurance parameters.

Defaults follow the SLC large-block datasheet lineage the paper cites
(Samsung K9XXG08UXM [18]; also the parameter table of Agrawal et al. 2008):

=====================  ========  ========
parameter              SLC       MLC
=====================  ========  ========
page read to register  25 µs     60 µs
page program           200 µs    680 µs
block erase            1.5 ms    3.3 ms
erase cycles           100 000   10 000
=====================  ========  ========

The serial pin bus moves data between controller and flash register at
~40 MB/s, so a 4 KB transfer costs ~100 µs — comparable to the read itself,
which is why bus ganging shows up in the paper's saw-tooth experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.checks import Checked, bounded

__all__ = ["FlashTiming"]

#: fixed command issue/decode overhead per flash command
CMD_OVERHEAD_US = 2.0


@dataclass(frozen=True)
class FlashTiming(Checked):
    """Timing and endurance for one flash element."""

    page_read_us: float = bounded(25.0, ge=0)
    page_program_us: float = bounded(200.0, ge=0)
    block_erase_us: float = bounded(1500.0, ge=0)
    #: serial bus bandwidth between controller and flash register
    bus_mb_per_s: float = bounded(40.0, gt=0)
    #: rated erase cycles per block before wear-out
    erase_cycles: int = bounded(100_000, ge=1)

    def transfer_us(self, nbytes: int) -> float:
        """Time to move *nbytes* over the serial pin bus."""
        if nbytes <= 0:
            return 0.0
        return nbytes / (self.bus_mb_per_s * 1024 * 1024 / 1_000_000.0)

    def read_us(self, nbytes: int) -> float:
        """Full page-read command: issue + array read + bus transfer out."""
        return CMD_OVERHEAD_US + self.page_read_us + self.transfer_us(nbytes)

    def program_us(self, nbytes: int) -> float:
        """Full program command: issue + bus transfer in + array program."""
        return CMD_OVERHEAD_US + self.transfer_us(nbytes) + self.page_program_us

    def erase_us(self) -> float:
        """Block erase command."""
        return CMD_OVERHEAD_US + self.block_erase_us

    def copy_us(self, nbytes: int) -> float:
        """Internal copy-back (read + program without crossing the bus).

        Used for cleaning moves within one element; real parts support
        copy-back to avoid the bus round trip.
        """
        return 2 * CMD_OVERHEAD_US + self.page_read_us + self.page_program_us

    # -- presets -----------------------------------------------------------

    @classmethod
    def slc(cls) -> "FlashTiming":
        """Single-level-cell NAND (datasheet defaults above)."""
        return cls()

    @classmethod
    def mlc(cls) -> "FlashTiming":
        """Multi-level-cell NAND: denser, slower writes/erases, 10k cycles."""
        return cls(
            page_read_us=60.0,
            page_program_us=680.0,
            block_erase_us=3300.0,
            erase_cycles=10_000,
        )

    def scaled(self, **overrides) -> "FlashTiming":
        """Copy with the given fields replaced (frozen-dataclass helper)."""
        return replace(self, **overrides)
