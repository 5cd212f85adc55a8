"""NAND flash substrate: geometry, timing, and the parallel-element model.

An SSD (paper Figure 1) is a controller in front of *gangs of flash packages
with multiple planes*.  The unit of parallelism we simulate is the
*element* — one package (or die) that executes flash commands serially.
The FTL layer above decides which physical pages each command touches; the
element accounts for time and maintains the physical page state machine.
"""

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.flash.element import FlashElement, PageState
from repro.flash.wear import WearSummary, summarize_wear

__all__ = [
    "FlashGeometry",
    "FlashTiming",
    "FlashElement",
    "PageState",
    "WearSummary",
    "summarize_wear",
]
