"""Flash command kinds and accounting tags for :class:`repro.flash.element.FlashElement`.

Commands are *timed*: the FTL mutates logical/physical state when it
issues a command (so later commands in the queue observe consistent
mappings), and the element purely accounts for when the command finishes.
Each op carries a ``tag`` that attributes its time to host I/O, cleaning, or
wear-leveling — the accounting behind Tables 5 and 6.

There is no command object: the element's issue helpers queue plain
``(duration_us, accumulator, callback)`` tuples (see ``FlashElement``), and
this module holds only the command kinds and the accounting tags.
"""

from __future__ import annotations

import enum

__all__ = ["OpKind", "TAG_HOST", "TAG_CLEAN", "TAG_WEAR"]

TAG_HOST = "host"
TAG_CLEAN = "clean"
TAG_WEAR = "wear"


class OpKind(enum.Enum):
    """The four primitive flash commands the simulator times."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"
    #: internal read+program within one element (copy-back), used for cleaning
    COPY = "copy"
