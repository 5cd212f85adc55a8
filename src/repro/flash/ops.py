"""Accounting tags for :class:`repro.flash.element.FlashElement` commands.

Commands are *timed*: the FTL mutates logical/physical state when it
issues a command (so later commands in the queue observe consistent
mappings), and the element purely accounts for when the command finishes.
Each op carries a ``tag`` that attributes its time to host I/O, cleaning, or
wear-leveling — the accounting behind Tables 5 and 6.

There is no command object and no command-kind enum: each of the element's
issue helpers (read, program, erase, copy-back) times its command with the
matching :class:`repro.flash.timing.FlashTiming` method and queues a plain
``(duration_us, accumulator, callback, pages)`` tuple (see
``FlashElement``); a copy-back run is one tuple of several pages.
"""

from __future__ import annotations

__all__ = ["TAG_HOST", "TAG_CLEAN", "TAG_WEAR"]

TAG_HOST = "host"
TAG_CLEAN = "clean"
TAG_WEAR = "wear"
