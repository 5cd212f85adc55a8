"""Flash command descriptors executed by :class:`repro.flash.element.FlashElement`.

Commands are *timed* objects: the FTL mutates logical/physical state when it
issues a command (so later commands in the queue observe consistent
mappings), and the element purely accounts for when the command finishes.
Each op carries a ``tag`` that attributes its time to host I/O, cleaning, or
wear-leveling — the accounting behind Tables 5 and 6.

``FlashOp`` is the public descriptor :meth:`FlashElement.enqueue` accepts.
The element's own issue helpers never build one: its FIFO holds plain
``(duration_us, accumulator, callback)`` tuples (see ``FlashElement``).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

__all__ = ["OpKind", "FlashOp", "TAG_HOST", "TAG_CLEAN", "TAG_WEAR"]

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


class FlashOp:
    """One flash command bound for a specific element.

    ``callback`` (if any) runs when the command completes, with the
    completion time as its only argument.  ``duration_us`` is filled in by
    the element when the op is enqueued.
    """

    __slots__ = ("kind", "nbytes", "tag", "callback", "duration_us")

    def __init__(
        self,
        kind: OpKind,
        nbytes: int = 0,
        tag: str = TAG_HOST,
        callback: Optional[Callable[[float], None]] = None,
        duration_us: float = 0.0,
    ) -> None:
        self.kind = kind
        self.nbytes = nbytes
        self.tag = tag
        self.callback = callback
        self.duration_us = duration_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashOp(kind={self.kind!r}, nbytes={self.nbytes}, "
            f"tag={self.tag!r}, callback={self.callback!r})"
        )
