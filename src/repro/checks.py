"""Declared numeric bounds for the config dataclasses.

A config declares each numeric field's range where the field is declared,
and inherits the one check that enforces it when the config is built::

    @dataclass(frozen=True)
    class FlashGeometry(Checked):
        page_bytes: int = bounded(4096, ge=1)

NaN and ±inf are always refused, ``None`` passes (an ``Optional`` field),
and a tuple is checked entry by entry.  The error names the field and its
range, and prints NaN as ``NaN``::

    ValueError: bus_mb_per_s must be finite and > 0, got NaN

Rules that relate fields, and name checks, stay in the class's own
``__post_init__`` after ``super().__post_init__()``.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, field, fields
from math import isfinite, isnan
from typing import Any, NamedTuple, Optional

__all__ = ["BOUND", "Bound", "Checked", "bounded"]

#: the ``Field.metadata`` key a :func:`bounded` field's range is stored under
BOUND = "bound"

#: each limit of a :class:`Bound`, in field order: (wording, test)
_LIMITS = ((">=", operator.ge), (">", operator.gt), ("<=", operator.le),
           ("<", operator.lt))


class Bound(NamedTuple):
    """An admissible range of finite values; a limit left ``None`` does
    not apply."""

    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None

    def check(self, name: str, value: float) -> None:
        """Raise ``ValueError`` naming *name* unless *value* is in range."""
        limits = [(word, test, limit)
                  for (word, test), limit in zip(_LIMITS, self)
                  if limit is not None]
        if not (isfinite(value)
                and all(test(value, limit) for _, test, limit in limits)):
            wording = " and ".join(["finite"] + [f"{word} {limit}"
                                                 for word, _, limit in limits])
            shown = "NaN" if isnan(value) else value
            raise ValueError(f"{name} must be {wording}, got {shown}")


def bounded(default: Any = MISSING, *, ge: Optional[float] = None,
            gt: Optional[float] = None, le: Optional[float] = None,
            lt: Optional[float] = None) -> Any:
    """A dataclass field (with *default*, if given) that a
    :class:`Checked` class refuses outside ``Bound(ge, gt, le, lt)``."""
    return field(default=default, metadata={BOUND: Bound(ge, gt, le, lt)})


class Checked:
    """Base of the config dataclasses: building one checks every
    :func:`bounded` field."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for spec in fields(self):
            bound = spec.metadata.get(BOUND)
            if bound is None:
                continue
            value = getattr(self, spec.name)
            for entry in value if isinstance(value, tuple) else (value,):
                if entry is not None:
                    bound.check(spec.name, entry)
