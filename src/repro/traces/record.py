"""The trace record: one timestamped block-level operation.

Traces are the lingua franca between workload generators and devices.  A
record's ``op`` is the :class:`~repro.device.interface.OpType` member the
replay submits: READ, WRITE or FREE — FREE being the delete notification
that the paper's informed-cleaning experiment feeds the SSD (§3.5); devices
without trim support simply complete FREEs as no-ops.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from typing import Iterable, List

import numpy as np

from repro.device.interface import OpType

__all__ = ["TraceRecord", "build_records"]


_tuple_new = tuple.__new__  # bound once, as namedtuple's own __new__ does


class TraceRecord(namedtuple("TraceRecord",
                             ("time_us", "op", "offset", "size", "priority"))):
    """One operation: issue ``op`` on bytes [offset, offset+size) at
    ``time_us`` with the given priority class (0 = background).

    A tuple validated in ``__new__`` (also behind ``_make``/``_replace``
    and unpickling): replay builds one or two per request, and a tuple
    builds in under half a frozen slotted dataclass's time."""

    __slots__ = ()

    def __new__(cls, time_us: float, op: OpType, offset: int, size: int,
                priority: int = 0) -> "TraceRecord":
        if size <= 0:
            raise ValueError(f"trace record size must be positive, got {size}")
        if offset < 0:
            raise ValueError(f"trace record offset must be >= 0, got {offset}")
        if not time_us >= 0:  # also refuses NaN
            raise ValueError(f"trace record time must be >= 0, got {time_us}")
        return _tuple_new(cls, (time_us, op, offset, size, priority))

    @classmethod
    def _make(cls, iterable) -> "TraceRecord":
        return cls(*iterable)

    @property
    def end(self) -> int:
        return self.offset + self.size


def build_records(times: np.ndarray, ops: Iterable[OpType],
                  offsets: np.ndarray, size: int,
                  priorities: Iterable[int]) -> List[TraceRecord]:
    """Records from columns: one per entry of the ``times`` and ``offsets``
    arrays, with ``ops`` and ``priorities`` iterables in step and one
    ``size`` for all.

    The three checks of ``TraceRecord.__new__`` run over the whole columns
    first; if a record fails one, building that record raises the error
    ``__new__`` raises for it, and no record is returned.  Otherwise the
    records are built in C (``tuple.__new__`` mapped over the zipped
    columns), with Python floats and ints in their fields, not one
    ``__new__`` call each."""
    ok = (offsets >= 0) & (times >= 0)  # ``>=`` is False for NaN
    if size <= 0 or not ok.all():
        first = 0 if size <= 0 else int(np.argmin(ok))
        TraceRecord(float(times[first]), OpType.WRITE, int(offsets[first]),
                    size)
    return list(map(_tuple_new, repeat(TraceRecord),
                    zip(times.tolist(), ops, offsets.tolist(), repeat(size),
                        priorities)))
