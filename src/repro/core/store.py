"""The OSD object store: block management inside the device (§3.7).

:class:`ObjectStore` plays the role of the object-aware SSD firmware the
paper advocates.  It owns allocation and layout (stripe-aligned extents),
and because it *knows* object lifetimes and attributes it gets, for free,
each of the paper's proposed improvements:

* **stripe alignment** — extents are allocated in whole, aligned stripes,
  so object writes avoid the §3.4 read-modify-write amplification;
* **informed cleaning** — ``remove`` immediately issues FREE for the dead
  extents; with ``trim_enabled`` devices the cleaner stops preserving dead
  data (§3.5);
* **priority** — an object's priority attribute tags all its I/O, which the
  priority-aware cleaner defers to (§3.6);
* **cold placement** — read-only objects write with a ``temp="cold"`` hint,
  steering them onto the most-worn blocks (§3.5);
* **tier co-location** — on heterogeneous devices a placement policy pins
  hot/root objects into SLC (§3.3).

The store works over any device with ``capacity_bytes`` and ``submit``
(see :mod:`repro.device`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.allocator import ExtentAllocator
from repro.core.object import ObjectAttributes, ObjectDescriptor
from repro.core.placement import LinearPlacement
from repro.device.interface import IORequest, OpType, submit_pieces
from repro.units import align_up

__all__ = ["ObjectStore", "ObjectStoreError"]


class ObjectStoreError(RuntimeError):
    """Bad OSD command (unknown object, bad range, ...)."""


class ObjectStore:
    """An OSD front-end over a block device (see module docstring)."""

    def __init__(
        self,
        device,
        stripe_bytes: Optional[int] = None,
        placement=None,
    ) -> None:
        self.device = device
        self.sim = device.sim
        if stripe_bytes is None:
            stripe_bytes = self._native_stripe(device)
        self.stripe_bytes = stripe_bytes
        self.allocator = ExtentAllocator(device.capacity_bytes, stripe_bytes)
        self.placement = (
            placement if placement is not None
            else LinearPlacement(device.capacity_bytes)
        )
        self._objects: Dict[int, ObjectDescriptor] = {}
        self._next_oid = 1
        self.frees_issued = 0

    @staticmethod
    def _native_stripe(device) -> int:
        """Best-effort discovery of the device's natural alignment unit."""
        ftl = getattr(device, "ftl", None)
        if ftl is not None:
            return getattr(ftl, "logical_page_bytes", None) or getattr(
                ftl, "stripe_bytes"
            )
        return 4096

    # ------------------------------------------------------------------
    # OSD command set
    # ------------------------------------------------------------------

    def create(self, attributes: Optional[ObjectAttributes] = None) -> int:
        """CREATE: returns the new object id."""
        oid = self._next_oid
        self._next_oid += 1
        self._objects[oid] = ObjectDescriptor(
            oid=oid,
            attributes=attributes if attributes is not None else ObjectAttributes(),
        )
        return oid

    def list_objects(self) -> List[int]:
        return sorted(self._objects)

    def stat(self, oid: int) -> ObjectDescriptor:
        return self._descriptor(oid)

    def write(
        self,
        oid: int,
        offset: int,
        size: int,
        done: Optional[Callable[[Optional[str]], None]] = None,
    ) -> None:
        """WRITE: extends the object as needed (no sparse holes).  ``done``
        gets the first failed device request's error (None on success)."""
        descriptor = self._descriptor(oid)
        if offset > descriptor.size:
            raise ObjectStoreError(
                f"object {oid}: write at {offset} beyond size {descriptor.size} "
                "(sparse objects unsupported)"
            )
        if size <= 0:
            raise ObjectStoreError("write size must be positive")
        new_end = offset + size
        if new_end > self._allocated_bytes(descriptor):
            self._grow(descriptor, new_end)
        if new_end > descriptor.size:
            descriptor.size = new_end
        self._issue(descriptor, OpType.WRITE, offset, size, done)

    def read(
        self,
        oid: int,
        offset: int,
        size: int,
        done: Optional[Callable[[Optional[str]], None]] = None,
    ) -> None:
        """READ a logical byte range of the object; ``done`` as for
        :meth:`write`."""
        descriptor = self._descriptor(oid)
        if size <= 0:
            raise ObjectStoreError("read size must be positive")
        if offset + size > descriptor.size:
            raise ObjectStoreError(
                f"object {oid}: read [{offset}, {offset + size}) beyond size "
                f"{descriptor.size}"
            )
        self._issue(descriptor, OpType.READ, offset, size, done)

    def remove(self, oid: int,
               done: Optional[Callable[[Optional[str]], None]] = None) -> None:
        """REMOVE: free the object's extents and *tell the device* (FREE).

        This is the informed-cleaning hook: the device learns immediately
        that these stripes hold dead data.
        """
        descriptor = self._objects.pop(oid, None)
        if descriptor is None:
            raise ObjectStoreError(f"no such object {oid}")
        extents = descriptor.extents
        self.allocator.free(extents)
        self.frees_issued += len(extents)
        priority = descriptor.attributes.priority
        submit_pieces(self.sim, [
            (self.device, IORequest(OpType.FREE, extent.start, extent.length,
                                    priority=priority))
            for extent in extents
        ], done)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _descriptor(self, oid: int) -> ObjectDescriptor:
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectStoreError(f"no such object {oid}") from None

    @staticmethod
    def _allocated_bytes(descriptor: ObjectDescriptor) -> int:
        return sum(extent.length for extent in descriptor.extents)

    def _grow(self, descriptor: ObjectDescriptor, new_end: int) -> None:
        need = align_up(new_end, self.stripe_bytes) - self._allocated_bytes(descriptor)
        region = self.placement.region_for(descriptor.attributes)
        try:
            extents = self.allocator.allocate(need, region=region)
        except Exception:
            fallback = self.placement.fallback_region(descriptor.attributes)
            if fallback is None:
                raise
            extents = self.allocator.allocate(need, region=fallback)
        descriptor.extents.extend(extents)

    def _issue(
        self,
        descriptor: ObjectDescriptor,
        op: OpType,
        offset: int,
        size: int,
        done: Optional[Callable[[Optional[str]], None]],
    ) -> None:
        hints = None
        if op is OpType.WRITE and descriptor.attributes.read_only:
            hints = {"temp": "cold"}
        priority = descriptor.attributes.priority
        submit_pieces(self.sim, [
            (self.device, IORequest(op, start, length, priority=priority,
                                    hints=hints))
            for start, length in descriptor.physical_ranges(offset, size)
        ], done)
