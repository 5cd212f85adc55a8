#!/usr/bin/env python
"""The OSD object store (paper §3.7): block management inside the device.

Demonstrates the paper's proposed interface end to end:

* objects with attributes (priority, read-only, tier hints),
* device-side stripe-aligned allocation,
* REMOVE turning directly into free-page knowledge (informed cleaning),
* tier co-location of hot objects on a heterogeneous SLC+MLC device.

Run:  PYTHONPATH=src python examples/object_store.py
"""

from repro import Simulator
from repro.core.object import ObjectAttributes
from repro.core.placement import TieredPlacement
from repro.core.store import ObjectStore
from repro.device.presets import tiered_slc_mlc
from repro.units import KIB, MIB


def main() -> None:
    sim = Simulator()
    device = tiered_slc_mlc(sim, trim_enabled=True)
    placement = TieredPlacement(device.capacity_bytes, device.tier_boundary)
    store = ObjectStore(device, placement=placement)
    print(f"tiered device: {device.slc.capacity_bytes / MIB:.0f} MB SLC + "
          f"{device.mlc.capacity_bytes / MIB:.0f} MB MLC\n")

    # a hot database root object, pinned to the SLC tier
    root = store.create(ObjectAttributes(priority=1, tier="fast"))
    store.write(root, 0, 256 * KIB)

    # a cold read-only archive: capacity tier, cold placement hint
    archive = store.create(ObjectAttributes(read_only=True, tier="capacity"))
    store.write(archive, 0, 2 * MIB)

    # a scratch object that will be deleted
    scratch = store.create()
    store.write(scratch, 0, 1 * MIB)
    sim.run_until_idle()

    for name, oid in (("root", root), ("archive", archive), ("scratch", scratch)):
        descriptor = store.stat(oid)
        first = descriptor.extents[0]
        tier = "SLC" if first.start < device.tier_boundary else "MLC"
        print(f"{name:8s} oid={oid}  size={descriptor.size // KIB:5d} KiB  "
              f"extents={len(descriptor.extents)}  first extent in {tier}")

    # timed reads: the root object (SLC) vs the archive (MLC)
    for name, oid, size in (("root", root, 256 * KIB),
                            ("archive", archive, 256 * KIB)):
        start = sim.now
        finished = []
        store.read(oid, 0, size, done=lambda error: finished.append(sim.now))
        sim.run_until_idle()
        print(f"read 256 KiB of {name:8s}: {(finished[0] - start) / 1000:.2f} ms")

    # REMOVE = delete notification: the device learns immediately
    before = (device.slc.ftl.stats.trimmed_pages
              + device.mlc.ftl.stats.trimmed_pages)
    store.remove(scratch)
    sim.run_until_idle()
    after = (device.slc.ftl.stats.trimmed_pages
             + device.mlc.ftl.stats.trimmed_pages)
    print(f"\nremoved 'scratch': device invalidated {after - before} flash "
          "pages without copying them ever again")
    print(f"objects remaining: {store.list_objects()}")


if __name__ == "__main__":
    main()
