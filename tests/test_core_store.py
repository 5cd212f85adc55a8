"""Tests for the OSD object store and the block-FS baseline."""

from __future__ import annotations

import pytest

from repro.core.fs_shim import BlockFilesystem, FilesystemError
from repro.core.object import ObjectAttributes
from repro.core.placement import TieredPlacement
from repro.core.store import ObjectStore, ObjectStoreError
from repro.device.presets import tiered_slc_mlc
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.sim.engine import Simulator
from repro.units import KIB
from tests.conftest import small_geometry


@pytest.fixture
def store(sim):
    ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry(),
                             trim_enabled=True, controller_overhead_us=2.0))
    return ObjectStore(ssd)


def settle(sim):
    sim.run_until_idle()


class TestLifecycle:
    def test_create_returns_unique_ids(self, sim, store):
        ids = [store.create() for _ in range(5)]
        assert len(set(ids)) == 5
        assert store.list_objects() == sorted(ids)

    def test_write_extends_object(self, sim, store):
        oid = store.create()
        store.write(oid, 0, 10 * KIB)
        settle(sim)
        assert store.stat(oid).size == 10 * KIB

    def test_append_grows(self, sim, store):
        oid = store.create()
        store.write(oid, 0, 4 * KIB)
        store.write(oid, 4 * KIB, 4 * KIB)
        settle(sim)
        assert store.stat(oid).size == 8 * KIB

    def test_sparse_write_rejected(self, sim, store):
        oid = store.create()
        with pytest.raises(ObjectStoreError):
            store.write(oid, 4 * KIB, 4 * KIB)

    def test_read_within_bounds(self, sim, store):
        oid = store.create()
        store.write(oid, 0, 8 * KIB)
        settle(sim)
        fired = []
        store.read(oid, 0, 8 * KIB, done=lambda: fired.append(True))
        settle(sim)
        assert fired

    def test_read_beyond_size_rejected(self, sim, store):
        oid = store.create()
        store.write(oid, 0, 4 * KIB)
        settle(sim)
        with pytest.raises(ObjectStoreError):
            store.read(oid, 0, 8 * KIB)

    def test_unknown_object_rejected(self, store):
        with pytest.raises(ObjectStoreError):
            store.read(999, 0, 4 * KIB)
        with pytest.raises(ObjectStoreError):
            store.remove(999)

    def test_remove_frees_space(self, sim, store):
        oid = store.create()
        store.write(oid, 0, 64 * KIB)
        settle(sim)
        free = store.allocator.free_bytes
        store.remove(oid)
        settle(sim)
        assert store.allocator.free_bytes > free
        assert oid not in store.list_objects()


class TestInformedCleaningHook:
    def test_remove_issues_trims(self, sim, store):
        oid = store.create()
        store.write(oid, 0, 32 * KIB)
        settle(sim)
        assert store.device.ftl.stats.trimmed_pages == 0
        store.remove(oid)
        settle(sim)
        assert store.frees_issued >= 1
        assert store.device.ftl.stats.trimmed_pages == 8

    def test_allocation_is_stripe_aligned(self, sim, store):
        oid = store.create()
        store.write(oid, 0, 5 * KIB)
        settle(sim)
        for extent in store.stat(oid).extents:
            assert extent.start % store.stripe_bytes == 0
            assert extent.length % store.stripe_bytes == 0


class TestAttributes:
    def test_priority_propagates_to_requests(self, sim, store):
        oid = store.create(ObjectAttributes(priority=1))
        store.write(oid, 0, 4 * KIB)
        # the object's write reaches the device as priority traffic
        assert store.device.ftl.priority_probe() == 1
        settle(sim)
        assert store.device.ftl.priority_probe() == 0

    def test_read_only_objects_write_cold(self, sim, store):
        # cold hint routes allocation to the most-worn free blocks
        ftl = store.device.ftl
        for el in ftl.elements:
            el.erase_count[5] = 50  # make block 5 the most worn everywhere
        oid = store.create(ObjectAttributes(read_only=True))
        store.write(oid, 0, 8 * KIB)
        settle(sim)
        assert any(
            "cold" in frontiers and frontiers["cold"] == 5
            for frontiers in ftl._frontier
        )

    def test_attribute_validation(self):
        with pytest.raises(ValueError):
            ObjectAttributes(priority=-1)
        with pytest.raises(ValueError):
            ObjectAttributes(tier="warm")


class TestTieredPlacementIntegration:
    def test_fast_objects_land_in_slc(self, sim):
        device = tiered_slc_mlc(sim)
        placement = TieredPlacement(device.capacity_bytes, device.tier_boundary)
        store = ObjectStore(device, stripe_bytes=4 * KIB, placement=placement)
        hot = store.create(ObjectAttributes(tier="fast"))
        store.write(hot, 0, 16 * KIB)
        cold = store.create(ObjectAttributes(tier="capacity"))
        store.write(cold, 0, 16 * KIB)
        sim.run_until_idle()
        for extent in store.stat(hot).extents:
            assert extent.end <= device.tier_boundary
        for extent in store.stat(cold).extents:
            assert extent.start >= device.tier_boundary

    def test_fallback_when_preferred_tier_full(self, sim):
        device = tiered_slc_mlc(sim, slc_element_mb=4)
        placement = TieredPlacement(device.capacity_bytes, device.tier_boundary)
        store = ObjectStore(device, stripe_bytes=4 * KIB, placement=placement)
        hot = store.create(ObjectAttributes(tier="fast"))
        store.write(hot, 0, device.tier_boundary)  # fill the whole SLC tier
        spill = store.create(ObjectAttributes(tier="fast"))
        store.write(spill, 0, 16 * KIB)  # must fall back to MLC
        sim.run_until_idle()
        assert any(e.start >= device.tier_boundary
                   for e in store.stat(spill).extents)


class TestBlockFilesystem:
    def test_create_delete_cycle(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry(),
                                 controller_overhead_us=2.0))
        fs = BlockFilesystem(ssd)
        fid = fs.create(40 * KIB)
        settle(sim)
        fs.delete(fid)
        settle(sim)
        with pytest.raises(FilesystemError):
            fs.delete(fid)

    def test_no_trims_without_pseudo_driver(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry(),
                                 trim_enabled=True, controller_overhead_us=2.0))
        fs = BlockFilesystem(ssd, pseudo_driver=False)
        fid = fs.create(16 * KIB)
        settle(sim)
        fs.delete(fid)
        settle(sim)
        assert ssd.ftl.stats.trimmed_pages == 0

    def test_pseudo_driver_issues_trims(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry(),
                                 trim_enabled=True, controller_overhead_us=2.0))
        fs = BlockFilesystem(ssd, pseudo_driver=True)
        fid = fs.create(16 * KIB)
        settle(sim)
        fs.delete(fid)
        settle(sim)
        assert ssd.ftl.stats.trimmed_pages == 4

    def test_bad_operations(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry()))
        fs = BlockFilesystem(ssd)
        with pytest.raises(FilesystemError):
            fs.delete(42)
        with pytest.raises(FilesystemError):
            fs.create(0)
