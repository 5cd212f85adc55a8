"""Tests for the mechanical disk model."""

from __future__ import annotations

import pytest

from repro.device.interface import IORequest, OpType
from repro.hdd.disk import HDD, HDDConfig
from repro.hdd.geometry import DiskGeometry, Zone
from repro.hdd.seek import SeekModel
from repro.sim.engine import Simulator
from repro.units import GIB, KIB, MIB, SECTOR
from tests.conftest import run_io


class TestGeometry:
    def test_zone_construction(self):
        geometry = DiskGeometry(heads=2, zones=[Zone(10, 100), Zone(10, 50)])
        assert geometry.total_cylinders == 20
        assert geometry.total_sectors == 10 * 2 * 100 + 10 * 2 * 50
        assert geometry.capacity_bytes == geometry.total_sectors * SECTOR

    def test_locate_outer_zone(self):
        geometry = DiskGeometry(heads=2, zones=[Zone(10, 100), Zone(10, 50)])
        loc = geometry.locate(0)
        assert (loc.cylinder, loc.head, loc.sector) == (0, 0, 0)
        assert loc.sectors_per_track == 100

    def test_locate_inner_zone(self):
        geometry = DiskGeometry(heads=2, zones=[Zone(10, 100), Zone(10, 50)])
        loc = geometry.locate(10 * 2 * 100)  # first sector of zone 1
        assert loc.cylinder == 10
        assert loc.sectors_per_track == 50

    def test_locate_out_of_range(self):
        geometry = DiskGeometry(heads=2, zones=[Zone(10, 100)])
        with pytest.raises(ValueError):
            geometry.locate(geometry.total_sectors)

    def test_stock_capacity_close(self):
        geometry = DiskGeometry.stock(1 * GIB)
        assert abs(geometry.capacity_bytes - GIB) / GIB < 0.05

    def test_zones_taper_inward(self):
        geometry = DiskGeometry.stock(1 * GIB, n_zones=4)
        spts = [z.sectors_per_track for z in geometry.zones]
        assert spts == sorted(spts, reverse=True)


class TestSeekModel:
    def test_zero_distance_is_free(self):
        assert SeekModel().seek_us(0) == 0.0

    def test_monotone_in_distance(self):
        model = SeekModel.barracuda()
        times = [model.seek_us(d) for d in (1, 10, 100, 1000, 5000)]
        assert times == sorted(times)

    def test_piecewise_continuity(self):
        model = SeekModel(settle_us=100, sqrt_coeff_us=10,
                          linear_coeff_us=0.1, pivot_cylinders=100)
        below = model.seek_us(99)
        above = model.seek_us(101)
        assert abs(above - below) < model.seek_us(150) - model.seek_us(99)


class TestHDDBehaviour:
    def test_sequential_reads_fast_random_slow(self, sim):
        hdd = HDD(sim, HDDConfig(capacity_bytes=GIB))
        seq = [run_io(sim, hdd, OpType.READ, i * 64 * KIB, 64 * KIB)
               for i in range(8)]
        rand_offsets = [700 * MIB, 20 * MIB, 500 * MIB, 90 * MIB]
        rand = [run_io(sim, hdd, OpType.READ, off, 64 * KIB)
                for off in rand_offsets]
        seq_mean = sum(c.response_us for c in seq[1:]) / (len(seq) - 1)
        rand_mean = sum(c.response_us for c in rand) / len(rand)
        assert rand_mean > 3 * seq_mean

    def test_writeback_ack_fast(self, sim):
        hdd = HDD(sim, HDDConfig(capacity_bytes=GIB))
        first = run_io(sim, hdd, OpType.WRITE, 512 * MIB, 4 * KIB)
        # ack after interface transfer, long before the media settles
        assert first.response_us < 1000.0

    def test_flush_waits_for_drain(self, sim):
        hdd = HDD(sim, HDDConfig(capacity_bytes=GIB))
        done = []
        hdd.submit(IORequest(OpType.WRITE, 100 * MIB, 4 * KIB,
                             on_complete=done.append))
        flush = []
        hdd.submit(IORequest(OpType.FLUSH, 0, 0, on_complete=flush.append))
        sim.run_until_idle()
        assert flush
        assert hdd.stats.media_bytes_written == 4 * KIB

    def test_read_hits_write_cache(self, sim):
        hdd = HDD(sim, HDDConfig(capacity_bytes=GIB))
        done = []
        hdd.submit(IORequest(OpType.WRITE, 100 * MIB, 4 * KIB,
                             on_complete=done.append))
        # let the write land in the cache (acked) while the media is still
        # positioning for the drain, then read it back
        sim.run(until_us=300.0)
        assert done, "write should have been acknowledged from the cache"
        read = []
        hdd.submit(IORequest(OpType.READ, 100 * MIB, 4 * KIB,
                             on_complete=read.append))
        sim.run_until_idle()
        assert read[0].response_us < 1000.0  # cache, not media

    def test_readahead_serves_small_sequential(self, sim):
        hdd = HDD(sim, HDDConfig(capacity_bytes=GIB))
        first = run_io(sim, hdd, OpType.READ, 200 * MIB, 4 * KIB)
        second = run_io(sim, hdd, OpType.READ, 200 * MIB + 4 * KIB, 4 * KIB)
        assert second.response_us < first.response_us

    def test_free_is_noop(self, sim):
        hdd = HDD(sim, HDDConfig(capacity_bytes=GIB))
        completion = run_io(sim, hdd, OpType.FREE, 0, 4 * KIB)
        assert completion.complete_us >= 0
        assert hdd.stats.media_bytes_written == 0

    def test_outer_zone_faster_than_inner(self, sim):
        hdd = HDD(sim, HDDConfig(capacity_bytes=GIB))
        outer = [run_io(sim, hdd, OpType.READ, i * MIB, MIB) for i in range(4)]
        sim2 = Simulator()
        hdd2 = HDD(sim2, HDDConfig(capacity_bytes=GIB))
        base = hdd2.capacity_bytes - 8 * MIB
        inner = [run_io(sim2, hdd2, OpType.READ, base + i * MIB, MIB)
                 for i in range(4)]
        outer_t = sum(c.response_us for c in outer[1:])
        inner_t = sum(c.response_us for c in inner[1:])
        assert inner_t > outer_t * 1.2

    def test_wa_is_one(self, sim):
        hdd = HDD(sim, HDDConfig(capacity_bytes=GIB))
        for i in range(4):
            run_io(sim, hdd, OpType.WRITE, i * MIB, 64 * KIB)
        done = []
        hdd.submit(IORequest(OpType.FLUSH, 0, 0, on_complete=done.append))
        sim.run_until_idle()
        assert hdd.stats.write_amplification == pytest.approx(1.0)
