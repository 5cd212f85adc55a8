"""Tests for RAID-5, MEMS, and the tiered SLC+MLC device."""

from __future__ import annotations

import pytest

from repro.array.raid import RAID5, RAID5Config
from repro.device.interface import (
    DeviceStats, IORequest, OpType, submit_pieces,
)
from repro.device.presets import tiered_slc_mlc
from repro.hdd.disk import HDDConfig
from repro.mems.device import MEMSStore
from repro.sim.engine import Simulator
from repro.units import GIB, KIB, MIB
from tests.conftest import run_io


def make_raid(sim, **overrides):
    disk = HDDConfig(capacity_bytes=GIB)
    return RAID5(sim, RAID5Config(disk=disk, **overrides))


class ScriptedDevice:
    """A stand-in device: logs each request it is given and completes it
    *delay_us* later with *error*."""

    def __init__(self, sim, log, delay_us=1.0, error=None):
        self.sim = sim
        self.log = log
        self.delay_us = delay_us
        self.error = error
        self.stats = DeviceStats()

    def submit(self, request):
        self.log.append((self, request.offset))
        request.error = self.error
        self.sim.schedule(self.delay_us, request.on_complete, request)


class TestRAID5:
    def test_capacity_excludes_parity(self, sim):
        raid = make_raid(sim)
        per_disk = raid.disks[0].capacity_bytes
        assert raid.capacity_bytes == pytest.approx(per_disk * 3, rel=0.01)

    def test_needs_three_disks(self):
        with pytest.raises(ValueError):
            RAID5Config(n_disks=2)

    def test_small_write_amplifies_two_x(self, sim):
        raid = make_raid(sim)
        run_io(sim, raid, OpType.WRITE, 0, 4 * KIB)
        sim.run_until_idle()
        # data + parity written (reads don't count toward WA)
        assert raid.stats.write_amplification == pytest.approx(2.0)

    def test_small_write_issues_four_disk_ops(self, sim):
        raid = make_raid(sim)
        run_io(sim, raid, OpType.WRITE, 0, 4 * KIB)
        total_reads = sum(d.stats.reads for d in raid.disks)
        total_writes = sum(d.stats.writes for d in raid.disks)
        assert total_reads == 2   # old data + old parity
        assert total_writes == 2  # new data + new parity

    def test_read_touches_one_disk_per_chunk(self, sim):
        raid = make_raid(sim)
        run_io(sim, raid, OpType.READ, 0, 4 * KIB)
        assert sum(d.stats.reads for d in raid.disks) == 1

    def test_multi_chunk_read_spreads(self, sim):
        raid = make_raid(sim)
        run_io(sim, raid, OpType.READ, 0, 192 * KIB)  # 3 chunks
        busy = [d.stats.reads for d in raid.disks]
        assert sum(busy) == 3
        assert max(busy) == 1  # striped across distinct disks

    def test_parity_rotates(self, sim):
        raid = make_raid(sim)
        placements = {raid._place(stripe, 0, 0)[0] for stripe in range(4)}
        assert len(placements) > 1

    def test_scrub_counts_and_stops(self, sim):
        raid = make_raid(sim, scrub_interval_us=1000.0,
                         scrub_duration_us=10_000.0)
        sim.run_until_idle()
        assert 5 <= raid.scrub_reads <= 11

    def test_free_and_flush_complete(self, sim):
        raid = make_raid(sim)
        assert run_io(sim, raid, OpType.FREE, 0, 4 * KIB).complete_us >= 0
        assert run_io(sim, raid, OpType.FLUSH, 0, 0).complete_us >= 0

    def test_failed_member_piece_fails_the_request(self, sim):
        raid = make_raid(sim)
        raid.disks = [ScriptedDevice(sim, [], error="transient")
                      for _ in raid.disks]
        read = run_io(sim, raid, OpType.READ, 0, 4 * KIB)
        write = run_io(sim, raid, OpType.WRITE, 0, 4 * KIB)
        assert read.error == "transient"
        assert write.error == "transient"
        stats = raid.stats
        assert (stats.reads, stats.writes, stats.bytes_written,
                stats.requests_failed) == (0, 0, 0, 2)


class TestMEMS:
    def test_uniform_address_space(self, sim):
        mems = MEMSStore(sim)
        low = [run_io(sim, mems, OpType.READ, i * MIB, 256 * KIB)
               for i in range(3)]
        top = mems.capacity_bytes - 4 * MIB
        high = [run_io(sim, mems, OpType.READ, top + i * MIB, 256 * KIB)
                for i in range(3)]
        low_t = sum(c.response_us for c in low)
        high_t = sum(c.response_us for c in high)
        assert abs(low_t - high_t) / low_t < 0.2

    def test_seek_grows_with_distance(self, sim):
        # each store's sled starts at sector 0
        near, far = MEMSStore(sim), MEMSStore(sim)
        near_io = run_io(sim, near, OpType.READ, 100 * 512, 4 * KIB)
        far_io = run_io(sim, far, OpType.READ, far.capacity_bytes - 4 * KIB,
                        4 * KIB)
        assert far_io.response_us > near_io.response_us

    def test_sequential_streams_without_seek(self, sim):
        mems = MEMSStore(sim)
        base = mems.capacity_bytes // 2  # force a real seek for the first
        first = run_io(sim, mems, OpType.READ, base, 4 * KIB)
        second = run_io(sim, mems, OpType.READ, base + 4 * KIB, 4 * KIB)
        assert second.response_us < first.response_us

    def test_no_write_amplification(self, sim):
        mems = MEMSStore(sim)
        run_io(sim, mems, OpType.WRITE, 0, 64 * KIB)
        assert mems.stats.write_amplification == pytest.approx(1.0)

    def test_free_is_noop(self, sim):
        mems = MEMSStore(sim)
        assert run_io(sim, mems, OpType.FREE, 0, 4 * KIB).complete_us >= 0


class TestTieredSSD:
    def test_capacity_is_sum(self, sim):
        device = tiered_slc_mlc(sim)
        assert device.capacity_bytes == (
            device.slc.capacity_bytes + device.mlc.capacity_bytes
        )

    def test_routing_by_offset(self, sim):
        device = tiered_slc_mlc(sim)
        run_io(sim, device, OpType.WRITE, 0, 4 * KIB)
        run_io(sim, device, OpType.WRITE, device.tier_boundary, 4 * KIB)
        assert device.slc.stats.bytes_written == 4 * KIB
        assert device.mlc.stats.bytes_written == 4 * KIB

    def test_straddling_request_splits(self, sim):
        device = tiered_slc_mlc(sim)
        boundary = device.tier_boundary
        run_io(sim, device, OpType.WRITE, boundary - 4 * KIB, 8 * KIB)
        assert device.slc.stats.bytes_written == 4 * KIB
        assert device.mlc.stats.bytes_written == 4 * KIB

    def test_slc_reads_faster_than_mlc(self, sim):
        device = tiered_slc_mlc(sim)
        run_io(sim, device, OpType.WRITE, 0, 64 * KIB)
        run_io(sim, device, OpType.WRITE, device.tier_boundary, 64 * KIB)
        slc = run_io(sim, device, OpType.READ, 0, 64 * KIB)
        mlc = run_io(sim, device, OpType.READ, device.tier_boundary, 64 * KIB)
        assert slc.response_us < mlc.response_us

    def test_flush_fans_out(self, sim):
        device = tiered_slc_mlc(sim)
        assert run_io(sim, device, OpType.FLUSH, 0, 0).complete_us >= 0

    def test_failed_tier_write_fails_the_request(self, sim):
        device = tiered_slc_mlc(sim, 4, 4)
        device.mlc.ftl.enter_read_only()
        done = run_io(sim, device, OpType.WRITE, device.tier_boundary + 4 * KIB, 4 * KIB)
        assert device.mlc.stats.requests_failed == 1
        assert done.error == "readonly"
        assert device.stats.requests_failed == 1
        assert device.stats.writes == 0
        # a write straddling the tiers fails with its MLC piece
        straddling = run_io(sim, device, OpType.WRITE,
                            device.tier_boundary - 4 * KIB, 8 * KIB)
        assert straddling.error == "readonly"
        assert device.stats.requests_failed == 2


class TestSubmitPieces:
    def test_no_pieces_completes_after_the_call_returns(self, sim):
        calls = []
        submit_pieces(sim, [], calls.append)
        assert calls == []
        sim.run_until_idle()
        assert calls == [None]

    def test_failed_first_piece_keeps_its_error(self, sim):
        log = []
        fails_first = ScriptedDevice(sim, log, delay_us=1.0, error="transient")
        succeeds_later = ScriptedDevice(sim, log, delay_us=2.0)
        calls = []
        submit_pieces(sim, [
            (fails_first, IORequest(OpType.READ, 0, 4 * KIB)),
            (succeeds_later, IORequest(OpType.READ, 0, 4 * KIB)),
        ], calls.append)
        sim.run_until_idle()
        assert calls == ["transient"]
        assert sim.now == 2.0

    def test_pieces_reach_their_devices_in_order(self, sim):
        log = []
        first = ScriptedDevice(sim, log, delay_us=3.0)
        second = ScriptedDevice(sim, log, delay_us=1.0)
        calls = []
        submit_pieces(sim, [
            (first, IORequest(OpType.WRITE, 0, 4 * KIB)),
            (second, IORequest(OpType.WRITE, 4 * KIB, 4 * KIB)),
            (first, IORequest(OpType.WRITE, 8 * KIB, 4 * KIB)),
        ], calls.append)
        assert log == [(first, 0), (second, 4 * KIB), (first, 8 * KIB)]
        sim.run_until_idle()
        assert calls == [None]
        assert sim.now == 3.0
