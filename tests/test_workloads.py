"""Tests for the workload drivers and microbenchmarks."""

from __future__ import annotations

import pytest

from repro.device.interface import OpType
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.sim.engine import Simulator
from repro.traces.record import TraceRecord
from repro.traces.synthetic import SyntheticConfig, generate_synthetic
from repro.units import KIB, MIB
from repro.workloads.driver import ClosedLoopDriver, WorkloadResult, replay_trace
from repro.workloads.microbench import measure_bandwidth, prepare_region
from tests.conftest import small_geometry


@pytest.fixture
def device(sim):
    return SSD(sim, SSDConfig(n_elements=4, geometry=small_geometry(),
                              controller_overhead_us=2.0, trim_enabled=True))


class TestReplay:
    def test_all_records_complete(self, sim, device):
        records = [
            TraceRecord(i * 50.0, OpType.WRITE, i * 4 * KIB, 4 * KIB)
            for i in range(20)
        ]
        result = replay_trace(sim, device, records)
        assert result.count == 20
        assert result.elapsed_us > 0

    def test_frees_replayed_but_not_collected_by_default(self, sim, device):
        records = [
            TraceRecord(0.0, OpType.WRITE, 0, 16 * KIB),
            TraceRecord(100.0, OpType.FREE, 0, 16 * KIB),
        ]
        result = replay_trace(sim, device, records)
        assert result.count == 1  # the write only
        assert device.ftl.stats.trimmed_pages == 4

    def test_time_scale_stretches_arrivals(self, sim, device):
        records = [
            TraceRecord(i * 100.0, OpType.WRITE, 0, 4 * KIB) for i in range(5)
        ]
        result = replay_trace(sim, device, records, time_scale=10.0)
        assert result.elapsed_us >= 4000.0

    def test_latency_filters(self, sim, device):
        records = [
            TraceRecord(0.0, OpType.WRITE, 0, 4 * KIB, 1),
            TraceRecord(50.0, OpType.READ, 0, 4 * KIB, 0),
        ]
        result = replay_trace(sim, device, records)
        assert result.latency(op=OpType.WRITE).count == 1
        assert result.latency(op=OpType.READ).count == 1
        assert result.latency(priority=True).count == 1
        assert result.latency(priority=False).count == 1

    def test_bandwidth_accounting(self, sim, device):
        records = [
            TraceRecord(i * 10.0, OpType.WRITE, i * 4 * KIB, 4 * KIB)
            for i in range(10)
        ]
        result = replay_trace(sim, device, records)
        assert result.bandwidth_mb_s(OpType.WRITE) > 0
        assert result.bandwidth_mb_s(OpType.READ) == 0


class TestClosedLoop:
    def test_issues_exactly_count(self, sim, device):
        result = ClosedLoopDriver(
            sim, device,
            lambda i: (OpType.WRITE, (i % 16) * 4 * KIB, 4 * KIB),
            count=30, depth=4,
        ).run()
        assert result.count == 30

    def test_depth_one_serializes(self, sim, device):
        result = ClosedLoopDriver(
            sim, device,
            lambda i: (OpType.WRITE, 0, 4 * KIB),
            count=5, depth=1,
        ).run()
        completions = sorted(result.completions, key=lambda c: c.submit_us)
        for prev, cur in zip(completions, completions[1:]):
            assert cur.submit_us >= prev.complete_us

    def test_priority_tuple_accepted(self, sim, device):
        result = ClosedLoopDriver(
            sim, device,
            lambda i: (OpType.WRITE, 0, 4 * KIB, 1),
            count=3, depth=1,
        ).run()
        assert all(c.priority == 1 for c in result.completions)

    def test_validation(self, sim, device):
        with pytest.raises(ValueError):
            ClosedLoopDriver(sim, device, lambda i: None, count=0)


class TestMicrobench:
    def test_prepare_then_measure_read(self, sim, device):
        region = 2 * MIB
        prepare_region(sim, device, region)
        result = measure_bandwidth(
            sim, device, OpType.READ, "seq", 64 * KIB, region, count=16
        )
        assert result.mb_per_s > 0
        assert result.count == 16

    def test_seq_pattern_wraps(self, sim, device):
        region = 256 * KIB
        prepare_region(sim, device, region, chunk_bytes=64 * KIB)
        result = measure_bandwidth(
            sim, device, OpType.READ, "seq", 64 * KIB, region, count=8
        )
        assert result.count == 8

    def test_bad_pattern_rejected(self, sim, device):
        with pytest.raises(ValueError):
            measure_bandwidth(sim, device, OpType.READ, "zigzag",
                              4 * KIB, MIB)

    def test_region_too_small_rejected(self, sim, device):
        with pytest.raises(ValueError):
            measure_bandwidth(sim, device, OpType.READ, "seq", MIB, 4 * KIB)


class TestSyntheticReplayIntegration:
    def test_priority_workload_on_device(self, sim, device):
        trace = generate_synthetic(SyntheticConfig(
            count=200, region_bytes=MIB, read_fraction=0.5,
            priority_fraction=0.2, seed=9,
        ))
        result = replay_trace(sim, device, trace)
        assert result.count == 200
        assert result.latency(priority=True).count > 10
        device.ftl.check_consistency()
