"""Tests for trace records and the workload generators."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.device.interface import OpType
from repro.traces.exchange import ExchangeConfig, generate_exchange
from repro.traces.filesystem import AllocationError, Ext3LiteAllocator
from repro.traces.iozone import RECORD_BYTES, IOzoneConfig, generate_iozone
from repro.traces.postmark import PostmarkConfig, generate_postmark
from repro.traces.record import TraceRecord
from repro.traces.synthetic import SyntheticConfig, generate_synthetic
from repro.traces.tpcc import TPCCConfig, generate_tpcc
from repro.units import MIB


class TestRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(0.0, OpType.READ, 0, 0)
        with pytest.raises(ValueError):
            TraceRecord(0.0, OpType.READ, -1, 512)
        with pytest.raises(ValueError):
            TraceRecord(-1.0, OpType.READ, 0, 512)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            TraceRecord(float("nan"), OpType.READ, 0, 512)


class TestSynthetic:
    def test_deterministic(self):
        config = SyntheticConfig(count=50, seed=7)
        assert generate_synthetic(config) == generate_synthetic(config)

    def test_count_and_bounds(self):
        config = SyntheticConfig(count=200, region_bytes=MIB, request_bytes=4096)
        records = generate_synthetic(config)
        assert len(records) == 200
        for record in records:
            assert 0 <= record.offset
            assert record.end <= MIB

    def test_read_fraction(self):
        config = SyntheticConfig(count=2000, read_fraction=0.7, seed=3)
        records = generate_synthetic(config)
        reads = sum(1 for r in records if r.op is OpType.READ)
        assert 0.65 < reads / len(records) < 0.75

    def test_full_sequentiality_is_contiguous(self):
        config = SyntheticConfig(count=100, seq_probability=1.0,
                                 region_bytes=4 << 20)
        records = generate_synthetic(config)
        for prev, cur in zip(records, records[1:]):
            assert cur.offset == prev.end or cur.offset == 0  # wrap allowed

    def test_priority_fraction(self):
        config = SyntheticConfig(count=3000, priority_fraction=0.1, seed=5)
        records = generate_synthetic(config)
        tagged = sum(1 for r in records if r.priority > 0)
        assert 0.07 < tagged / len(records) < 0.13

    def test_timestamps_monotone(self):
        records = generate_synthetic(SyntheticConfig(count=100))
        times = [r.time_us for r in records]
        assert times == sorted(times)

    def test_poisson_same_mean(self):
        uniform = generate_synthetic(
            SyntheticConfig(count=5000, interarrival_max_us=100.0, seed=1))
        poisson = generate_synthetic(
            SyntheticConfig(count=5000, interarrival_max_us=100.0,
                            arrival_process="poisson", seed=1))
        mean_u = uniform[-1].time_us / len(uniform)
        mean_p = poisson[-1].time_us / len(poisson)
        assert abs(mean_u - mean_p) / mean_u < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(count=0)
        with pytest.raises(ValueError):
            SyntheticConfig(read_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(request_bytes=100)
        with pytest.raises(ValueError):
            SyntheticConfig(arrival_process="bursty")


class TestAllocator:
    def test_allocate_and_free_round_trip(self):
        alloc = Ext3LiteAllocator(1000, blocks_per_group=100)
        blocks = alloc.allocate(10)
        assert len(blocks) == 10
        assert alloc.free_blocks == 990
        alloc.free(blocks)
        assert alloc.free_blocks == 1000

    def test_goal_pointer_cycles_before_reuse(self):
        alloc = Ext3LiteAllocator(100, blocks_per_group=100)
        first = alloc.allocate(10)
        alloc.free(first)
        second = alloc.allocate(10)
        # next-fit: freshly freed blocks are NOT immediately reused
        assert set(first).isdisjoint(second)

    def test_spills_to_next_group(self):
        alloc = Ext3LiteAllocator(200, blocks_per_group=100)
        blocks = alloc.allocate(150, group_hint=0)
        assert len(blocks) == 150
        assert any(b >= 100 for b in blocks)

    def test_exhaustion_raises(self):
        alloc = Ext3LiteAllocator(10)
        alloc.allocate(10)
        with pytest.raises(AllocationError):
            alloc.allocate(1)

    def test_double_free_detected(self):
        alloc = Ext3LiteAllocator(10)
        blocks = alloc.allocate(2)
        alloc.free(blocks)
        with pytest.raises(ValueError):
            alloc.free(blocks)

    def test_out_of_range_free_rejected(self):
        alloc = Ext3LiteAllocator(10)
        with pytest.raises(ValueError):
            alloc.free([99])


class TestPostmark:
    def test_emits_frees_for_deletes(self):
        records = generate_postmark(PostmarkConfig(
            volume_bytes=32 * MIB, initial_files=50, transactions=500))
        ops = Counter(r.op for r in records)
        assert ops[OpType.FREE] > 0
        assert ops[OpType.WRITE] > 0

    def test_frees_match_writes_blockwise(self):
        """Every freed block was previously written and not freed since."""
        records = generate_postmark(PostmarkConfig(
            volume_bytes=16 * MIB, initial_files=30, transactions=400))
        live = set()
        for record in records:
            blocks = range(record.offset // 4096, record.end // 4096)
            if record.op is OpType.WRITE:
                live.update(blocks)
            elif record.op is OpType.FREE:
                for block in blocks:
                    assert block in live, "free of never-written block"
                    live.discard(block)

    def test_ends_with_deletion_phase(self):
        records = generate_postmark(PostmarkConfig(
            volume_bytes=16 * MIB, initial_files=30, transactions=100))
        assert records[-1].op is OpType.FREE

    def test_deterministic(self):
        config = PostmarkConfig(volume_bytes=16 * MIB, initial_files=20,
                                transactions=100, seed=11)
        assert generate_postmark(config) == generate_postmark(config)

    def test_respects_volume_bound(self):
        config = PostmarkConfig(volume_bytes=8 * MIB, initial_files=20,
                                transactions=200)
        for record in generate_postmark(config):
            assert record.end <= 8 * MIB


class TestMacroGenerators:
    def test_tpcc_mix(self):
        records = generate_tpcc(TPCCConfig(count=2000))
        ops = Counter(r.op for r in records)
        assert ops[OpType.READ] > ops[OpType.WRITE] * 0.8

    def test_tpcc_log_appends_sequential(self):
        config = TPCCConfig(count=3000, log_fraction=0.5)
        records = generate_tpcc(config)
        log_region = config.region_bytes - config.log_region_bytes
        log_writes = [r for r in records
                      if r.op is OpType.WRITE and r.offset >= log_region]
        assert len(log_writes) > 100
        # appends are consecutive until wrap
        for prev, cur in zip(log_writes, log_writes[1:]):
            assert cur.offset == prev.end or cur.offset == log_region

    def test_exchange_bursts_are_contiguous(self):
        records = generate_exchange(ExchangeConfig(count=2000, seed=2))
        writes = [r for r in records if r.op is OpType.WRITE]
        contiguous = sum(
            1 for prev, cur in zip(writes, writes[1:])
            if cur.offset == prev.end
        )
        assert contiguous > len(writes) * 0.2

    def test_iozone_is_large_and_sequential(self):
        config = IOzoneConfig(count=400)
        records = generate_iozone(config)
        assert all(r.size == RECORD_BYTES for r in records)
        writes = [r for r in records if r.op is OpType.WRITE]
        sequential = sum(
            1 for prev, cur in zip(writes, writes[1:])
            if cur.offset == prev.end or cur.offset == 0
        )
        assert sequential == len(writes) - 1

    def test_all_generators_deterministic(self):
        assert generate_tpcc(TPCCConfig(count=100)) == generate_tpcc(
            TPCCConfig(count=100))
        assert generate_exchange(ExchangeConfig(count=100)) == generate_exchange(
            ExchangeConfig(count=100))
        assert generate_iozone(IOzoneConfig(count=100)) == generate_iozone(
            IOzoneConfig(count=100))
