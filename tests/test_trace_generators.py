"""Macro-workload trace generators: shape invariants and pinned replays.

Coverage backfill for :mod:`repro.traces.exchange`,
:mod:`repro.traces.tpcc`, and :mod:`repro.traces.postmark` — each
generator gets (a) structural checks for the workload feature it exists
to model (Exchange's bursty write runs, TPCC's log-append stream,
Postmark's delete notifications) and (b) a full-stack replay pinned by a
:class:`StreamingResult` fingerprint: these exact configs must keep
producing these exact results.
"""

from __future__ import annotations

import pytest

from repro.device.interface import OpType
from repro.device.presets import s4slc_sim
from repro.sim.engine import Simulator
from repro.traces.exchange import ExchangeConfig, generate_exchange
from repro.traces.postmark import PostmarkConfig, generate_postmark
from repro.traces.tpcc import LOG_BYTES, TPCCConfig, generate_tpcc
from repro.workloads.driver import StreamingResult, replay_trace

MIB = 1 << 20


def replay_fingerprint(records, trim_enabled=False):
    sim = Simulator()
    device = s4slc_sim(sim, element_mb=8, trim_enabled=trim_enabled)
    result = replay_trace(sim, device, iter(records), sink=StreamingResult())
    device.ftl.check_consistency()
    assert not result.errors
    return (
        result.count,
        round(sim.now, 3),
        sim.events_run,
        round(result.latency().mean_us, 3),
        device.ftl.stats.host_pages_written,
        device.ftl.stats.flash_pages_programmed,
        device.ftl.stats.trimmed_pages,
    )


class TestExchange:
    CONFIG = ExchangeConfig(count=400, region_bytes=4 * MIB)

    def test_shape(self):
        records = generate_exchange(self.CONFIG)
        assert len(records) == 400
        times = [r.time_us for r in records]
        assert times == sorted(times)
        for record in records:
            assert record.op in (OpType.READ, OpType.WRITE)
            assert record.offset % self.CONFIG.page_bytes == 0
            assert record.end <= self.CONFIG.region_bytes

    def test_bursts_stay_inside_a_region_smaller_than_a_burst(self):
        config = ExchangeConfig(count=200, region_bytes=2 * 8192,
                                page_bytes=8192)
        records = generate_exchange(config)
        assert sum(r.op is OpType.WRITE for r in records) > 50
        assert max(r.end for r in records) <= config.region_bytes

    def test_bursts_reach_the_last_page(self):
        # a burst may end on the region's last page: some write ends
        # exactly at region_bytes
        config = ExchangeConfig(count=20000, region_bytes=16 * 8192,
                                page_bytes=8192)
        ends = [r.end for r in generate_exchange(config)
                if r.op is OpType.WRITE]
        assert max(ends) == config.region_bytes

    def test_writes_come_in_sequential_bursts(self):
        """The workload's signature: delivery batches touch neighbouring
        pages, so a meaningful share of write->write steps is exactly
        page-adjacent (what the aligning buffer merges)."""
        records = generate_exchange(self.CONFIG)
        writes = [r for r in records if r.op is OpType.WRITE]
        adjacent = sum(
            1 for a, b in zip(writes, writes[1:]) if b.offset == a.end)
        assert adjacent / len(writes) > 0.3

    def test_deterministic_per_seed(self):
        assert generate_exchange(self.CONFIG) == generate_exchange(self.CONFIG)
        assert generate_exchange(self.CONFIG) != generate_exchange(
            ExchangeConfig(count=400, region_bytes=4 * MIB, seed=7))

    def test_pinned_replay(self):
        records = generate_exchange(self.CONFIG)
        assert replay_fingerprint(records) == \
            (400, 88924.767, 1627, 442.881, 530, 530, 0)


class TestTPCC:
    CONFIG = TPCCConfig(count=400, region_bytes=4 * MIB,
                        log_region_bytes=1 * MIB)

    def test_shape(self):
        records = generate_tpcc(self.CONFIG)
        assert len(records) == 400
        times = [r.time_us for r in records]
        assert times == sorted(times)
        for record in records:
            assert record.op in (OpType.READ, OpType.WRITE)
            assert record.end <= self.CONFIG.region_bytes

    def test_log_appends_stay_in_log_region(self):
        """The small sequential stream lives in the log area at the top of
        the region; table I/O stays below it."""
        records = generate_tpcc(self.CONFIG)
        table_top = self.CONFIG.region_bytes - self.CONFIG.log_region_bytes
        log = [r for r in records if r.offset >= table_top]
        table = [r for r in records if r.offset < table_top]
        assert log and table
        assert all(r.size == LOG_BYTES and r.op is OpType.WRITE
                   for r in log)
        # log appends are sequential modulo wrap
        offsets = [r.offset for r in log]
        forward = sum(1 for a, b in zip(offsets, offsets[1:]) if b > a)
        assert forward >= len(offsets) - 2

    def test_log_region_must_fit(self):
        with pytest.raises(ValueError, match="log area"):
            TPCCConfig(region_bytes=MIB, log_region_bytes=MIB)

    def test_pinned_replay(self):
        records = generate_tpcc(self.CONFIG)
        assert replay_fingerprint(records) == \
            (400, 124396.845, 1610, 172.31, 285, 285, 0)


class TestPostmark:
    CONFIG = PostmarkConfig(volume_bytes=4 * MIB, initial_files=60,
                            transactions=300, max_file_bytes=32768)

    def test_emits_deletes_and_reuses_freed_blocks(self):
        # a tighter volume forces the allocator to recycle freed extents
        records = generate_postmark(
            PostmarkConfig(volume_bytes=2 * MIB, initial_files=60,
                           transactions=300, max_file_bytes=32768))
        ops = {op: [r for r in records if r.op is op] for op in OpType}
        assert ops[OpType.WRITE] and ops[OpType.READ] and ops[OpType.FREE]
        # every FREE covers bytes that were written earlier
        written = set()
        reused_after_free = False
        freed = set()
        for record in records:
            blocks = range(record.offset, record.end, 4096)
            if record.op is OpType.WRITE:
                if freed & set(blocks):
                    reused_after_free = True
                written.update(blocks)
                freed.difference_update(blocks)
            elif record.op is OpType.FREE:
                assert set(blocks) <= written
                freed.update(blocks)
        assert reused_after_free  # eager reuse, as Ext3 does

    def test_all_records_inside_volume(self):
        for record in generate_postmark(self.CONFIG):
            assert 0 <= record.offset
            assert record.end <= self.CONFIG.volume_bytes
            assert record.offset % 4096 == 0

    def test_deterministic_per_seed(self):
        assert generate_postmark(self.CONFIG) == generate_postmark(self.CONFIG)

    def test_pinned_replay_with_trim(self):
        """FREE records flow through a trim-enabled device: the informed
        cleaning input shape, pinned end to end."""
        records = generate_postmark(self.CONFIG)
        assert replay_fingerprint(records, trim_enabled=True) == \
            (337, 108044.529, 2442, 553.087, 721, 721, 721)
