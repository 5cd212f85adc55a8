"""Integration tests for the SSD device: dispatch, buffers, priorities."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.device.interface import IORequest, OpType, RequestError
from repro.device.presets import s2slc, s3slc
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.flash.geometry import FlashGeometry
from repro.sim.engine import Simulator
from repro.units import KIB, MIB
from repro.workloads.driver import StreamingResult
from tests.conftest import run_io, small_geometry
from tests.test_dispatch_pipeline import reference_select


class TestBasics:
    def test_capacity_reflects_spare(self, sim):
        config = SSDConfig(n_elements=2, geometry=small_geometry(),
                           spare_fraction=0.25)
        ssd = SSD(sim, config)
        raw = 2 * small_geometry().pages_per_element * 4096
        assert ssd.capacity_bytes == int(raw * 0.75) // 4096 * 4096

    def test_write_then_read(self, sim, small_ssd):
        write = run_io(sim, small_ssd, OpType.WRITE, 0, 64 * KIB)
        read = run_io(sim, small_ssd, OpType.READ, 0, 64 * KIB)
        assert write.response_us > 0
        assert read.response_us > 0
        small_ssd.ftl.check_consistency()

    def test_write_slower_than_read(self, sim, small_ssd):
        run_io(sim, small_ssd, OpType.WRITE, 0, 256 * KIB)
        read = run_io(sim, small_ssd, OpType.READ, 0, 256 * KIB)
        write = run_io(sim, small_ssd, OpType.WRITE, 0, 256 * KIB)
        assert write.response_us > read.response_us

    def test_validation_rejects_misaligned(self, sim, small_ssd):
        with pytest.raises(RequestError):
            small_ssd.submit(IORequest(OpType.READ, 100, 4096))
        with pytest.raises(RequestError):
            small_ssd.submit(IORequest(OpType.READ, 0, 100))
        with pytest.raises(RequestError):
            small_ssd.submit(
                IORequest(OpType.READ, small_ssd.capacity_bytes, 4096)
            )

    def test_flush_completes(self, sim, small_ssd):
        completion = run_io(sim, small_ssd, OpType.FLUSH, 0, 0)
        assert completion.complete_us >= 0

    def test_stats_accumulate(self, sim, small_ssd):
        run_io(sim, small_ssd, OpType.WRITE, 0, 8 * KIB)
        run_io(sim, small_ssd, OpType.READ, 0, 4 * KIB)
        stats = small_ssd.stats
        assert stats.bytes_written == 8 * KIB
        assert stats.bytes_read == 4 * KIB
        assert (stats.writes, stats.reads) == (1, 1)
        assert stats.media_bytes_written >= 8 * KIB


class TestTrimPlumbing:
    def test_free_ignored_when_trim_disabled(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry(),
                                 trim_enabled=False))
        run_io(sim, ssd, OpType.WRITE, 0, 16 * KIB)
        run_io(sim, ssd, OpType.FREE, 0, 16 * KIB)
        assert ssd.ftl.stats.trimmed_pages == 0

    def test_free_processed_when_trim_enabled(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry(),
                                 trim_enabled=True))
        run_io(sim, ssd, OpType.WRITE, 0, 16 * KIB)
        run_io(sim, ssd, OpType.FREE, 0, 16 * KIB)
        assert ssd.ftl.stats.trimmed_pages == 4


class TestPriorityPlumbing:
    def test_pending_priority_tracked(self, sim, small_ssd):
        assert small_ssd._pending_priority == 0
        done = []
        small_ssd.submit(
            IORequest(OpType.WRITE, 0, 4 * KIB, priority=1,
                      on_complete=done.append)
        )
        assert small_ssd._pending_priority == 1
        sim.run_until_idle()
        assert small_ssd._pending_priority == 0
        assert done

    def test_priority_visible_to_ftl_probe(self, sim, small_ssd):
        assert small_ssd.ftl.priority_probe() == 0
        small_ssd.submit(IORequest(OpType.WRITE, 0, 4 * KIB, priority=1))
        assert small_ssd.ftl.priority_probe() == 1
        sim.run_until_idle()
        assert small_ssd.ftl.priority_probe() == 0

    def test_priority_latency_recorded_separately(self, sim, small_ssd):
        sink = StreamingResult()
        sink.record(run_io(sim, small_ssd, OpType.WRITE, 0, 4 * KIB,
                           priority=1))
        sink.record(run_io(sim, small_ssd, OpType.WRITE, 0, 4 * KIB,
                           priority=0))
        assert sink.latency(priority=True).count == 1
        assert sink.latency().count == small_ssd.stats.writes == 2


class TestInflightLimit:
    def test_max_inflight_throttles_dispatch(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=4, geometry=small_geometry(),
                                 max_inflight=2, controller_overhead_us=5.0))
        for i in range(8):
            ssd.submit(IORequest(OpType.READ, 0, 4 * KIB))
        # before any event runs, only 2 of 8 may be in service
        assert ssd._inflight == 2
        assert len(ssd.queue) == 6
        sim.run_until_idle()
        assert ssd._inflight == 0
        assert len(ssd.queue) == 0


class TestWriteAmplificationVisibility:
    def test_sub_page_writes_amplify(self, sim, small_ssd):
        run_io(sim, small_ssd, OpType.WRITE, 0, 4 * KIB)
        run_io(sim, small_ssd, OpType.WRITE, 0, 512)
        # 512 B host write programs a full 4 KB page
        assert small_ssd.stats.write_amplification > 1.0


class TestStripedLogicalPage:
    def test_gang_config_amplifies_small_writes(self, sim):
        config = SSDConfig(
            n_elements=4,
            geometry=small_geometry(),
            logical_page_bytes=16 * KIB,
            controller_overhead_us=5.0,
        )
        ssd = SSD(sim, config)
        run_io(sim, ssd, OpType.WRITE, 0, 4 * KIB)
        assert ssd.ftl.stats.flash_pages_programmed == 4
        assert ssd.stats.write_amplification == pytest.approx(4.0)


class TestQueueMerging:
    def _merge_ssd(self, sim):
        return SSD(sim, SSDConfig(
            n_elements=4,
            geometry=small_geometry(),
            logical_page_bytes=16 * KIB,
            write_buffer="queue-merge",
            max_inflight=1,
            controller_overhead_us=5.0,
        ))

    def test_co_queued_sequential_writes_merge(self, sim):
        ssd = self._merge_ssd(sim)
        done = []
        for i in range(4):
            ssd.submit(IORequest(OpType.WRITE, i * 4 * KIB, 4 * KIB,
                                 on_complete=done.append))
        sim.run_until_idle()
        assert len(done) == 4
        # one merged 16 KB write: exactly 4 programs, no RMW reads
        assert ssd.ftl.stats.flash_pages_programmed == 4
        assert ssd.ftl.stats.rmw_pages_read == 0
        assert ssd.write_buffer.merged_requests == 3

    def test_unrelated_writes_not_merged(self, sim):
        ssd = self._merge_ssd(sim)
        done = []
        ssd.submit(IORequest(OpType.WRITE, 0, 4 * KIB, on_complete=done.append))
        ssd.submit(IORequest(OpType.WRITE, 64 * KIB, 4 * KIB,
                             on_complete=done.append))
        sim.run_until_idle()
        assert len(done) == 2
        assert ssd.write_buffer.merged_requests == 0

    def test_chained_window_growth(self, sim):
        ssd = self._merge_ssd(sim)
        done = []
        # a run spanning two stripes: the second stripe's writes are pulled
        # in because the first steal extends past the boundary
        for i in range(8):
            ssd.submit(IORequest(OpType.WRITE, i * 4 * KIB, 4 * KIB,
                                 on_complete=done.append))
        sim.run_until_idle()
        assert len(done) == 8
        assert ssd.ftl.stats.rmw_pages_read == 0
        assert ssd.write_buffer.merged_requests == 7


class TestSchedulers:
    @staticmethod
    def _enqueue(ssd, *requests):
        """Place requests in the host queue without pumping dispatch."""
        for request in requests:
            ssd.queue.on_submit(request, ssd)

    def test_swtf_selects_request_with_idle_target(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry(),
                                 scheduler="swtf", max_inflight=1,
                                 controller_overhead_us=1.0))
        run_io(sim, ssd, OpType.WRITE, 0, 32 * KIB)
        # element 0 has a long op pending (an erase of a block the FTL
        # has not pulled yet); element 1 is idle
        element = ssd.ftl.elements[0]
        element.erase_block(element.geometry.blocks_per_element - 1)
        busy = IORequest(OpType.READ, 0, 4 * KIB)        # element 0 (lpn 0)
        idle = IORequest(OpType.READ, 4 * KIB, 4 * KIB)  # element 1 (lpn 1)
        self._enqueue(ssd, busy, idle)
        assert reference_select(ssd) is idle
        chosen = ssd.queue.select(ssd)  # takes the request out
        assert chosen is idle  # the idle element's request wins
        assert list(ssd.queue) == [busy]
        ssd.queue.remove(busy, ssd)
        sim.run_until_idle()

    def test_fcfs_selects_head(self, sim, small_ssd):
        first = IORequest(OpType.READ, 4 * KIB, 4 * KIB)
        second = IORequest(OpType.READ, 0, 4 * KIB)
        self._enqueue(small_ssd, first, second)
        assert small_ssd.queue.select(small_ssd) is first
        assert list(small_ssd.queue) == [second]
        small_ssd.queue.remove(second, small_ssd)
        assert small_ssd.queue.select(small_ssd) is None

    def test_unknown_scheduler_rejected(self):
        from repro.device.scheduler import make_scheduler

        with pytest.raises(ValueError):
            make_scheduler("elevator")


class TestWedgedDevice:
    """A fault-free device whose spare area is too small for the workload
    wedges: no reclamation can ever admit the next write.  It must degrade
    to read-only instead of stalling, so every request and the FLUSH
    behind them complete exactly once."""

    def _drive(self, preset, element_mb):
        sim = Simulator()
        ssd = preset(sim, element_mb=element_mb)
        region = int(ssd.capacity_bytes * 0.9) // 4096
        rng = random.Random(5)
        completed: Counter = Counter()
        outcomes: Counter = Counter()

        def on_complete(request):
            completed[id(request)] += 1
            outcomes[request.op, request.error] += 1

        requests = [IORequest(OpType.WRITE, rng.randrange(region) * 4096,
                              4 * KIB, on_complete=on_complete)
                    for _ in range(3000)]
        requests.append(IORequest(OpType.FLUSH, 0, 0, on_complete=on_complete))
        for request in requests:
            ssd.submit(request)
        sim.run_until_idle()
        assert len(completed) == 3001
        assert set(completed.values()) == {1}
        assert ssd.ftl.read_only
        assert len(ssd.queue) == 0
        return ssd, outcomes

    def test_passthrough_fails_the_queued_writes(self):
        ssd, outcomes = self._drive(s2slc, 1)
        assert outcomes[OpType.WRITE, "readonly"] > 0
        # the FLUSH waited on no dropped data
        assert outcomes[OpType.FLUSH, None] == 1
        assert ssd.ftl.stats.failed_pages == 0

    @pytest.mark.parametrize("element_mb", [1, 2])
    def test_write_back_cache_drops_held_runs(self, element_mb):
        ssd, outcomes = self._drive(s3slc, element_mb)
        # the cache acked every write on insert; the runs it could not
        # drain are lost pages, and the FLUSH that waited on them fails
        assert outcomes[OpType.WRITE, None] == 3000
        assert outcomes[OpType.FLUSH, "readonly"] == 1
        assert ssd.ftl.stats.failed_pages > 0
        assert ssd.write_buffer._outstanding == 0
        # read-only from here on: the cache refuses a write, not acks it
        late = run_io(ssd.sim, ssd, OpType.WRITE, 0, 4 * KIB)
        assert late.error == "readonly"
