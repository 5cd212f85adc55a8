"""Tests for the write-buffer family (passthrough / queue merging /
write-back cache).

Besides the behavioural coverage of each buffer, this module pins the
write-buffer bugfixes, each with a dedicated regression test:

* ``QueueMergingBuffer`` forwards the ``temp`` hot/cold hint per merged
  run (majority vote; the seed dropped the hint entirely)
  — ``TestQueueMergeTemp``.
* ``PassthroughBuffer.flush_all`` completes only when issued writes have
  drained out of the FTL (the seed acked a barrier at +0 µs with data
  still on the flash queues) — ``TestPassthroughFlushDrain``.
* The queue-merge steal window chases the union range *downward* too: a
  co-queued write overlapping the window from below is stolen and merged
  (the seed's steal predicate only matched writes starting inside the
  window) — ``TestQueueMergeStealWindow``.
* The write-back cache's FLUSH completes only once its data is programmed,
  including runs held back by allocation backpressure (it used to complete
  with the data still buffered) — ``TestWriteBackFlushBarrier``.
* On every buffer, a FLUSH waits for earlier WRITEs still crossing the host
  link or, under SWTF, still in the host queue —
  ``TestFlushOrdersEarlierWrites``.

* The write-back cache writes each drained run with its majority
  temperature (it used to drop the cold hint) — ``TestWriteBackColdHint``.

Plus golden-pinned coverage of the incremental sorted-run merge structure
(overlap, adjacency, MAX_BATCH truncation) — ``TestQueueMergeRuns`` — and a
property test of the one splice both merging buffers use against a plain
set-of-bytes union — ``TestSplice``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.interface import IORequest, OpType
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.device.write_buffer import (
    AligningWriteBuffer,
    QueueMergingBuffer,
    _splice,
)
from repro.sim.engine import Simulator
from repro.units import KIB
from tests.conftest import run_io, small_geometry


def aligning_ssd(sim, window_us=500.0, capacity=1 << 20, lp_kib=16,
                 ftl_type="pagemap"):
    config = SSDConfig(
        n_elements=4,
        geometry=small_geometry(),
        ftl_type=ftl_type,
        logical_page_bytes=lp_kib * KIB,
        write_buffer="align",
        buffer_window_us=window_us,
        buffer_capacity_bytes=capacity,
        controller_overhead_us=2.0,
    )
    return SSD(sim, config)


def submit_write(ssd, offset, size=4 * KIB, done=None):
    ssd.submit(IORequest(OpType.WRITE, offset, size,
                         on_complete=None if done is None else done.append))


def log_landings(ssd):
    """Wrap the FTL's write entry; returns the list of times at which
    each handed-over write is on flash."""
    landed = []
    write = ssd.ftl.write

    def logged_write(offset, size, done=None, **kw):
        def on_flash(now):
            landed.append(now)
            done(now)
        write(offset, size, done=on_flash, **kw)

    ssd.ftl.write = logged_write
    return landed


class TestAligningFlush:
    """When the write-back cache hands its pages to the FTL.  Writes ack on
    insert (~18 us here: 2 us overhead + a 4 KiB link transfer), so each
    test reads the buffer's flush count and the FTL's programmed pages at
    chosen instants."""

    def test_full_page_flushes_immediately_without_rmw(self):
        sim = Simulator()
        ssd = aligning_ssd(sim)
        for i in range(4):
            submit_write(ssd, i * 4 * KIB)
        sim.run(until_us=200.0)  # well inside the 500 us window
        assert ssd.write_buffer.flushes == 1
        assert ssd.write_buffer.full_page_flushes == 1
        sim.run_until_idle()
        assert ssd.ftl.stats.rmw_pages_read == 0
        assert ssd.ftl.stats.flash_pages_programmed == 4
        assert ssd.write_buffer.flushes == 1

    def test_partial_page_waits_for_window(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=500.0)
        done = []
        submit_write(ssd, 0, done=done)
        sim.run(until_us=300.0)
        assert done  # acked on insert ...
        assert ssd.write_buffer.flushes == 0  # ... but still buffered
        assert ssd.ftl.stats.flash_pages_programmed == 0
        sim.run(until_us=600.0)  # window expired at ~518 us
        assert ssd.write_buffer.flushes == 1
        assert ssd.write_buffer.full_page_flushes == 0
        sim.run_until_idle()
        # the 4 KB partial flush programs the whole 16 KB logical page
        assert ssd.ftl.stats.flash_pages_programmed == 4

    def test_window_resets_on_touch(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=500.0)
        submit_write(ssd, 0)
        sim.run(until_us=400.0)
        submit_write(ssd, 4 * KIB)
        sim.run(until_us=700.0)
        # the original window (at ~518) must not have fired: it was reset
        assert ssd.write_buffer.flushes == 0
        sim.run(until_us=1000.0)  # the reset window expired at ~918 us
        assert ssd.write_buffer.flushes == 1
        sim.run_until_idle()
        assert ssd.write_buffer.flushes == 1
        assert ssd.ftl.stats.flash_pages_programmed == 4

    def test_capacity_pressure_flushes_oldest(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=1e6, capacity=8 * KIB)
        log = _RunLog(ssd.ftl)
        for i in range(4):  # 16 KiB buffered > 8 KiB capacity
            submit_write(ssd, i * 32 * KIB)
        sim.run(until_us=1000.0)  # long before any window expires
        buffer = ssd.write_buffer
        assert buffer.flushes == 2
        assert buffer.buffered_bytes == 8 * KIB
        # the two oldest pages were forced out, oldest first
        assert [run[0] for run in log.runs] == [0, 32 * KIB]
        assert ssd.ftl.stats.flash_pages_programmed == 8

    def test_read_flushes_overlapping_page(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=1e6)
        submit_write(ssd, 0)
        submit_write(ssd, 64 * KIB)
        sim.run(until_us=100.0)
        assert ssd.write_buffer.flushes == 0
        reads = []
        ssd.submit(IORequest(OpType.READ, 0, 4 * KIB, on_complete=reads.append))
        sim.run(until_us=1000.0)
        assert reads
        # only the page under the read was flushed ahead of it
        assert ssd.write_buffer.flushes == 1
        assert ssd.write_buffer.buffered_bytes == 4 * KIB
        assert ssd.ftl.stats.flash_pages_programmed == 4

    def test_flush_op_drains_buffer(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=1e6)
        submit_write(ssd, 0)
        submit_write(ssd, 64 * KIB)
        sim.run(until_us=100.0)  # both writes are in the buffer
        flushed = []
        ssd.submit(IORequest(OpType.FLUSH, 0, 0, on_complete=flushed.append))
        sim.run(until_us=1000.0)
        assert flushed
        assert ssd.write_buffer.flushes == 2
        assert ssd.write_buffer.buffered_bytes == 0
        assert ssd.ftl.stats.flash_pages_programmed == 8

    def test_spanning_write_flushes_both_pages(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=200.0)
        done = []
        # spans two 16 KiB logical pages
        submit_write(ssd, 12 * KIB, 8 * KIB, done=done)
        sim.run(until_us=100.0)
        assert len(done) == 1
        assert ssd.write_buffer.flushes == 0
        sim.run(until_us=300.0)
        assert ssd.write_buffer.flushes == 2
        sim.run_until_idle()
        assert ssd.ftl.stats.flash_pages_programmed == 8


class TestWriteBackAck:
    def test_insert_ack_is_fast(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=300.0)
        request = run_io(sim, ssd, OpType.WRITE, 0, 4 * KIB)
        # acked without waiting for flash programs (which take ~300 us)
        assert request.response_us < 100.0

    def test_drain_happens_in_background(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=300.0)
        run_io(sim, ssd, OpType.WRITE, 0, 4 * KIB)
        # the 4 KB partial flush still programs the whole 16 KB logical page
        assert ssd.ftl.stats.flash_pages_programmed == 4


class TestWriteBackFlushBarrier:
    """Bugfix: a FLUSH on the write-back cache completes only once the
    buffered data is on flash (it used to complete ~2 us after submission,
    with the data still in the buffer or on the flash queues)."""

    @pytest.mark.parametrize("ftl_type", ["pagemap", "blockmap"])
    def test_flush_waits_for_programs(self, ftl_type):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=1e6, ftl_type=ftl_type)
        programmed = log_landings(ssd)
        acked = []
        submit_write(ssd, 0, done=acked)
        sim.run(until_us=100.0)
        assert acked and not programmed  # acked, still buffered
        flushed = []
        ssd.submit(IORequest(OpType.FLUSH, 0, 0, on_complete=flushed.append))
        sim.run_until_idle()
        assert programmed and flushed
        assert flushed[0].complete_us >= max(programmed)

    def test_flush_waits_for_runs_held_by_backpressure(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=1e6)
        ftl = ssd.ftl
        admit = [False]
        can_accept = ftl.can_accept_write
        ftl.can_accept_write = (
            lambda offset, size: admit[0] and can_accept(offset, size))
        submit_write(ssd, 0)
        sim.run(until_us=100.0)  # the write is in the buffer
        flushed = []
        ssd.submit(IORequest(OpType.FLUSH, 0, 0, on_complete=flushed.append))
        sim.run_until_idle()
        # the run left the buffer but waits in the drain queue
        assert ssd.write_buffer.buffered_bytes == 0
        assert ftl.stats.flash_pages_programmed == 0
        assert not flushed
        admit[0] = True
        ssd.write_buffer.on_space_freed()
        sim.run_until_idle()
        assert ftl.stats.flash_pages_programmed == 4
        assert flushed


class TestFlushOrdersEarlierWrites:
    """Bugfix: a FLUSH completes only after every WRITE submitted before it
    is on flash, on every buffer.  It used to count writes from buffer
    insert on, so it missed (a) a write still crossing the host link and
    (b) under SWTF, an earlier write still in the host queue: a FLUSH has
    no target elements, so its wait key is ``now`` and it was picked ahead
    of writes to busy elements."""

    BUFFERS = ["passthrough", "queue-merge", "align"]

    @staticmethod
    def _ssd(sim, write_buffer, scheduler, max_inflight):
        config = SSDConfig(
            n_elements=2,
            geometry=small_geometry(),
            scheduler=scheduler,
            write_buffer=write_buffer,
            buffer_window_us=1e6,  # the cache holds data until the FLUSH
            max_inflight=max_inflight,
            controller_overhead_us=5.0,
        )
        ssd = SSD(sim, config)
        return ssd, log_landings(ssd)

    def _flush(self, sim, ssd, landed):
        """Submit a FLUSH; returns (completion time, writes on flash then)."""
        seen = []
        ssd.submit(IORequest(
            OpType.FLUSH, 0, 0,
            on_complete=lambda r: seen.append((r.complete_us, len(landed)))))
        sim.run_until_idle()
        assert len(seen) == 1
        return seen[0]

    @pytest.mark.parametrize("scheduler", ["fcfs", "swtf"])
    @pytest.mark.parametrize("write_buffer", BUFFERS)
    def test_flush_waits_for_write_crossing_the_link(self, write_buffer,
                                                     scheduler):
        sim = Simulator()
        ssd, landed = self._ssd(sim, write_buffer, scheduler, max_inflight=8)
        submit_write(ssd, 0)  # dispatched at once; its data is on the link
        complete_us, on_flash = self._flush(sim, ssd, landed)
        assert on_flash == 1
        assert complete_us >= landed[0]

    @pytest.mark.parametrize("scheduler", ["fcfs", "swtf"])
    @pytest.mark.parametrize("write_buffer", BUFFERS)
    def test_flush_waits_for_write_still_queued(self, write_buffer,
                                                scheduler):
        sim = Simulator()
        ssd, landed = self._ssd(sim, write_buffer, scheduler, max_inflight=1)
        # element 0 erases a spare block for ~1.5 ms: a write to it waits
        ssd.elements[0].erase_block(small_geometry().blocks_per_element - 1)
        submit_write(ssd, 4 * KIB)   # element 1: takes the only slot
        submit_write(ssd, 16 * KIB)  # element 0: queued behind it
        complete_us, on_flash = self._flush(sim, ssd, landed)
        assert on_flash == 2
        assert complete_us >= max(landed)


def merging_ssd(sim, **overrides):
    config = SSDConfig(
        n_elements=4,
        geometry=small_geometry(),
        write_buffer="queue-merge",
        buffer_page_bytes=16 * KIB,
        max_inflight=1,
        controller_overhead_us=5.0,
        **overrides,
    )
    return SSD(sim, config)


def co_queue_writes(ssd, ranges, hints=None, done=None):
    """Submit one write per (offset, size); max_inflight=1 keeps all but
    the first queued, so the first dispatch steals the rest."""
    for i, (offset, size) in enumerate(ranges):
        ssd.submit(IORequest(
            OpType.WRITE, offset, size,
            hints=None if hints is None else hints[i],
            on_complete=done.append if done is not None else None,
        ))


class _RunLog:
    """Wraps ftl.write to record every issued (offset, size, temp) run."""

    def __init__(self, ftl):
        self.runs = []
        self._write = ftl.write
        ftl.write = self

    def __call__(self, offset, size, done=None, tag="host", temp="hot"):
        self.runs.append((offset, size, temp))
        self._write(offset, size, done=done, tag=tag, temp=temp)


class TestPassthroughFlushDrain:
    """Bugfix: flush_all must not ack while writes sit in the FTL."""

    def test_flush_all_waits_for_ftl_drain(self):
        sim = Simulator()
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry()))
        buffer = ssd.write_buffer
        write_done = []
        buffer.insert(IORequest(OpType.WRITE, 0, 4 * KIB),
                      complete=lambda r: write_done.append(sim.now))
        flushed = []
        buffer.flush_all(lambda error: flushed.append(sim.now))
        # the write is in flight inside the FTL: the barrier must hold
        # past the current instant
        sim.run(until_us=0.0)
        assert not flushed
        sim.run_until_idle()
        assert write_done and flushed
        # seed behaviour: flushed at +0 us, before the program completed
        assert flushed[0] >= write_done[0] > 0.0

    def test_flush_all_immediate_when_idle(self):
        sim = Simulator()
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry()))
        flushed = []
        ssd.write_buffer.flush_all(
            lambda error: flushed.append((sim.now, error)))
        assert not flushed  # still asynchronous (no reentrant callbacks)
        sim.run_until_idle()
        assert flushed == [(0.0, None)]

    def test_merging_buffer_flush_waits_for_runs(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        buffer = ssd.write_buffer
        write_done = []
        buffer.insert(IORequest(OpType.WRITE, 0, 4 * KIB),
                      complete=lambda r: write_done.append(sim.now))
        flushed = []
        buffer.flush_all(lambda error: flushed.append(sim.now))
        sim.run_until_idle()
        assert flushed and write_done
        assert flushed[0] >= write_done[0] > 0.0


class TestQueueMergeTemp:
    """Bugfix: merged runs carry the majority temperature hint."""

    def _worn_blocks(self, ssd):
        """Mark one pooled block per element as clearly most-worn."""
        worn = {}
        for e_idx, el in enumerate(ssd.ftl.elements):
            block = 7 + e_idx  # arbitrary, inside every pool
            el.erase_count[block] = 50
            worn[e_idx] = block
        return worn

    def test_cold_hinted_batch_lands_on_worn_blocks(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        worn = self._worn_blocks(ssd)
        cold = {"temp": "cold"}
        done = []
        co_queue_writes(ssd, [(i * 4 * KIB, 4 * KIB) for i in range(4)],
                        hints=[cold] * 4, done=done)
        sim.run_until_idle()
        assert len(done) == 4
        assert ssd.write_buffer.merged_requests == 3
        geometry = ssd.ftl.geometry
        for lpn in range(4):
            e_idx = lpn % ssd.ftl.n_gangs
            ppn = ssd.ftl.mapped_ppn(lpn)
            assert geometry.block_of(ppn) == worn[e_idx], (
                f"lpn {lpn}: cold-hinted merged write was not parked on the "
                f"most-worn block (temp hint dropped by the merge path?)"
            )

    def test_majority_vote_ties_go_hot(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        worn = self._worn_blocks(ssd)
        cold = {"temp": "cold"}
        log = _RunLog(ssd.ftl)
        # 2 cold / 2 hot in one run: tie -> hot (conservative default)
        co_queue_writes(ssd, [(i * 4 * KIB, 4 * KIB) for i in range(4)],
                        hints=[cold, None, cold, None])
        sim.run_until_idle()
        assert log.runs == [(0, 16 * KIB, "hot")]
        geometry = ssd.ftl.geometry
        assert geometry.block_of(ssd.ftl.mapped_ppn(0)) != worn[0]

    def test_cold_majority_wins(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        cold = {"temp": "cold"}
        log = _RunLog(ssd.ftl)
        co_queue_writes(ssd, [(i * 4 * KIB, 4 * KIB) for i in range(3)],
                        hints=[cold, None, cold])
        sim.run_until_idle()
        assert log.runs == [(0, 12 * KIB, "cold")]


class TestWriteBackColdHint:
    """Bugfix: the write-back cache drains a cold-hinted run to the cold
    frontier (it used to write every drained run hot)."""

    def test_cold_hinted_page_lands_on_the_cold_frontier(self):
        sim = Simulator()
        ssd = aligning_ssd(sim)  # page-mapped, 16 KB logical pages
        ftl = ssd.ftl
        cold = {"temp": "cold"}
        # two full logical pages on element 0: one cold-hinted, one not
        page = ftl.logical_page_bytes
        stride = page * ftl.n_gangs
        ssd.submit(IORequest(OpType.WRITE, 0, page, hints=cold))
        ssd.submit(IORequest(OpType.WRITE, stride, page))
        sim.run_until_idle()
        frontiers = ftl._frontier[0]
        block_of = ftl.geometry.block_of
        assert block_of(ftl.mapped_ppn(0)) == frontiers.get("cold")
        assert block_of(ftl.mapped_ppn(ftl.n_gangs)) == frontiers["hot"]


class TestQueueMergeStealWindow:
    """Bugfix: the steal window chases the union range downward too."""

    def test_write_overlapping_from_below_is_stolen(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        done = []
        # first submission dispatches with window [16K, 32K); the second
        # starts below the window but overlaps it
        co_queue_writes(ssd, [(16 * KIB, 4 * KIB), (12 * KIB, 6 * KIB)],
                        done=done)
        sim.run_until_idle()
        assert len(done) == 2
        assert ssd.write_buffer.batches == 1
        assert ssd.write_buffer.merged_requests == 1

    def test_lowered_window_chases_further_down(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        log = _RunLog(ssd.ftl)
        done = []
        # chain: [32K..36K) dispatches; [28K..34K) overlaps from below,
        # lowering the window to 16K; [16K..30K) then overlaps it too
        co_queue_writes(
            ssd,
            [(32 * KIB, 4 * KIB), (28 * KIB, 6 * KIB), (16 * KIB, 14 * KIB)],
            done=done,
        )
        sim.run_until_idle()
        assert len(done) == 3
        assert ssd.write_buffer.batches == 1
        assert ssd.write_buffer.merged_requests == 2
        assert log.runs == [(16 * KIB, 20 * KIB, "hot")]

    def test_disjoint_write_below_window_is_not_stolen(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        done = []
        co_queue_writes(ssd, [(32 * KIB, 4 * KIB), (4 * KIB, 4 * KIB)],
                        done=done)
        sim.run_until_idle()
        assert len(done) == 2
        assert ssd.write_buffer.merged_requests == 0
        assert ssd.write_buffer.batches == 2


class TestQueueMergeRuns:
    """Golden-pinned coverage of the incremental sorted-run merge."""

    def test_overlapping_ranges_fold_into_one_run(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        log = _RunLog(ssd.ftl)
        co_queue_writes(ssd, [(0, 8 * KIB), (4 * KIB, 8 * KIB),
                              (2 * KIB, 4 * KIB)])
        sim.run_until_idle()
        assert log.runs == [(0, 12 * KIB, "hot")]
        assert ssd.write_buffer.merged_requests == 2

    def test_adjacent_ranges_fold_into_one_run(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        log = _RunLog(ssd.ftl)
        co_queue_writes(ssd, [(0, 4 * KIB), (4 * KIB, 4 * KIB),
                              (8 * KIB, 4 * KIB)])
        sim.run_until_idle()
        assert log.runs == [(0, 12 * KIB, "hot")]

    def test_disjoint_ranges_stay_separate_runs(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        log = _RunLog(ssd.ftl)
        co_queue_writes(ssd, [(0, 4 * KIB), (8 * KIB, 4 * KIB)])
        sim.run_until_idle()
        # same stripe, a hole between them: two runs, ascending order
        assert log.runs == [(0, 4 * KIB, "hot"), (8 * KIB, 4 * KIB, "hot")]
        assert ssd.write_buffer.batches == 1

    def test_out_of_order_arrivals_merge_identically(self):
        sim = Simulator()
        ssd = merging_ssd(sim)
        log = _RunLog(ssd.ftl)
        co_queue_writes(ssd, [(8 * KIB, 4 * KIB), (0, 4 * KIB),
                              (4 * KIB, 4 * KIB), (12 * KIB, 4 * KIB)])
        sim.run_until_idle()
        # interval union is order-independent: one contiguous run
        assert log.runs == [(0, 16 * KIB, "hot")]

    def test_max_batch_truncation_is_exact(self, monkeypatch):
        sim = Simulator()
        ssd = merging_ssd(sim)
        monkeypatch.setattr(QueueMergingBuffer, "MAX_BATCH", 4)
        done = []
        co_queue_writes(ssd, [(i * 4 * KIB % (16 * KIB), 4 * KIB)
                              for i in range(7)], done=done)
        sim.run_until_idle()
        assert len(done) == 7
        buffer = ssd.write_buffer
        # first batch absorbs exactly MAX_BATCH (1 dispatched + 3 stolen),
        # the remaining 3 form the second batch
        assert buffer.batches == 2
        assert buffer.merged_requests == (4 - 1) + (3 - 1)


class TestSplice:
    """``_splice`` against a plain set-of-bytes union."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 96), st.integers(1, 24),
                              st.booleans()),
                    min_size=1, max_size=24))
    def test_matches_a_set_union(self, ranges):
        runs = []
        covered = set()
        for start, length, cold in ranges:
            end = start + length
            fresh = _splice(runs, start, end, int(cold))
            assert fresh == len(set(range(start, end)) - covered)
            covered.update(range(start, end))
            assert {b for run in runs
                    for b in range(run.start, run.end)} == covered
            # sorted, disjoint, and never touching
            for left, right in zip(runs, runs[1:]):
                assert left.end < right.start
        # each range lies inside exactly one run; a run tallies its ranges
        for run in runs:
            inside = [cold for start, length, cold in ranges
                      if run.start <= start and start + length <= run.end]
            assert run.n == len(inside)
            assert run.cold == sum(inside)


class TestValidation:
    def test_zero_logical_page_rejected(self):
        sim = Simulator()
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry()))
        with pytest.raises(ValueError):
            AligningWriteBuffer(sim, ssd.ftl, logical_page_bytes=0)

    @pytest.mark.parametrize("field, value", [
        ("buffer_window_us", -5.0),
        ("buffer_capacity_bytes", 0),
        ("buffer_capacity_bytes", -4096),
        ("buffer_page_bytes", 0),
        ("buffer_page_bytes", -4096),
    ])
    def test_bad_buffer_knob_rejected_at_config(self, field, value):
        with pytest.raises(ValueError, match=field):
            SSDConfig(write_buffer="align", **{field: value})

    def test_zero_window_accepted(self):
        sim = Simulator()
        ssd = aligning_ssd(sim, window_us=0.0)
        run_io(sim, ssd, OpType.WRITE, 0, 4 * KIB)
        assert ssd.write_buffer.flushes == 1
