"""Unit tests for the flash element: timing, state machine, accounting."""

from __future__ import annotations

import pytest

from repro.flash.element import FlashElement, FlashStateError, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.sim.engine import Simulator


@pytest.fixture
def element():
    sim = Simulator()
    geom = FlashGeometry(page_bytes=4096, pages_per_block=8, blocks_per_element=16)
    return sim, FlashElement(sim, geom, FlashTiming.slc(), element_id=0)


class TestTiming:
    def test_slc_read_duration(self):
        timing = FlashTiming.slc()
        # 2 (cmd) + 25 (array) + 4096 bytes at 40 MB/s
        expected = 2.0 + 25.0 + 4096 / (40 * 1024 * 1024 / 1e6)
        assert timing.read_us(4096) == pytest.approx(expected)

    def test_program_slower_than_read(self):
        timing = FlashTiming.slc()
        assert timing.program_us(4096) > timing.read_us(4096)

    def test_mlc_slower_and_weaker(self):
        slc, mlc = FlashTiming.slc(), FlashTiming.mlc()
        assert mlc.page_program_us > slc.page_program_us
        assert mlc.block_erase_us > slc.block_erase_us
        assert mlc.erase_cycles < slc.erase_cycles

    def test_copy_avoids_bus(self):
        timing = FlashTiming.slc()
        assert timing.copy_us(4096) < timing.read_us(4096) + timing.program_us(4096)

    def test_zero_transfer(self):
        assert FlashTiming.slc().transfer_us(0) == 0.0


def _readable(el):
    """Give page (0, 0) data so timed reads of it are legal."""
    el.program_state(0, 0, lpn=0)


class TestSerialExecution:
    def test_ops_execute_serially(self, element):
        sim, el = element
        _readable(el)
        times = []
        for _ in range(3):
            el.read_page(0, 0, callback=times.append)
        sim.run_until_idle()
        dur = el.timing.read_us(4096)
        assert times == pytest.approx([dur, 2 * dur, 3 * dur])

    def test_queue_wait_estimate(self, element):
        sim, el = element
        assert el.queue_wait_us() == 0.0
        _readable(el)
        el.read_page(0, 0)
        el.read_page(0, 0)
        dur = el.timing.read_us(4096)
        assert el.queue_wait_us() == pytest.approx(2 * dur)
        sim.run(until_us=dur / 2)
        assert el.queue_wait_us() == pytest.approx(1.5 * dur)
        sim.run(until_us=dur)  # the first read completes
        assert el.queue_wait_us() == pytest.approx(dur)
        sim.run_until_idle()
        assert el.queue_wait_us() == 0.0
        sim.run(until_us=3 * dur)  # idle: the drain stamp is in the past
        assert el.queue_wait_us() == 0.0

    def test_busy_accounting_by_tag(self, element):
        sim, el = element
        _readable(el)
        el.read_page(0, 0, tag="host")
        el.erase_block(1, tag="clean")
        sim.run_until_idle()
        assert el.busy_us("host") == pytest.approx(el.timing.read_us(4096))
        assert el.busy_us("clean") == pytest.approx(el.timing.erase_us())
        assert el.busy_us() == pytest.approx(
            el.timing.read_us(4096) + el.timing.erase_us()
        )

    def test_idle_hook_fires_when_drained(self, element):
        sim, el = element
        _readable(el)
        seen = []
        el.read_page(0, 0, callback=lambda now: seen.append(el.queue_depth == 0))
        el.read_page(0, 0, callback=lambda now: seen.append(el.queue_depth == 0))
        assert el.queue_depth == 2
        sim.run_until_idle()
        # the last command's completion callback fires once it has drained
        assert seen == [False, True]
        assert el.queue_depth == 0


class TestDeepQueue:
    """Regression guards for the element FIFO at depth (the seed used a
    list with O(n) pop(0), which went quadratic on deep queues)."""

    def test_deep_queue_completes_in_order_with_exact_clock(self, element):
        sim, el = element
        times = []
        depth = 500
        _readable(el)
        for _ in range(depth):
            el.read_page(0, 0, callback=times.append)
        assert el.queue_depth == depth
        dur = el.timing.read_us(4096)
        assert el.queue_wait_us() == pytest.approx(depth * dur)
        sim.run_until_idle()
        assert times == pytest.approx([dur * (i + 1) for i in range(depth)])
        assert el.queue_depth == 0
        assert el.ops_by_tag["host"] == depth

    def test_deep_queue_wall_time_is_not_quadratic(self):
        # 50k queued ops: O(1) popleft finishes in well under a second;
        # the old list.pop(0) took multiple seconds.  The generous bound
        # keeps this stable on slow CI while still catching O(n) re-entry.
        import time

        sim = Simulator()
        geom = FlashGeometry(page_bytes=4096, pages_per_block=8,
                             blocks_per_element=16)
        el = FlashElement(sim, geom, FlashTiming.slc())
        count = 50_000
        _readable(el)
        start = time.perf_counter()
        for _ in range(count):
            el.read_page(0, 0)
        sim.run_until_idle()
        elapsed = time.perf_counter() - start
        assert el.ops_by_tag["host"] == count
        assert elapsed < 5.0, f"deep FIFO took {elapsed:.1f}s — O(n) pop again?"


class TestStateMachine:
    def test_program_requires_free(self, element):
        _sim, el = element
        el.program_state(0, 0, lpn=7)
        with pytest.raises(FlashStateError):
            el.program_state(0, 0, lpn=8)

    def test_program_in_order_enforced(self, element):
        _sim, el = element
        with pytest.raises(FlashStateError):
            el.program_state(0, 3, lpn=1)

    def test_out_of_order_allowed_when_relaxed(self, element):
        _sim, el = element
        el.strict_program_order = False
        el.program_state(0, 3, lpn=1)
        assert el.write_ptr[0] == 4
        el.program_state(0, 1, lpn=2)  # below write_ptr, still free
        assert el.write_ptr[0] == 4

    def test_invalidate_requires_valid(self, element):
        _sim, el = element
        with pytest.raises(FlashStateError):
            el.invalidate_state(0, 0)
        el.program_state(0, 0, lpn=1)
        el.invalidate_state(0, 0)
        with pytest.raises(FlashStateError):
            el.invalidate_state(0, 0)

    def test_erase_requires_no_valid_pages(self, element):
        _sim, el = element
        el.program_state(0, 0, lpn=1)
        with pytest.raises(FlashStateError):
            el.erase_state(0)
        el.invalidate_state(0, 0)
        el.erase_state(0)
        assert el.write_ptr[0] == 0
        assert el.erase_count[0] == 1
        assert (el.page_state[0] == PageState.FREE).all()

    def test_valid_count_tracks_transitions(self, element):
        _sim, el = element
        for page in range(4):
            el.program_state(0, page, lpn=page)
        assert el.valid_count[0] == 4
        el.invalidate_state(0, 1)
        assert el.valid_count[0] == 3

    def test_read_check_rejects_free_page(self, element):
        _sim, el = element
        with pytest.raises(FlashStateError):
            el.read_state_check(0, 0)

    def test_retirement_after_rated_cycles(self):
        sim = Simulator()
        geom = FlashGeometry(pages_per_block=4, blocks_per_element=2)
        timing = FlashTiming.slc().scaled(erase_cycles=3)
        el = FlashElement(sim, geom, timing)
        for _ in range(3):
            el.erase_state(0)
        assert el.retired[0]
        assert not el.retired[1]


class TestCopyPage:
    def test_copy_moves_validity_and_tag(self, element):
        sim, el = element
        el.program_state(0, 0, lpn=42)
        el.copy_page(0, 0, 1, 0, lpn=42)
        sim.run_until_idle()
        assert el.page_state[0, 0] == PageState.INVALID
        assert el.page_state[1, 0] == PageState.VALID
        assert el.reverse_lpn[1, 0] == 42
        assert el.reverse_lpn[0, 0] == -1
