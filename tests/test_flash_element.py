"""Unit tests for the flash element: timing, state machine, accounting."""

from __future__ import annotations

import pytest

from repro.flash.element import FlashElement, FlashStateError, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.ops import TAG_CLEAN, TAG_HOST
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), -1.0])
    @pytest.mark.parametrize("name", ["page_read_us", "page_program_us",
                                      "block_erase_us", "bus_mb_per_s",
                                      "erase_cycles"])
    def test_bad_value_refused_at_construction(self, name, value):
        shown = "NaN" if value != value else str(value)
        with pytest.raises(ValueError, match=f"^{name} must be .*got {shown}$"):
            FlashTiming(**{name: value})
        with pytest.raises(ValueError, match=name):
            FlashTiming.mlc().scaled(**{name: value})

    @pytest.mark.parametrize("name", ["bus_mb_per_s", "erase_cycles"])
    def test_zero_refused_where_it_divides_or_wears_out(self, name):
        with pytest.raises(ValueError, match=name):
            FlashTiming(**{name: 0})

    def test_zero_times_accepted(self):
        timing = FlashTiming(page_read_us=0.0, page_program_us=0.0,
                             block_erase_us=0.0, erase_cycles=1)
        assert timing.erase_us() == 2.0


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


# -- copy runs against the per-page reference ------------------------------


class _ReferenceElement(FlashElement):
    """The per-page FIFO that one-entry copy runs replaced: every page of a
    copy run is its own ``(duration_us, accumulator, callback)`` entry and
    its own drain callback.  ``_issue``, ``_on_drain``, ``copy_run`` and
    ``queue_depth`` are that implementation verbatim, but for the two 2-D
    state views ``copy_run`` indexes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ps2d = memoryview(self.page_state)
        self._rl2d = memoryview(self.reverse_lpn)

    def _issue(self, duration_us, tag, callback):
        accum = self._accum
        acc = accum.get(tag)
        if acc is None:
            acc = accum[tag] = [0.0, 0]
        if self._inflight is None:
            self._inflight = (duration_us, acc, callback)
            done_at = self.sim.now + duration_us
            self.drain_at_us = done_at
            self.sim.reschedule(self._drain, done_at)
        else:
            self._queue.append((duration_us, acc, callback))
            self.drain_at_us += duration_us

    def _on_drain(self):
        duration_us, acc, callback = self._inflight
        acc[0] += duration_us
        acc[1] += 1
        sim = self.sim
        queue = self._queue
        if queue:
            nxt = queue.popleft()
            self._inflight = nxt
            sim.reschedule(self._drain, sim.now + nxt[0])
            if callback is not None:
                callback(sim.now)
            return
        self._inflight = None
        if callback is not None:
            callback(sim.now)

    @property
    def queue_depth(self):
        depth = len(self._queue)
        if self._inflight is not None:
            depth += 1
        return depth

    def copy_run(self, src_block, src_pages, dst_block, dst_page,
                 tag=TAG_CLEAN, callback=None):
        ps = self._ps2d
        rl = self._rl2d
        vc = self._vc
        wp = self._wp
        write_ptr = wp[dst_block]
        if self.strict_program_order and dst_page != write_ptr:
            self.program_state(dst_block, dst_page, -1, op="copy", tag=tag)
        accum = self._accum
        acc = accum.get(tag)
        if acc is None:
            acc = accum[tag] = [0.0, 0]
        duration = self._page_copy_us
        fm = self.fault_model
        queue = self._queue
        drain_at = self.drain_at_us
        first = dst_page
        last = len(src_pages) - 1
        copied = 0
        for src_page in src_pages:
            if ps[src_block, src_page] != 1:  # PageState.VALID
                self.read_state_check(src_block, src_page, op="copy", tag=tag)
            if ps[dst_block, dst_page] != 0:  # PageState.FREE
                self.program_state(dst_block, dst_page, -1, op="copy", tag=tag)
            failed = fm is not None and fm.draw_program_failure(dst_block,
                                                                dst_page)
            if failed:
                ps[dst_block, dst_page] = 2  # PageState.INVALID: burned
                entry = (duration, acc, None)
            else:
                ps[src_block, src_page] = 2  # PageState.INVALID
                ps[dst_block, dst_page] = 1  # PageState.VALID
                rl[dst_block, dst_page] = rl[src_block, src_page]
                rl[src_block, src_page] = -1
                vc[src_block] -= 1
                vc[dst_block] += 1
                entry = (duration, acc, callback if copied == last else None)
                copied += 1
            dst_page += 1
            if self._inflight is None:
                self._inflight = entry
                drain_at = self.sim.now + duration
                self.sim.reschedule(self._drain, drain_at)
            else:
                queue.append(entry)
                drain_at += duration
            if failed:
                break
        self.drain_at_us = drain_at
        if dst_page > write_ptr:
            wp[dst_block] = dst_page
        if copied:
            self._mt[dst_block] = self.sim.now
        self.pages_programmed += copied
        self.pages_read += dst_page - first
        return copied


class _BurnOne:
    """A fault model that fails exactly one program: (block, page)."""

    def __init__(self, block, page):
        self.target = (block, page)

    def draw_program_failure(self, block, page):
        return (block, page) == self.target

    def draw_read_retries(self, block, page):
        return 0


def _drive_script(cls, script, n_elements=2):
    """Run *script* on fresh elements of *cls* and return everything an
    observer can see: the callback log (with the clock, the running seq
    and every element's ``queue_depth``, ``drain_at_us`` and
    ``queue_wait_us()`` at each callback), the same at every bounded-run
    stop, the event count, and the accounting and page state after
    draining."""
    sim = Simulator()
    geom = FlashGeometry(page_bytes=4096, pages_per_block=8,
                         blocks_per_element=16)
    # a copy time with no exact binary sum, so float order shows
    timing = FlashTiming.slc().scaled(page_program_us=200.7)
    elements = [cls(sim, geom, timing, element_id=i)
                for i in range(n_elements)]
    for el in elements:
        for page in range(8):
            el.program_state(0, page, lpn=100 + page)
        el.program_state(2, 0, lpn=7)
    log = []

    def observe(label):
        return (label, sim.now, sim.now_seq, sim.events_run,
                [el.queue_depth for el in elements],
                [el.drain_at_us for el in elements],
                [el.queue_wait_us() for el in elements])

    def note(label):
        return lambda *_: log.append(observe(label))

    stops = script(sim, elements, note)
    for until_us in stops:
        sim.run(until_us=until_us)
        log.append(observe(f"stop@{until_us}"))
    sim.run_until_idle()
    log.append(observe("idle"))
    after = [(el.busy_us(), el.busy_us(TAG_CLEAN), el.busy_us(TAG_HOST),
              el.ops_by_tag, el.page_state.tolist(), el.reverse_lpn.tolist(),
              el.valid_count.tolist(), el.write_ptr.tolist(),
              el.block_mtime.tolist(), el.pages_programmed, el.pages_read)
             for el in elements]
    return log, sim.events_run, after


def _page_boundaries(el, start, pages):
    """The instants a run's pages finish, summed as the drain sums them."""
    bounds = []
    at = start
    for _ in range(pages):
        at += el._page_copy_us
        bounds.append(at)
    return bounds


def _twin_runs(sim, elements, note):
    # identical runs on two elements from one instant: every page boundary
    # is an exact tie between the two drains
    for el in elements:
        el.copy_run(0, [0, 2, 3, 5, 6], 1, 0, TAG_CLEAN,
                    note(f"run{el.element_id}"))
    bounds = _page_boundaries(elements[0], 0.0, 5)
    # ... and a same-instant event, scheduled after the runs, on two of them
    sim.schedule_at(bounds[1], note("tie1"))
    sim.schedule_at(bounds[4], note("tie4"))
    return [bounds[0] / 2, bounds[2], (bounds[2] + bounds[3]) / 2]


def _host_behind_run(sim, elements, note):
    el = elements[0]
    el.read_page(2, 0, callback=note("read-first"))
    el.copy_run(0, [1, 2, 4, 7], 1, 0, TAG_CLEAN, note("run"))
    el.program_page(3, 0, lpn=9, callback=note("program-behind"))
    el.copy_run(0, [0, 3], 1, 4, TAG_CLEAN, note("run2"))
    elements[1].program_page(3, 0, lpn=1, callback=note("other"))
    start = el.timing.read_us(4096)
    bounds = _page_boundaries(el, start, 4)
    return [start + 1.0, bounds[1], bounds[3] + 1.0]


def _zero_delay_on_boundary(sim, elements, note):
    a, b = elements
    bounds = _page_boundaries(b, 0.0, 6)
    # pre-scheduled on B's third page boundary: ranks before that tick
    sim.schedule_at(bounds[2], note("before-tick"))

    def a_done(now):
        note("a-done")()
        # scheduled at B's third boundary, after the tick there drew its seq
        sim.schedule(0.0, note("zero-delay"))

    a.copy_run(0, [0, 1, 2], 1, 0, TAG_CLEAN, a_done)
    b.copy_run(0, [0, 1, 2, 3, 4, 5], 1, 0, TAG_CLEAN, note("b-done"))
    return [bounds[2], (bounds[2] + bounds[3]) / 2]


def _burn_mid_run(sim, elements, note):
    el = elements[0]
    el.fault_model = _BurnOne(1, 3)
    el.read_page(2, 0, callback=note("read"))
    copied = el.copy_run(0, [0, 1, 2, 3, 4, 5], 1, 0, TAG_CLEAN,
                         note("never: the run burned"))
    assert copied == 3
    el.program_page(3, 0, lpn=5, callback=note("program-after-burn"))
    # the burned page's source is still valid: copy it again elsewhere
    el.copy_run(0, [3, 4], 4, 0, TAG_CLEAN, note("retry"))
    start = el.timing.read_us(4096)
    return [_page_boundaries(el, start, 4)[2]]


class TestCopyRunMatchesPerPageReference:
    """A copy run is one FIFO entry whose drain ticks through its pages;
    every observable must match the per-page FIFO it replaced."""

    @pytest.mark.parametrize("script", [_twin_runs, _host_behind_run,
                                        _zero_delay_on_boundary,
                                        _burn_mid_run],
                             ids=["twin-runs", "host-behind-run",
                                  "zero-delay-on-boundary", "burn-mid-run"])
    def test_matches_reference(self, script):
        ran = _drive_script(FlashElement, script)
        reference = _drive_script(_ReferenceElement, script)
        assert ran == reference

    def test_run_is_one_entry_counting_its_pages(self, element):
        sim, el = element
        for page in range(4):
            el.program_state(0, page, lpn=page)
        el.read_page(0, 0)
        el.copy_run(0, [1, 2, 3], 1, 0)
        assert len(el._queue) == 1
        assert el.queue_depth == 4
        sim.run(until_us=el.timing.read_us(4096) + 1.0)
        assert el.queue_depth == 3
        assert el.ops_by_tag == {TAG_HOST: 1, TAG_CLEAN: 0}  # run not done
        sim.run_until_idle()
        assert el.queue_depth == 0
        assert el.ops_by_tag == {TAG_HOST: 1, TAG_CLEAN: 3}
