"""Fault injection: flash failure model, grown bad blocks, host error path.

Ground truth throughout is the per-element :class:`FaultModel` counters —
every injected fault must show up exactly once in the handling layer's
books (FTL stats, device stats, error completions), and the device must
degrade gracefully (rescue -> retire -> retry -> read-only) instead of
corrupting state or wedging.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from operator import attrgetter

import pytest

from repro.device.interface import IORequest, OpType
from repro.device.presets import s2slc, table3_gang_ssd
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.flash.element import FlashElement, PageState
from repro.flash.faults import FaultConfig, FaultModel
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.base import DeviceFullError
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.cleaning import CleaningConfig
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap
from repro.ftl.wearlevel import WearConfig
from repro.sim.engine import Simulator
from repro.units import KIB
from tests.conftest import Watchdog, run_io, small_geometry


class _Scripted:
    """Duck-typed FaultModel with a fixed fault plan (unit-test control)."""

    def __init__(self, program=(), erase=(), read=()):
        self.program = list(program)
        self.erase = list(erase)
        self.read = list(read)
        self._prefix = (0.0, 50.0, 200.0, 650.0)

    def draw_program_failure(self, block, page):
        return self.program.pop(0) if self.program else False

    def draw_erase_failure(self, block, erase_count):
        return self.erase.pop(0) if self.erase else False

    def draw_read_retries(self, block, page):
        return self.read.pop(0) if self.read else 0

    def retry_penalty_us(self, steps):
        return self._prefix[steps]


def _element(sim, blocks=8, pages=8):
    geom = FlashGeometry(page_bytes=4096, pages_per_block=pages,
                         blocks_per_element=blocks)
    return FlashElement(sim, geom, FlashTiming.slc(), element_id=0)


# ---------------------------------------------------------------------------
# FaultConfig / FaultModel
# ---------------------------------------------------------------------------


class TestFaultConfig:
    def test_defaults_off(self):
        config = FaultConfig()
        assert not config.enabled
        assert config.program_fail_prob == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(program_fail_prob=1.5),
        dict(program_fail_prob=-0.1),
        dict(erase_fail_base_prob=2.0),
        dict(read_transient_prob=-1.0),
        dict(erase_wear_scale=-0.5),
        dict(read_retry_steps_us=()),
        dict(read_retry_steps_us=(50.0, -1.0)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_retry_penalty_is_prefix_sum(self):
        model = FaultModel(FaultConfig(read_retry_steps_us=(10.0, 30.0)), 0)
        assert model.retry_penalty_us(0) == 0.0
        assert model.retry_penalty_us(1) == 10.0
        assert model.retry_penalty_us(2) == 40.0


class TestFaultModelDeterminism:
    CONFIG = FaultConfig(enabled=True, seed=7, program_fail_prob=0.1,
                         erase_fail_base_prob=0.05, erase_wear_scale=0.01,
                         read_transient_prob=0.1)

    def _draw_plan(self, model):
        plan = []
        for i in range(400):
            plan.append(model.draw_program_failure(i % 8, i % 64))
            plan.append(model.draw_erase_failure(i % 8, i))
            plan.append(model.draw_read_retries(i % 8, i % 64))
        return plan

    def test_same_seed_same_plan(self):
        a, b = FaultModel(self.CONFIG, 3), FaultModel(self.CONFIG, 3)
        assert self._draw_plan(a) == self._draw_plan(b)
        counters = attrgetter("program_failures", "erase_failures",
                              "read_transients", "read_retry_steps")
        assert counters(a) == counters(b)
        assert a.log == b.log

    def test_elements_draw_independent_streams(self):
        a, b = FaultModel(self.CONFIG, 0), FaultModel(self.CONFIG, 1)
        assert self._draw_plan(a) != self._draw_plan(b)

    def test_counters_count_injections(self):
        model = FaultModel(self.CONFIG, 0)
        injected = sum(1 for i in range(400)
                       if model.draw_program_failure(i % 8, i % 64))
        assert injected > 0
        assert model.program_failures == injected


# ---------------------------------------------------------------------------
# FlashElement fault semantics
# ---------------------------------------------------------------------------


class TestElementFaults:
    def test_program_failure_burns_page(self, sim):
        el = _element(sim)
        el.fault_model = _Scripted(program=[True])
        fired = []
        assert el.program_page(0, 0, 5, callback=fired.append) is False
        # burned: consumed but holds no data; the caller's callback never
        # rides the op (the caller must redirect the write)
        assert el.page_state[0, 0] == PageState.INVALID
        assert el.write_ptr[0] == 1
        assert el.reverse_lpn[0, 0] == -1
        assert el.valid_count[0] == 0
        sim.run_until_idle()
        assert fired == []  # time was charged, data was not written
        assert sim.now > 0
        # the redirected program on the next page succeeds
        assert el.program_page(0, 1, 5, callback=fired.append) is True
        sim.run_until_idle()
        assert len(fired) == 1

    def test_copy_failure_preserves_source(self, sim):
        el = _element(sim)
        assert el.program_page(0, 0, 5) is True
        sim.run_until_idle()
        el.fault_model = _Scripted(program=[True])
        assert el.copy_page(0, 0, 1, 0, 5) is False
        # the data was never lost from the medium: source stays VALID,
        # only the destination page burned
        assert el.page_state[0, 0] == PageState.VALID
        assert el.page_state[1, 0] == PageState.INVALID
        assert el.copy_page(0, 0, 1, 1, 5) is True
        assert el.page_state[0, 0] == PageState.INVALID
        assert el.page_state[1, 1] == PageState.VALID

    def test_erase_failure_grows_bad_block(self, sim):
        el = _element(sim)
        for page in range(8):
            assert el.program_page(0, page, page) is True
        for page in range(8):
            el.invalidate_state(0, page)
        sim.run_until_idle()
        el.fault_model = _Scripted(erase=[True])
        fired = []
        assert el.erase_block(0, callback=fired.append) is False
        assert bool(el.retired[0])
        assert el.erase_count[0] == 0  # no cycle charged
        sim.run_until_idle()
        assert len(fired) == 1  # callers chain state machines off it

    def test_read_transient_pays_retry_ladder(self):
        def timed_read(fm):
            sim = Simulator()
            el = _element(sim)
            el.fault_model = None
            el.program_page(0, 0, 5)
            sim.run_until_idle()
            start = sim.now
            el.fault_model = fm
            el.read_page(0, 0)
            sim.run_until_idle()
            return sim.now - start, el.read_retries

        clean_us, clean_retries = timed_read(None)
        slow_us, retries = timed_read(_Scripted(read=[2]))
        assert clean_retries == 0
        assert retries == 2
        assert slow_us == pytest.approx(clean_us + 200.0)


# ---------------------------------------------------------------------------
# host error path (retry / timeout), isolated with a scripted FTL error
# ---------------------------------------------------------------------------


def _retry_ssd(sim, **overrides):
    config = SSDConfig(n_elements=2, geometry=small_geometry(),
                       controller_overhead_us=2.0, **overrides)
    ssd = SSD(sim, config)
    # enable the buffer's error attribution without a fault model: the
    # write error is scripted below
    ssd.ftl.faults_enabled = True
    return ssd


def _make_flaky(ssd, failures):
    """Wrap ftl.write to raise a transient host error on the first
    *failures* calls (the media still absorbs the data)."""
    state = {"calls": 0}
    orig = ssd.ftl.write

    def flaky(offset, size, done=None, tag=None, temp="hot"):
        state["calls"] += 1
        orig(offset, size, done=done, temp=temp)
        if state["calls"] <= failures:
            ssd.ftl.write_error = "transient"

    ssd.ftl.write = flaky
    return state


class TestHostRetry:
    def test_transient_error_retried_then_succeeds(self, sim):
        ssd = _retry_ssd(sim, host_retry_limit=2, host_retry_backoff_us=100.0)
        state = _make_flaky(ssd, failures=1)
        completion = run_io(sim, ssd, OpType.WRITE, 0, 4 * KIB)
        assert completion.error is None
        assert state["calls"] == 2
        assert ssd.stats.write_retries == 1
        assert ssd.stats.requests_failed == 0
        # latency spans both attempts, including the backoff delay
        assert completion.response_us >= 100.0

    def test_backoff_grows_exponentially(self, sim):
        ssd = _retry_ssd(sim, host_retry_limit=3, host_retry_backoff_us=50.0)
        _make_flaky(ssd, failures=2)
        completion = run_io(sim, ssd, OpType.WRITE, 0, 4 * KIB)
        assert completion.error is None
        assert ssd.stats.write_retries == 2
        assert completion.response_us >= 50.0 + 100.0  # 50, then 50*2

    def test_retry_budget_exhausted_surfaces_error(self, sim):
        ssd = _retry_ssd(sim, host_retry_limit=2, host_retry_backoff_us=10.0)
        state = _make_flaky(ssd, failures=10)
        completion = run_io(sim, ssd, OpType.WRITE, 0, 4 * KIB)
        assert completion.error == "transient"
        assert state["calls"] == 3  # initial attempt + 2 retries
        assert ssd.stats.write_retries == 2
        assert ssd.stats.requests_failed == 1

    def test_zero_retry_limit_fails_immediately(self, sim):
        ssd = _retry_ssd(sim, host_retry_limit=0)
        state = _make_flaky(ssd, failures=10)
        completion = run_io(sim, ssd, OpType.WRITE, 0, 4 * KIB)
        assert completion.error == "transient"
        assert state["calls"] == 1
        assert ssd.stats.write_retries == 0


class TestRequestTimeout:
    """The host-side knobs that bound how long a failing request is
    served: the retry budget and its backoff."""

    @pytest.mark.parametrize("kwargs", [
        dict(host_retry_limit=-1),
        dict(host_retry_backoff_us=-1.0),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SSDConfig(n_elements=2, geometry=small_geometry(), **kwargs)


# ---------------------------------------------------------------------------
# end-to-end: soak a faulty device through spare exhaustion
# ---------------------------------------------------------------------------

_SOAK_FAULTS = dict(program_fail_prob=0.02, erase_fail_base_prob=0.01,
                    erase_wear_scale=1e-3, read_transient_prob=0.02)


_FAMILIES = ["pagemap", "blockmap"]
_BUFFERS = ["passthrough", "queue-merge", "align"]


class _Soak:
    """Closed-loop random mixed load against a fault-injecting SSD."""

    def __init__(self, seed, ftl_type="pagemap", count=6000, depth=4,
                 write_fraction=0.7, wear=None, write_buffer="passthrough",
                 watchdog=True):
        self.sim = Simulator()
        config = SSDConfig(
            n_elements=4,
            geometry=small_geometry(),
            ftl_type=ftl_type,
            gang_size=2,
            controller_overhead_us=2.0,
            spare_fraction=0.12,
            faults=FaultConfig(enabled=True, seed=seed, **_SOAK_FAULTS),
            host_retry_limit=2,
            host_retry_backoff_us=20.0,
            wear=WearConfig() if wear is None else wear,
            write_buffer=write_buffer,
        )
        self.ssd = SSD(self.sim, config)
        self.count = count
        self.write_fraction = write_fraction
        self.rng = random.Random(seed)
        self.pages = self.ssd.capacity_bytes // 4096
        self.errors = {}
        self.completed = 0
        self._issued = 0
        self.watchdog = Watchdog(self.ssd) if watchdog else None
        for _ in range(depth):
            self._issue()
        if self.watchdog is None:
            self.sim.run_until_idle()
        else:
            self.watchdog.run_until_idle()

    def _issue(self):
        if self._issued >= self.count:
            return
        self._issued += 1
        op = (OpType.WRITE if self.rng.random() < self.write_fraction
              else OpType.READ)
        offset = self.rng.randrange(self.pages) * 4096
        self.ssd.submit(IORequest(op, offset, 4096,
                                  on_complete=self._on_complete))

    def _on_complete(self, request):
        self.completed += 1
        if request.error is not None:
            self.errors[request.error] = self.errors.get(request.error, 0) + 1
        self._issue()

    def assert_books_balance(self):
        """Every injected fault appears exactly once in the handler's books."""
        ssd, ftl = self.ssd, self.ssd.ftl
        models = [el.fault_model for el in ssd.elements]
        assert ftl.stats.program_failures == sum(
            m.program_failures for m in models)
        assert ftl.stats.erase_failures == sum(
            m.erase_failures for m in models)
        assert sum(el.read_retries for el in ssd.elements) == sum(
            m.read_retry_steps for m in models)
        assert ssd.stats.requests_failed == sum(self.errors.values())
        assert self.completed == self.count
        # every write error the FTL raised was handed to a request or a
        # FLUSH barrier, none left pending for an unrelated later write
        assert ftl.write_error is None
        ftl.check_consistency()


class TestSpareExhaustionEndToEnd:
    def test_pagemap_soak_through_read_only(self):
        soak = _Soak(seed=1)
        ssd, ftl = soak.ssd, soak.ssd.ftl
        soak.assert_books_balance()
        # the fault plan retires enough blocks to exhaust the spares
        assert ftl.stats.program_failures > 0
        assert ftl.stats.blocks_retired > 0
        assert ftl.stats.rescued_pages > 0
        assert ftl.read_only
        assert soak.errors.get("readonly", 0) > 0
        # degraded mode: reads still succeed, writes get error completions
        read = run_io(soak.sim, ssd, OpType.READ, 0, 4 * KIB)
        assert read.error is None
        write = run_io(soak.sim, ssd, OpType.WRITE, 0, 4 * KIB)
        assert write.error == "readonly"
        ftl.check_consistency()

    def test_pagemap_soak_is_deterministic(self):
        a, b = _Soak(seed=3, count=2000), _Soak(seed=3, count=2000)
        assert a.sim.now == b.sim.now
        assert a.errors == b.errors
        assert a.ssd.ftl.stats.program_failures == \
            b.ssd.ftl.stats.program_failures
        assert a.ssd.ftl.stats.blocks_retired == b.ssd.ftl.stats.blocks_retired

    @pytest.mark.parametrize("ftl_type", ["blockmap"])
    def test_stripe_ftls_retire_and_stay_consistent(self, ftl_type):
        soak = _Soak(seed=2, ftl_type=ftl_type, count=600,
                     write_fraction=0.8)
        soak.assert_books_balance()
        assert soak.ssd.ftl.stats.program_failures > 0
        assert soak.ssd.ftl.stats.blocks_retired > 0

    @pytest.mark.parametrize("write_buffer", _BUFFERS)
    @pytest.mark.parametrize("ftl_type", _FAMILIES)
    def test_multi_seed_sweep(self, ftl_type, write_buffer):
        """CI sets REPRO_FAULT_SEEDS=3: the books must balance under every
        seed's fault plan, not just the pinned one, on every FTL family
        behind every write buffer."""
        seeds = int(os.environ.get("REPRO_FAULT_SEEDS", "1"))
        for seed in range(11, 11 + seeds):
            soak = _Soak(seed=seed, ftl_type=ftl_type, count=3000,
                         write_buffer=write_buffer)
            soak.assert_books_balance()
            assert soak.ssd.ftl.stats.program_failures > 0


    def test_watchdog_changes_nothing(self):
        """The watchdog only reads: a watched soak runs the same events to
        the same clock and the same books as an unwatched one."""
        def observe(soak):
            stats = soak.ssd.stats
            return (soak.sim.events_run, soak.sim.now,
                    soak.ssd.ftl.stats.as_dict(), soak.errors,
                    [getattr(stats, name) for name in stats.__slots__])

        watched = _Soak(seed=1)
        assert observe(watched) == observe(_Soak(seed=1, watchdog=False))
        assert watched.ssd.ftl.read_only  # it watched a degrading run


def _tight_run(fault_seed, write_buffer):
    """The tight-device liveness load: a 2 MiB-element gang with no host
    retries and a 2 % program-failure rate takes 3000 random 4 KiB
    writes, open loop, at uniform(0, 150) us gaps.  The load is the same
    for every fault seed.  Returns the watched SSD and its completions."""
    sim = Simulator()
    buffer = {"passthrough": {}, "queue-merge": {"aligned": True},
              "align": {"write_buffer": "align"}}[write_buffer]
    ssd = table3_gang_ssd(
        sim, element_mb=2, host_retry_limit=0,
        faults=FaultConfig(enabled=True, seed=fault_seed,
                           program_fail_prob=0.02),
        **buffer)
    rng = random.Random(3)
    pages = ssd.capacity_bytes // 4096
    done = []
    at = 0.0
    for _ in range(3000):
        at += rng.uniform(0, 150)
        sim.schedule_at(at, ssd.submit,
                        IORequest(OpType.WRITE, rng.randrange(pages) * 4096,
                                  4096, on_complete=done.append))
    Watchdog(ssd).run_until_idle()
    return ssd, done


class TestTightDeviceLiveness:
    """A device too small for its fault plan must degrade, not spin."""

    def test_wedged_element_behind_a_cleaning_one_goes_read_only(self):
        """Element 2 was short with a clean in flight; element 7 was
        short, and its clean had died for want of a page.  A wedge test
        that stopped at element 2 forced cleaning again, the dead clean
        re-armed the pump at zero delay, and the clock stayed at
        256603.9 us with 285 writes done."""
        ssd, done = _tight_run(3, "queue-merge")
        assert len(done) == 3000
        assert ssd.ftl.read_only
        assert ssd.ftl.write_error is None
        ssd.ftl.check_consistency()

    @pytest.mark.parametrize("write_buffer", _BUFFERS)
    def test_fault_sweep_drains(self, write_buffer):
        """CI sets REPRO_FAULT_SEEDS=3: fault seeds 1 to N, each run must
        drain with every write completed (the watchdog fails a spin or
        stranded work)."""
        seeds = int(os.environ.get("REPRO_FAULT_SEEDS", "1"))
        for seed in range(1, 1 + seeds):
            ssd, done = _tight_run(seed, write_buffer)
            assert len(done) == 3000
            assert ssd.ftl.write_error is None
            ssd.ftl.check_consistency()


@pytest.mark.parametrize("stuck_first", [True, False])
@pytest.mark.parametrize("family", _FAMILIES)
def test_wedged_whatever_the_order_of_needed(family, stuck_first):
    """A write that needs a group that is reclaiming and a group that can
    no longer reclaim is wedged, whichever of the two ``_needed`` lists
    first; the one stall response then degrades the device."""
    stuck, reclaiming = (0, 1) if stuck_first else (1, 0)
    sim = Simulator()
    if family == "pagemap":
        # one 8 KiB logical page over two elements: needs element 0, 1
        ftl = PageMappedFTL(sim, [_element(sim) for _ in range(2)],
                            logical_page_bytes=8 * KIB, spare_fraction=0.5)
        size = 8 * KIB
        for e_idx in (0, 1):
            ftl._free[e_idx] = ftl.reserve_pages  # one page short
        ftl.cleaner._active[reclaiming] = True
        ftl.cleaner._no_space[stuck] = True
    else:
        # two single-element gangs: two stripes need gang 0, then gang 1
        ftl = BlockMappedFTL(sim, [_element(sim) for _ in range(2)],
                             gang_size=1, spare_fraction=0.5)
        size = 2 * ftl.stripe_bytes
        for gang in (0, 1):
            del ftl._pool[gang][ftl.reserve_rows:]  # one row short
        ftl._erasing[reclaiming].add(7)  # the stuck gang erases nothing
    assert list(ftl._needed(0, size)) == [0, 1]
    assert not ftl.can_accept_write(0, size)
    assert ftl.write_wedged(0, size)
    assert not ftl.ensure_space(0, size)
    assert ftl.read_only


class TestRefusedWrite:
    def test_pagemap_write_without_a_block_keeps_the_old_copy(self, sim):
        """A write may reach the page-mapped FTL after its admission
        headroom is gone (a rescue or a wear migration took the pages in
        between).  Refused for want of an erased block, it must leave the
        old copy mapped and VALID rather than invalidate it first."""
        ftl = PageMappedFTL(sim, [_element(sim, blocks=4, pages=4)],
                            spare_fraction=0.5)
        ftl._maybe_clean = lambda e_idx: None  # no reclamation
        with pytest.raises(DeviceFullError):
            for _ in range(4 * 4 + 1):
                ftl.write(0, 4096)
        sim.run_until_idle()
        ftl.check_consistency()
        assert ftl.mapped_ppn(0) >= 0


class TestFaultedStripeWriteCompletesOnce:
    """A stripe write that raises ``DeviceFullError`` on its second stripe
    has already issued the first stripe's programs.  The buffer fails it;
    the programs that landed must not complete it a second time (which
    also drove the FLUSH barrier's count below the writes outstanding).
    The queue-merging buffer hands its merged runs over the same way, so
    such a run fails its batch instead of escaping the simulation."""

    @staticmethod
    def _run(write_buffer):
        """Random small and stripe-spanning writes through an S2slc that
        grows bad blocks until a stripe write runs out of spares; returns
        ``(ssd, completions per request, errors, DeviceFullErrors raised)``."""
        sim = Simulator()
        ssd = s2slc(sim, element_mb=8, max_inflight=1,
                    write_buffer=write_buffer,
                    faults=FaultConfig(enabled=True, seed=3,
                                       program_fail_prob=0.03))
        raised = []
        write = ssd.ftl.write

        def counted_write(*args, **kwargs):
            try:
                write(*args, **kwargs)
            except DeviceFullError:
                raised.append(sim.now)
                raise

        ssd.ftl.write = counted_write
        sb = ssd.ftl.stripe_bytes
        rng = random.Random(3)
        completed: Counter = Counter()
        errors: Counter = Counter()

        def on_complete(request):
            completed.update([id(request)])
            errors.update([request.error])

        t = 0.0
        for _ in range(3000):
            t += rng.uniform(0.0, 400.0)
            size = rng.choice((4 * KIB, sb + 8 * KIB, 2 * sb))
            offset = rng.randrange((ssd.capacity_bytes - size) // 4096) * 4096
            request = IORequest(OpType.WRITE, offset, size,
                                on_complete=on_complete)
            sim.schedule_at(t, ssd.submit, request)
        sim.run_until_idle()
        return ssd, completed, errors, raised

    def test_each_write_completes_once(self):
        ssd, completed, _, _ = self._run("passthrough")
        assert len(completed) == 3000
        assert set(completed.values()) == {1}
        assert ssd.write_buffer._outstanding == 0
        assert ssd.ftl.read_only  # the run did reach the mid-write failure

    def test_merged_run_out_of_spares_fails_its_batch(self):
        ssd, completed, errors, raised = self._run("queue-merge")
        assert raised  # a merged run did run out of spares mid-write
        assert ssd.write_buffer.merged_requests > 0
        assert len(completed) == 3000
        assert set(completed.values()) == {1}
        assert errors["transient"] > 0
        assert ssd.stats.requests_failed == 3000 - errors[None]
        assert ssd.write_buffer._outstanding == 0
        assert ssd.ftl.write_error is None
        assert ssd.ftl.read_only


class TestQueueMergeRunErrors:
    """A run of a merged batch that loses a page fails every member of the
    batch: the batch completes as one, so the run's error is theirs too."""

    def test_every_member_of_a_batch_that_lost_a_page_fails(self):
        sim = Simulator()
        ssd = table3_gang_ssd(
            sim, element_mb=2, aligned=True, host_retry_limit=0,
            faults=FaultConfig(enabled=True, seed=1, program_fail_prob=0.02))
        ftl = ssd.ftl
        buffer = ssd.write_buffer
        # record each batch's members, and whether a run of it lost a page
        batches = []
        insert, steal, write = buffer.insert, ssd.steal_queued_writes, ftl.write

        def logged_insert(request, complete):
            batches.append(([request], []))
            insert(request, complete)

        def logged_steal(lo, hi, limit=None):
            stolen = steal(lo, hi, limit=limit)
            batches[-1][0].extend(stolen)
            return stolen

        def logged_write(offset, size, done=None, **kwargs):
            lost = ftl.stats.failed_pages
            write(offset, size, done=done, **kwargs)
            if ftl.stats.failed_pages > lost:
                batches[-1][1].append((offset, size))

        buffer.insert = logged_insert
        ssd.steal_queued_writes = logged_steal
        ftl.write = logged_write

        rng = random.Random(1)
        pages = ssd.capacity_bytes // (4 * KIB)
        t = 0.0
        for _ in range(1500):
            t += rng.uniform(0.0, 150.0)
            sim.schedule_at(t, ssd.submit, IORequest(
                OpType.WRITE, rng.randrange(pages) * 4 * KIB, 4 * KIB))
        sim.run_until_idle()

        assert ftl.stats.failed_pages > 0
        failed = [members for members, lost_runs in batches if lost_runs]
        assert failed
        assert sum(len(members) for members in failed) > len(failed)
        for members in failed:
            for member in members:
                assert member.complete_us is not None
                assert member.error in ("transient", "readonly")
        assert ftl.write_error is None


class TestLifecycleConservation:
    """Block-lifecycle conservation laws under grown bad blocks: every
    page the FTL books as programmed was programmed on some element, and
    every block it books as retired is marked retired on its element."""

    @pytest.mark.parametrize("ftl_type", _FAMILIES)
    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_programs_and_retirements_balance(self, ftl_type, seed):
        soak = _Soak(seed=seed, ftl_type=ftl_type, count=800)
        ftl = soak.ssd.ftl
        assert ftl.stats.flash_pages_programmed == sum(
            el.pages_programmed for el in ftl.elements)
        assert ftl.stats.blocks_retired == sum(
            int(el.retired.sum()) for el in ftl.elements)
        assert ftl.stats.program_failures > 0
        ftl.check_consistency()


# ---------------------------------------------------------------------------
# cleaning: copy-back failures inside a run
# ---------------------------------------------------------------------------


class _RunRecorder(FlashElement):
    """Element that logs every cleaning copy attempt with its place in the
    copy batch: ``(batch_first, carries_callback, dst_page)`` per attempt."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attempts = []
        self.batch_starts = False

    def copy_run(self, src_block, src_pages, dst_block, dst_page,
                 tag="clean", callback=None):
        copied = super().copy_run(src_block, src_pages, dst_block, dst_page,
                                  tag, callback)
        last = len(src_pages) - 1
        for i in range(min(copied + 1, len(src_pages))):
            self.attempts.append((self.batch_starts,
                                  callback is not None and i == last,
                                  dst_page + i))
            self.batch_starts = False
        return copied


class _FailAt:
    """Fault model failing the program half of the chosen draws (0-based,
    counted across the element's program draws)."""

    def __init__(self, plan):
        self.plan = set(plan)
        self.draws = 0
        self.failures = 0

    def draw_program_failure(self, block, page):
        index = self.draws
        self.draws += 1
        if index in self.plan:
            self.failures += 1
            return True
        return False

    def draw_erase_failure(self, block, erase_count):
        return False

    def draw_read_retries(self, block, page):
        return 0


def _run_cleans(seed, plan=None, cleans=6):
    """Prefill one element, then force ``cleans`` greedy cleans with no
    host traffic, so every program draw is a cleaning copy (rescues run
    with faults suspended)."""
    sim = Simulator()
    geom = FlashGeometry(page_bytes=4096, pages_per_block=16,
                         blocks_per_element=48)
    element = _RunRecorder(sim, geom, FlashTiming.slc(), element_id=0)
    ftl = PageMappedFTL(sim, [element], spare_fraction=0.25,
                        cleaning=CleaningConfig(batch_pages=3))
    prefill_pagemap(ftl, 0.9, overwrite_fraction=0.2,
                    rng=random.Random(seed))
    cleaner = ftl.cleaner
    copy_batch = cleaner._copy_batch

    def mark_batch(*args):
        element.batch_starts = True
        copy_batch(*args)

    cleaner._copy_batch = mark_batch
    mapped = int((ftl.map_for(0) >= 0).sum())
    if plan is not None:
        element.fault_model = _FailAt(plan)
    for _ in range(cleans):
        cleaner.maybe_clean(0, force=True)
        sim.run_until_idle()
    return ftl, element, mapped


def _roles(attempts):
    """One attempt index per role, from a fault-free run's attempt log."""
    n = len(attempts)

    def ends_batch(k):
        return k + 1 == n or attempts[k + 1][0]

    roles = {}
    for k, (first, carries, dst_page) in enumerate(attempts):
        if first and not carries and dst_page and not ends_batch(k):
            roles.setdefault("batch_first", k)
        if (not first and not carries and dst_page
                and not ends_batch(k)):
            roles.setdefault("middle", k)
        if carries and not first and dst_page:
            roles.setdefault("batch_last", k)
        if not first and dst_page == 0:
            roles.setdefault("after_block_boundary", k)
    return roles


_ROLE_SEEDS = range(11, 11 + int(os.environ.get("REPRO_FAULT_SEEDS", "1")))


class TestCopyRunFailures:
    @pytest.mark.parametrize("seed", _ROLE_SEEDS)
    def test_failure_at_each_position_of_a_run(self, seed):
        _ftl, dry, _mapped = _run_cleans(seed)
        roles = _roles(dry.attempts)
        assert set(roles) == {"batch_first", "middle", "batch_last",
                              "after_block_boundary"}, roles
        for role, index in sorted(roles.items()):
            self._check(seed, [index], role)
        self._check(seed, sorted(roles.values()), "all")

    @staticmethod
    def _check(seed, plan, role):
        ftl, element, mapped = _run_cleans(seed, plan)
        model = element.fault_model
        stats = ftl.stats
        # the injected plan fired in full, and the books match it: one
        # failure, one retired frontier block, per injected fault
        assert model.failures == len(plan), role
        assert stats.program_failures == len(plan), role
        assert stats.blocks_retired == len(plan), role
        assert stats.failed_pages == 0, role
        # every clean finished: nothing active, paused or half-erased
        cleaner = ftl.cleaner
        assert not cleaner._active[0] and not cleaner._paused, role
        assert not cleaner.being_cleaned[0], role
        assert stats.clean_erases > 0, role
        assert element.queue_depth == 0, role
        # every mapped slot points at a VALID page whose reverse map agrees,
        # and no slot lost its data
        emap = ftl.map_for(0)
        ppb = ftl.geometry.pages_per_block
        slots = [int(s) for s in (emap >= 0).nonzero()[0]]
        assert len(slots) == mapped, role
        for slot in slots:
            block, page = divmod(int(emap[slot]), ppb)
            assert element.page_state[block, page] == PageState.VALID, role
            assert element.reverse_lpn[block, page] == slot, role
        ftl.check_consistency()


class TestFaultsOffUnperturbed:
    def test_disabled_config_attaches_no_model(self, sim):
        ssd = SSD(sim, SSDConfig(n_elements=2, geometry=small_geometry(),
                                 faults=FaultConfig(enabled=False, seed=1)))
        assert all(el.fault_model is None for el in ssd.elements)
        assert not ssd.ftl.faults_enabled

    def test_zero_probability_faults_do_not_move_the_clock(self):
        """An attached model that never fires must not perturb timing:
        draws happen off the op clock, so the run is bit-identical."""
        def run(faults):
            sim = Simulator()
            ssd = SSD(sim, SSDConfig(n_elements=2,
                                     geometry=small_geometry(),
                                     faults=faults))
            rng = random.Random(9)
            pages = ssd.capacity_bytes // 4096
            for _ in range(200):
                run_io(sim, ssd, OpType.WRITE, rng.randrange(pages) * 4096,
                       4 * KIB)
            return sim.now, ssd.ftl.stats.flash_pages_programmed

        baseline = run(None)
        armed = run(FaultConfig(enabled=True, seed=5))
        assert armed == baseline
