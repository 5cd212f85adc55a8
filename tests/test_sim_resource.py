"""Dedicated tests for :mod:`repro.sim.resource` (the serial link).

The link got its batched completion path in PR 3 (one armed event over the
busy interval instead of one heap event per transfer), so this file pins:

* FIFO ordering and exact finish times of queued transfers,
* busy-time and byte accounting,
* the batching path's equivalence with the seed's schedule-per-transfer
  reference — identical completion times, identical delivery order against
  unrelated same-timestamp events, identical event count,
* re-entrancy (a completion callback that queues the next transfer).
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.resource import SerialResource

MIB = 1024 * 1024


class _ReferenceSerialResource:
    """The seed's implementation: one fresh heap event per transfer."""

    def __init__(self, sim: Simulator, mb_per_s: float) -> None:
        self.sim = sim
        self._bytes_per_us = mb_per_s * 1024 * 1024 / 1_000_000.0
        self.busy_until = 0.0

    def transfer(self, nbytes: int, then) -> float:
        start = max(self.sim.now, self.busy_until)
        finish = start + nbytes / self._bytes_per_us
        self.busy_until = finish
        self.sim.schedule(finish - self.sim.now, then, finish)
        return finish


class TestFIFOOrdering:
    def test_back_to_back_transfers_serialize_in_order(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)  # 1 MiB/s
        finishes = []
        for tag in range(4):
            link.transfer(MIB, lambda at, t=tag: finishes.append((t, at)))
        assert len(link._pending) == 4 and finishes == []
        sim.run_until_idle()
        assert [t for t, _ in finishes] == [0, 1, 2, 3]
        assert [at for _, at in finishes] == pytest.approx(
            [1_000_000.0, 2_000_000.0, 3_000_000.0, 4_000_000.0]
        )
        assert not link._pending and not link._deferred

    def test_idle_gap_restarts_from_now(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)
        link.transfer(MIB, lambda at: None)
        sim.run_until_idle()  # link idle at t=1s
        sim.schedule_at(5_000_000.0, lambda: None)
        sim.run_until_idle()  # clock at 5s
        finish = link.transfer(MIB, lambda at: None)
        assert finish == pytest.approx(6_000_000.0)

    def test_callback_sees_clock_at_finish_time(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)
        seen = []
        link.transfer(MIB, lambda at: seen.append((at, sim.now)))
        link.transfer(2 * MIB, lambda at: seen.append((at, sim.now)))
        sim.run_until_idle()
        for at, now in seen:
            assert at == pytest.approx(now)


class TestAccounting:
    def test_bytes_and_busy_time(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=2.0)
        link.transfer(MIB, lambda at: None)
        link.transfer(3 * MIB, lambda at: None)
        assert link.bytes_transferred == 4 * MIB
        # 4 MiB at 2 MiB/s = 2 s of committed busy time, queue wait excluded
        assert link.busy_us == pytest.approx(2_000_000.0)
        sim.run_until_idle()
        assert link.busy_us == pytest.approx(2_000_000.0)

    def test_wait_estimate_decays_with_clock(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)
        assert link.wait_us() == 0.0
        link.transfer(MIB, lambda at: None)
        assert link.wait_us() == pytest.approx(1_000_000.0)
        sim.run(until_us=250_000.0)
        assert link.wait_us() == pytest.approx(750_000.0)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            SerialResource(Simulator(), mb_per_s=0)

    @pytest.mark.parametrize("delay_us,why", [(-1.0, "in the past"),
                                              (float("nan"), "NaN")],
                             ids=["-1.0", "nan"])
    def test_transfer_after_rejects_bad_delay(self, delay_us, why):
        link = SerialResource(Simulator(), mb_per_s=1.0)
        with pytest.raises(SimulationError, match=why):
            link.transfer_after(delay_us, 4096, lambda at: None)


class TestBatchingEquivalence:
    """The batched path must be observationally identical to the seed's
    one-event-per-transfer link, including same-timestamp tie-breaks."""

    def _drive(self, make_link):
        """Randomized open-loop transfer storm interleaved with unrelated
        events, some of which land exactly on transfer finish times."""
        sim = Simulator()
        link = make_link(sim)
        rng = random.Random(1337)
        log = []

        def issue(tag: int, nbytes: int) -> None:
            finish = link.transfer(
                nbytes, lambda at, t=tag: log.append(("xfer", t, at, sim.now))
            )
            # an unrelated event at exactly the finish instant: delivery
            # order between it and the transfer is pure (time, seq) tie-break
            if tag % 3 == 0:
                sim.schedule_at(
                    finish, lambda t=tag: log.append(("tie", t, sim.now))
                )

        for tag in range(200):
            at = rng.uniform(0.0, 5_000.0)
            nbytes = rng.choice((512, 4096, 65536))
            sim.schedule_at(at, issue, tag, nbytes)
        sim.run_until_idle()
        return log, sim.events_run, round(sim.now, 9)

    def test_matches_reference_implementation(self):
        batched = self._drive(lambda sim: SerialResource(sim, mb_per_s=100.0))
        reference = self._drive(
            lambda sim: _ReferenceSerialResource(sim, mb_per_s=100.0)
        )
        assert batched == reference

    def test_heap_holds_one_link_event_regardless_of_backlog(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)
        for _ in range(500):
            link.transfer(4096, lambda at: None)
        assert len(link._pending) == 500
        # the pending FIFO absorbs the backlog; the heap carries one entry
        assert len(sim._heap) == 1

    def test_reentrant_transfer_from_completion_callback(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)
        finishes = []

        def chain(remaining: int):
            def done(at: float) -> None:
                finishes.append(at)
                if remaining > 1:
                    chain(remaining - 1)

            link.transfer(MIB, done)

        chain(3)
        sim.run_until_idle()
        assert finishes == pytest.approx(
            [1_000_000.0, 2_000_000.0, 3_000_000.0]
        )

    def test_reentrant_transfer_keeps_fifo_order_with_backlog(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)
        order = []

        def first_done(at: float) -> None:
            order.append(("first", at))
            # queued while an older pending completion (second) exists: the
            # re-arm must pick the FIFO head, not the newcomer
            link.transfer(MIB, lambda a: order.append(("third", a)))

        link.transfer(MIB, first_done)
        link.transfer(MIB, lambda a: order.append(("second", a)))
        sim.run_until_idle()
        assert [name for name, _ in order] == ["first", "second", "third"]
        assert [at for _, at in order] == pytest.approx(
            [1_000_000.0, 2_000_000.0, 3_000_000.0]
        )
