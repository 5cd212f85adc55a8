"""Shared fixtures: small SSDs that keep tests fast but exercise real paths."""

from __future__ import annotations

import pytest

from repro.device.interface import IORequest, OpType
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.flash.geometry import FlashGeometry
from repro.sim.engine import Event, Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def small_geometry(blocks: int = 64, pages: int = 16) -> FlashGeometry:
    return FlashGeometry(
        page_bytes=4096, pages_per_block=pages, blocks_per_element=blocks
    )


@pytest.fixture
def small_ssd(sim: Simulator) -> SSD:
    """4-element, ~16 MB SSD with a page-mapped FTL."""
    config = SSDConfig(
        name="test-small",
        n_elements=4,
        geometry=small_geometry(),
        controller_overhead_us=5.0,
    )
    return SSD(sim, config)


def run_io(sim: Simulator, device, op: OpType, offset: int, size: int, priority: int = 0):
    """Submit one request and run the simulator until it completes."""
    done = []
    request = IORequest(op, offset, size, priority=priority, on_complete=done.append)
    device.submit(request)
    sim.run_until_idle()
    assert done, f"request {op} [{offset}, {offset + size}) never completed"
    return done[0]


def schedule_at_front(sim: Simulator, time_us: float, fn, *args) -> Event:
    """Schedule ``fn(*args)`` at *time_us* on the simulator's front lane:
    one fresh :class:`Event` armed through ``reschedule_at_front``."""
    event = Event(time_us, 0, fn, args)
    event.alive = False
    sim.reschedule_at_front(event, time_us)
    return event


class Watchdog:
    """Fail an SSD run that stops making progress.

    Two checks, and nothing else: the watchdog schedules no event, draws
    no random number and leaves ``Simulator.run`` alone, so a watched run
    simulates exactly what an unwatched one does.

    * **Spin.**  No simulated instant may run more than *budget* events
      past the first time the FTL reported freed space at that instant.
      The count is read in ``ftl.on_space_freed``, which every
      reclamation (an erase landing, an abandoned clean) calls: a loop
      that re-arms itself at zero delay through reclamation passes it on
      every lap.  ``largest`` keeps the highest count seen.
    * **Stranded work.**  :meth:`run_until_idle` fails when the event
      queue runs dry while the device still holds a queued request, a
      busy dispatch slot or a write its buffer has not finished.
    """

    #: events one instant may run after its first space-freed report.  The
    #: fault sweeps in tests/test_faults.py peak at 1 (the soaks) and 0
    #: (the tight device) at REPRO_FAULT_SEEDS=3; the livelock it was
    #: built for ran 1.5 million events at one instant
    BUDGET = 2000

    def __init__(self, ssd, budget: int = BUDGET) -> None:
        self.ssd = ssd
        self.budget = budget
        self.largest = 0
        self._instant = -1.0
        self._first = 0
        self._space_freed = ssd.ftl.on_space_freed
        ssd.ftl.on_space_freed = self._on_space_freed

    def _on_space_freed(self) -> None:
        sim = self.ssd.sim
        if sim.now != self._instant:
            self._instant = sim.now
            self._first = sim.events_run
        used = sim.events_run - self._first
        if used > self.largest:
            self.largest = used
            assert used <= self.budget, (
                f"{used} events at t={sim.now} us without the clock moving"
            )
        self._space_freed()

    def run_until_idle(self) -> None:
        ssd = self.ssd
        ssd.sim.run_until_idle()
        stranded = (len(ssd.queue), ssd._inflight,
                    ssd.write_buffer._outstanding)
        assert stranded == (0, 0, 0), (
            f"idle at t={ssd.sim.now} us with (queued, in service, "
            f"unwritten) = {stranded}"
        )
