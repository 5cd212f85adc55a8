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
