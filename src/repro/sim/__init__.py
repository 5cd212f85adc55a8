"""Discrete-event simulation substrate.

The whole reproduction runs on a single-threaded event loop
(:class:`repro.sim.engine.Simulator`).  Devices schedule callbacks at
absolute simulated times; determinism is guaranteed by a monotonically
increasing sequence number that breaks ties between events scheduled for the
same instant.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.rng import derive_seed, stream

__all__ = [
    "Event",
    "Simulator",
    "derive_seed",
    "stream",
]
