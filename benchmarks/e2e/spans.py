"""Per-layer span tracing for the benchmark's traced run.

The tracer measures the simulator from outside: it replaces public
functions of each layer with timing wrappers for the duration of one run
and puts the originals back afterwards.  Nothing inside ``src/`` knows it
is being traced, so a traced run must reproduce the untraced run's digest
and event count exactly (the benchmark checks both).

A span stack turns the nested wall times into self times: each wrapper
pushes a child-time accumulator, and on exit its own duration is added to
its parent's accumulator.  A span's self time is its duration minus the
time covered by the spans it opened, so the self times of all spans sum to
the wall time of the outermost span.  Everything is aggregated in memory
per ``(layer, function)`` cell; nothing is written until the run ends.

A few wrappers also *observe* simulated state through side-effect-free
public reads (queue lengths, ``queue_wait_us()``, ``wait_us()``).  Those
reads draw no random numbers and schedule no events.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.device.scheduler import FCFSScheduler, SWTFScheduler
from repro.device.ssd import SSD
from repro.fleet import report as fleet_report
from repro.fleet import runner as fleet_runner
from repro.flash.element import FlashElement
from repro.ftl import prefill
from repro.ftl.cleaning import Cleaner
from repro.ftl.pagemap import PageMappedFTL
from repro.sim.engine import Simulator
from repro.sim.resource import SerialResource
from repro.sim.stats import (QuantileSketch, ReservoirSampler,
                             StreamingLatencyRecorder)
from repro.workloads import driver

__all__ = ["Tracer", "installed"]


class Cell:
    """Aggregated spans of one wrapped function."""

    __slots__ = ("calls", "incl_s", "self_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0


class Tracer:
    """In-memory span aggregator plus the simulated-state observations the
    wrappers take (sums and counts keyed by name; queue-depth samples)."""

    def __init__(self) -> None:
        self._stack: List[float] = []
        self.cells: Dict[Tuple[str, str], Cell] = {}
        self.sums: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.queue_depths: List[int] = []

    def cell(self, layer: str, name: str) -> Cell:
        return self.cells.setdefault((layer, name), Cell())

    def wrap(self, layer: str, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """A span-recording stand-in for ``fn``.  ``before(args)`` and
        ``after(result, args)`` run inside the span and may only read."""
        cell = self.cell(layer, name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                cell.calls += 1
                cell.incl_s += elapsed
                cell.self_s += elapsed - child
                if elapsed > cell.max_s:
                    cell.max_s = elapsed
                if stack:
                    stack[-1] += elapsed

        return traced

    def records(self, iterable) -> Iterator:
        """Time every ``next()`` of a record iterator as the ``traces``
        layer (the generator's work happens inside ``next``)."""
        return _TimedIterator(self, iter(iterable))

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self_s)`` summed over the layer's cells."""
        totals: Dict[str, Tuple[int, float]] = {}
        for (layer, _name), cell in self.cells.items():
            calls, self_s = totals.get(layer, (0, 0.0))
            totals[layer] = (calls + cell.calls, self_s + cell.self_s)
        return totals


class _TimedIterator:
    __slots__ = ("_it", "_cell", "_stack")

    def __init__(self, tracer: Tracer, it: Iterator) -> None:
        self._it = it
        self._cell = tracer.cell("traces", "next")
        self._stack = tracer._stack

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        cell = self._cell
        try:
            item = next(self._it)
            cell.calls += 1  # records yielded, not exhausted next() calls
            return item
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()
            cell.incl_s += elapsed
            cell.self_s += elapsed - child
            if stack:
                stack[-1] += elapsed


def _patches(tracer: Tracer) -> list:
    """``(owner, attribute, layer, before, after)`` for every wrapped
    function.  Functions a module imported by name are patched where they
    are looked up (``repro.fleet.runner`` imports the driver and prefill
    functions), and methods are patched on their classes before any
    device is built, so methods the program pre-binds at construction
    (``PageMappedFTL._maybe_clean``) are covered too."""
    sums, counts = tracer.sums, tracer.counts
    depths = tracer.queue_depths

    def link_wait(args) -> None:
        sums["link_wait_us"] += args[0].wait_us()
        counts["link_wait_us"] += 1

    def link_wait_after(args) -> None:
        # a fused reservation starts ``delay`` later than the call
        wait = args[0].wait_us() - args[1]
        sums["link_wait_us"] += wait if wait > 0.0 else 0.0
        counts["link_wait_us"] += 1

    def flash_wait(args) -> None:
        sums["flash_wait_us"] += args[0].queue_wait_us()
        counts["flash_wait_us"] += 1

    def queue_depth(_result, args) -> None:
        depths.append(len(args[0].queue))

    def admitted(result, _args) -> None:
        if not result:
            counts["admit_refused"] += 1

    def queue_at_select(args) -> None:
        sums["queue_at_select"] += len(args[1].queue)
        counts["queue_at_select"] += 1

    def victim(result, _args) -> None:
        if result >= 0:
            counts["victims"] += 1

    return [
        (Simulator, "run", "sim.engine", None, None),
        (SerialResource, "transfer", "sim.resource", link_wait, None),
        (SerialResource, "transfer_after", "sim.resource", link_wait_after,
         None),
        (StreamingLatencyRecorder, "flush", "sim.stats", None, None),
        (QuantileSketch, "add_many", "sim.stats", None, None),
        (ReservoirSampler, "add_many", "sim.stats", None, None),
        (driver.StreamingResult, "record", "workloads", None, None),
        (driver.ShardedResult, "record", "workloads", None, None),
        (driver, "replay_trace", "workloads", None, None),
        (driver, "replay_pattern", "workloads", None, None),
        (driver.ClosedLoopDriver, "run", "workloads", None, None),
        (fleet_runner, "replay_trace", "workloads", None, None),
        (SSD, "submit", "device", None, queue_depth),
        (SSD, "submit_batch", "device", None, queue_depth),
        (SSD, "admissible", "device", None, admitted),
        (SWTFScheduler, "on_submit", "device.scheduler", None, None),
        (SWTFScheduler, "select", "device.scheduler", queue_at_select, None),
        (FCFSScheduler, "select", "device.scheduler", queue_at_select, None),
        (PageMappedFTL, "write", "ftl", None, None),
        (PageMappedFTL, "read", "ftl", None, None),
        (PageMappedFTL, "trim", "ftl", None, None),
        (Cleaner, "maybe_clean", "ftl.cleaning", None, None),
        (Cleaner, "select_victim", "ftl.cleaning", None, victim),
        (prefill, "prefill_pagemap", "ftl.prefill", None, None),
        (fleet_runner, "prefill_pagemap", "ftl.prefill", None, None),
        (FlashElement, "read_page", "flash", flash_wait, None),
        (FlashElement, "program_page", "flash", flash_wait, None),
        (FlashElement, "erase_block", "flash", flash_wait, None),
        (FlashElement, "copy_page", "flash", flash_wait, None),
        (fleet_runner, "build_device", "fleet", None, None),
        (fleet_runner, "run_device_live", "fleet", None, None),
        (fleet_report.FleetReport, "build", "fleet", None, None),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers; restore every original on exit.

    The fleet's device stream is wrapped as well, so its ``next()`` calls
    count as the ``traces`` layer like the single-device workloads' do.
    """
    originals = []
    try:
        for owner, attr, layer, before, after in _patches(tracer):
            raw = vars(owner)[attr]
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(layer, name, raw.__func__,
                                              before, after))
            else:
                new = tracer.wrap(layer, name, raw, before, after)
            originals.append((owner, attr, raw))
            setattr(owner, attr, new)
        stream = vars(fleet_runner)["device_stream"]
        originals.append((fleet_runner, "device_stream", stream))
        fleet_runner.device_stream = (
            lambda *args: tracer.records(stream(*args)))
        yield tracer
    finally:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)
