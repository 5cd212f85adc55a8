"""Shared-nothing fleet execution: one process-parallel run per device.

Each device simulation is hermetic: :func:`run_device` builds its own
:class:`~repro.sim.engine.Simulator`, device, prefill, tenant streams, and
per-tenant :class:`~repro.workloads.driver.StreamingResult` sinks purely
from the (picklable) :class:`~repro.fleet.config.FleetConfig` — nothing
crosses the process boundary except the config in and the
:class:`DeviceRun` out.  That is the whole determinism argument for
parallelism: a worker pool changes *where* each device simulates, never
*what*, so :func:`run_fleet` produces bit-identical reports for any
``max_workers`` and any submission order (the merge happens in canonical
ascending device index, not completion order).

The per-device replay itself is the existing streaming pipeline
unchanged: the router's merged stream feeds
:func:`~repro.workloads.driver.replay_trace` through a
:class:`~repro.workloads.driver.ShardedResult` that routes completions
back to tenants by namespace — a degenerate 1-device/1-tenant fleet is
therefore bit-identical to a plain ``replay_trace`` of the same pattern
(pinned by ``tests/test_fleet.py``).
"""

from __future__ import annotations

import random
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.device.presets import s1slc, s2slc, s3slc, s4slc_sim, s5mlc
from repro.fleet.config import PREFILL_FRACTION, FleetConfig
from repro.fleet.router import device_layout, device_stream, make_classifier
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap, prefill_stripe_ftl
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.workloads.driver import (ShardedResult, StreamingResult,
                                    replay_trace)

__all__ = ["DeviceRun", "build_device", "fan_out", "run_device", "run_fleet"]

#: SSD preset builders a fleet may use (HDD/MEMS lack the FTL the
#: report's WA dimension reads)
_PRESETS = {
    "s1slc": s1slc,
    "s2slc": s2slc,
    "s3slc": s3slc,
    "s4slc_sim": s4slc_sim,
    "s5mlc": s5mlc,
}


@dataclass
class DeviceRun:
    """What one device simulation sends back to the merger (picklable)."""

    device_index: int
    requests: int
    clock_us: float
    events_run: int
    elapsed_us: float
    ftl_stats: Dict[str, float]
    errors: Dict[str, int]
    #: tenant_index -> that tenant's streamed result on this device
    tenants: Dict[int, StreamingResult] = field(default_factory=dict)


def build_device(config: FleetConfig, device_index: int):
    """Build and age one fleet device; returns ``(sim, device)``.

    The prefill RNG is namespaced per device
    (``fleet.device.<i>.prefill``) so aged state differs across devices
    the way independent devices' histories do, yet replays identically
    for a given config.
    """
    if config.preset not in _PRESETS:
        raise ValueError(
            f"unknown preset {config.preset!r}; fleet devices must be one "
            f"of {tuple(_PRESETS)}"
        )
    overrides = dict(config.device_args)
    if config.spare_fraction is not None:
        overrides["spare_fraction"] = config.spare_fraction
    sim = Simulator()
    device = _PRESETS[config.preset](sim, element_mb=config.element_mb,
                                     **overrides)
    rng = random.Random(
        derive_seed(config.seed, f"fleet.device.{device_index}.prefill"))
    if isinstance(device.ftl, PageMappedFTL):
        prefill_pagemap(device.ftl, PREFILL_FRACTION,
                        overwrite_fraction=config.prefill_overwrite, rng=rng)
    else:
        prefill_stripe_ftl(device.ftl, PREFILL_FRACTION)
    return sim, device


def _sink_for(config: FleetConfig, device_index: int,
              tenant_index: int) -> StreamingResult:
    """A tenant's per-device result sink, reservoir-seeded for the pair."""
    return StreamingResult(
        seed=derive_seed(
            config.seed,
            f"fleet.device.{device_index}.tenant.{tenant_index}.sink"))


def run_device_live(config: FleetConfig, device_index: int):
    """:func:`run_device`, but also returns the live ``(sim, device)`` —
    for in-process callers (the bench fingerprint) that want to inspect
    simulator state the picklable :class:`DeviceRun` summarizes."""
    sim, device = build_device(config, device_index)
    placements = device_layout(config, device_index, device.capacity_bytes)
    sinks = [_sink_for(config, device_index, p.tenant_index)
             for p in placements]
    sharded = ShardedResult(sinks, make_classifier(placements))
    replay_trace(sim, device, device_stream(config, device_index, placements),
                 time_scale=config.time_scale, sink=sharded)
    device.ftl.check_consistency()
    run = DeviceRun(
        device_index=device_index,
        requests=sharded.count,
        clock_us=sim.now,
        events_run=sim.events_run,
        elapsed_us=sharded.elapsed_us,
        ftl_stats=device.ftl.stats.as_dict(),
        errors=sharded.errors,
        tenants={p.tenant_index: sink
                 for p, sink in zip(placements, sinks)},
    )
    return run, sim, device


def run_device(config: FleetConfig, device_index: int) -> DeviceRun:
    """Simulate one fleet device end to end (the worker-pool target)."""
    run, _, _ = run_device_live(config, device_index)
    return run


def fan_out(worker: Callable[..., Any], tasks: Sequence[Tuple],
            max_workers: Optional[int] = None,
            submit_order: Optional[Sequence[int]] = None) -> List[Any]:
    """Run ``worker(*task)`` for every task; results come back in task
    order, whatever order they finish in.

    ``max_workers=None``/``0``/``1`` runs serially in-process;
    ``max_workers >= 2`` fans the tasks out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` (``worker`` must then
    be a module-level function of picklable arguments).  ``submit_order``
    (any permutation of task indices) controls *submission* order only —
    the determinism tests shuffle it to prove results cannot see it.
    """
    indices = list(range(len(tasks)))
    order = list(submit_order) if submit_order is not None else indices
    if sorted(order) != indices:
        raise ValueError(
            f"submit_order must be a permutation of range({len(tasks)}), "
            f"got {order}")
    results: List[Any] = [None] * len(tasks)
    if max_workers is None or max_workers <= 1:
        for index in order:
            results[index] = worker(*tasks[index])
        return results
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {pool.submit(worker, *tasks[index]): index
                   for index in order}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                results[futures[future]] = future.result()
    return results


def run_fleet(
    config: FleetConfig,
    max_workers: Optional[int] = None,
    submit_order: Optional[Sequence[int]] = None,
    keep_devices: bool = False,
):
    """Run every device of a fleet and merge the report.

    ``max_workers`` and ``submit_order`` (a permutation of device indices)
    work as in :func:`fan_out`.

    Returns a :class:`~repro.fleet.report.FleetReport`.  With
    ``keep_devices`` (serial mode only) the report additionally carries
    ``report.live`` — ``{device_index: (sim, device)}`` of the still-live
    simulations, for fingerprinting.
    """
    from repro.fleet.report import FleetReport

    if keep_devices and max_workers is not None and max_workers > 1:
        raise ValueError("keep_devices needs the serial (in-process) path")
    tasks = [(config, device_index)
             for device_index in range(config.n_devices)]
    if not keep_devices:
        results = fan_out(run_device, tasks, max_workers, submit_order)
        return FleetReport.build(config, dict(enumerate(results)))
    results = fan_out(run_device_live, tasks, None, submit_order)
    report = FleetReport.build(
        config, {index: run for index, (run, _, _) in enumerate(results)})
    report.live = {index: (sim, device)
                   for index, (_, sim, device) in enumerate(results)}
    return report
