"""Deterministic sharded trace router: tenant → device → LBA namespace.

Three jobs, all pure functions of the :class:`~repro.fleet.config.FleetConfig`:

* **Placement** — which tenants land on which device
  (:meth:`FleetConfig.tenants_on`).
* **Namespacing** — each resident tenant owns a disjoint, slot-aligned
  window of the device's usable logical space, carved proportionally to
  tenant weights in tenant order (:func:`device_layout`).  The pattern
  generators never learn about the window beyond
  :attr:`PatternConfig.lba_base_bytes`, so a tenant's relative trace is
  invariant under relocation.
* **Merging** — the per-tenant streams of one device interleave into a
  single time-sorted stream via a stable k-way merge
  (:func:`device_stream`).  ``heapq.merge`` breaks timestamp ties by
  input position, i.e. by tenant index — deterministic, and independent
  of anything outside the config.

Seeding: every (device, tenant) pair draws from streams derived as
``stream(config.seed, "fleet.device.<i>.tenant.<j>")`` (the
:mod:`repro.flash.faults` idiom), so adding a device or tenant never
perturbs the traffic of existing ones, and the same pair replays the
identical trace in any process.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import merge as _heap_merge
from typing import Callable, Iterator, List, Tuple

from repro.fleet.config import REGION_FRACTION, FleetConfig, TenantSpec
from repro.sim.rng import derive_seed
from repro.traces.patterns import (PatternConfig, iter_hot_cold, iter_random,
                                   iter_sequential, iter_snake, iter_strided,
                                   iter_zipf)
from repro.traces.record import TraceRecord

__all__ = ["TenantPlacement", "tenant_seed", "device_layout",
           "tenant_records", "device_stream", "make_classifier"]

#: pattern name -> builder(config, **pattern_args)
_PATTERNS = {
    "sequential": iter_sequential,
    "random": iter_random,
    "strided": iter_strided,
    "snake": iter_snake,
    "zipf": iter_zipf,
    "hot_cold": iter_hot_cold,
}


@dataclass(frozen=True)
class TenantPlacement:
    """One tenant's residency on one device: its namespace and seeds."""

    tenant_index: int
    spec: TenantSpec
    base_bytes: int
    region_bytes: int


def tenant_seed(config: FleetConfig, device_index: int,
                tenant_index: int) -> int:
    """The (device, tenant) pair's root seed — every RNG stream of that
    pair (addresses, arrivals, mix, priority, its result reservoirs)
    derives from it, namespaced exactly like ``flash/faults.py`` does."""
    return derive_seed(config.seed,
                       f"fleet.device.{device_index}.tenant.{tenant_index}")


def device_layout(config: FleetConfig, device_index: int,
                  capacity_bytes: int) -> List[TenantPlacement]:
    """Carve one device's usable region into disjoint tenant namespaces.

    Proportional to tenant weights, in tenant order; every base and every
    region is aligned to the owning tenant's request size.  Pure function
    of (config, device_index, capacity), so workers and the parent always
    agree on the layout.
    """
    residents = config.tenants_on(device_index)
    usable = int(capacity_bytes * REGION_FRACTION)
    total_weight = sum(spec.weight for _, spec in residents)
    placements: List[TenantPlacement] = []
    base = 0
    for tenant_index, spec in residents:
        rb = spec.request_bytes
        base = -(-base // rb) * rb  # align up to this tenant's slot size
        share = int(usable * (spec.weight / total_weight))
        region = (share // rb) * rb
        if region < rb:
            raise ValueError(
                f"device {device_index}: tenant {spec.name!r} gets "
                f"{share} bytes — not even one {rb}-byte slot; grow "
                f"element_mb or the tenant's weight"
            )
        placements.append(TenantPlacement(tenant_index, spec, base, region))
        base += region
    if base > usable:
        raise ValueError(
            f"device {device_index}: alignment pushed the layout to {base} "
            f"bytes, past the usable {usable}"
        )
    return placements


def tenant_records(config: FleetConfig, device_index: int,
                   placement: TenantPlacement) -> Iterator[TraceRecord]:
    """The lazy record stream of one tenant on one device: the tenant's
    pattern, seeded for the (device, tenant) pair, emitted inside the
    tenant's namespace."""
    spec = placement.spec
    pattern_config = PatternConfig(
        count=spec.count,
        region_bytes=placement.region_bytes,
        request_bytes=spec.request_bytes,
        read_fraction=spec.read_fraction,
        interarrival_max_us=spec.interarrival_max_us,
        arrival_process=spec.arrival_process,
        priority_fraction=spec.priority_fraction,
        seed=tenant_seed(config, device_index, placement.tenant_index),
        lba_base_bytes=placement.base_bytes,
    )
    return _PATTERNS[spec.pattern](pattern_config, **spec.pattern_args)


def device_stream(config: FleetConfig, device_index: int,
                  placements: List[TenantPlacement]) -> Iterator[TraceRecord]:
    """All resident tenants' streams, merged time-sorted (stable: ties go
    to the lower tenant index).  Lazy end to end — the merge holds one
    record per tenant, and each pattern is O(1) memory, so a fleet
    device's trace side stays O(tenants)."""
    streams = [tenant_records(config, device_index, placement)
               for placement in placements]
    if len(streams) == 1:
        return streams[0]
    return _heap_merge(*streams, key=lambda record: record.time_us)


def make_classifier(placements: List[TenantPlacement]) -> Callable[..., int]:
    """``classify(request) -> local shard index`` for
    :class:`~repro.workloads.driver.ShardedResult`: one bisect over the
    namespace bases recovers the owning tenant from the request offset."""
    bases: Tuple[int, ...] = tuple(p.base_bytes for p in placements)
    if len(bases) == 1:
        return lambda request: 0

    def classify(request) -> int:
        return bisect_right(bases, request.offset) - 1

    return classify
