"""Multi-tenant fleet simulation: N shared-nothing devices × M tenants.

One run of :mod:`repro.workloads.driver` is one device under one workload.
The fleet layer generalizes that to the ROADMAP's "millions of users"
shape: a :class:`~repro.fleet.config.FleetConfig` describes N identical
devices and M tenants (each a seeded access pattern from
:mod:`repro.traces.patterns` plus a QoS class mapped onto the priority
machinery), a deterministic router gives every tenant a disjoint LBA
namespace inside each device it lands on, and a sweep runner fans device
simulations — and whole parameter grids — out across cores with
:class:`concurrent.futures.ProcessPoolExecutor`, merging the streamed
per-device sketches and reservoirs into per-tenant and aggregate tables.

Determinism is the headline contract (see ``docs/architecture.md`` §11):
every RNG stream derives from namespaced seeds
(``stream(seed, "fleet.device.<i>.tenant.<j>")``), devices share nothing,
and the report merges shards in canonical ascending device order — so the
fleet fingerprint is bit-identical regardless of worker count, scheduling
order, or serial-vs-parallel execution.
"""

from repro.fleet.config import QOS_CLASSES, FleetConfig, TenantSpec
from repro.fleet.report import FleetReport, TenantAggregate
from repro.fleet.router import (TenantPlacement, device_layout, device_stream,
                                make_classifier, tenant_records, tenant_seed)
from repro.fleet.runner import DeviceRun, run_device, run_fleet

__all__ = [
    "QOS_CLASSES",
    "FleetConfig",
    "TenantSpec",
    "FleetReport",
    "TenantAggregate",
    "TenantPlacement",
    "device_layout",
    "device_stream",
    "make_classifier",
    "tenant_records",
    "tenant_seed",
    "DeviceRun",
    "run_device",
    "run_fleet",
]
