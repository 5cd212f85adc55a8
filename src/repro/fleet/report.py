"""Fleet-level report: merge per-device shards into tenant/aggregate tables.

The mergeable aggregates are the streaming primitives of
:mod:`repro.sim.stats`: per-(op, priority) :class:`QuantileSketch` buckets
add exactly, and :class:`ReservoirSampler` merges into a valid uniform-ish
sample.  Both merges happen in **canonical order** — ascending device
index, then the sink's canonical class order
(:meth:`StreamingResult.class_items`) — never completion order, so the
merged report is a pure function of the :class:`FleetConfig` (see the
merge-order contract on :meth:`QuantileSketch.merge`).

:meth:`FleetReport.fingerprint` hashes the canonical state — sketch
buckets, exact extremes and sums as ``float.hex()``, reservoir samples,
per-device FTL stats — so "the same fleet" means *bit-identical results*,
not just similar tables.  ``render()`` is deterministic text built from
the same state; the process-parallel determinism tests compare both.

Write-amplification attribution: cleaning is device-global, so a tenant
has no intrinsic WA.  The report surfaces the per-device measured WA
(flash pages programmed / host pages written) plus each tenant's
*attributed* WA — the write-byte-weighted mean of the device WAs it ran
on — which answers "what cleaning economics did this tenant's mix buy"
without pretending per-page attribution the FTL does not track
(Dayan et al.'s WA-management framing, PAPERS.md).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fleet.config import FleetConfig, TenantSpec
from repro.sim.rng import derive_seed
from repro.sim.stats import LatencySummary, QuantileSketch, ReservoirSampler
from repro.units import mb_per_s

__all__ = ["DeviceSummary", "TenantAggregate", "FleetReport"]

#: FTLStats keys the device table and fingerprint read (a fixed tuple so
#: the fingerprint cannot silently change shape when FTLStats grows)
_STAT_KEYS = (
    "host_reads", "host_writes", "host_pages_read", "host_pages_written",
    "flash_pages_programmed", "rmw_pages_read", "clean_pages_moved",
    "clean_erases", "clean_time_us", "wear_migrations", "wear_pages_moved",
    "trims", "trimmed_pages", "write_stalls", "blocks_retired",
)


@dataclass
class DeviceSummary:
    """One device's roll-up inside the fleet report."""

    device_index: int
    requests: int
    clock_us: float
    events_run: int
    elapsed_us: float
    stats: Dict[str, float]
    errors: Dict[str, int]

    @property
    def write_amplification(self) -> float:
        """Flash pages programmed per host page written (0 when idle)."""
        host = self.stats.get("host_pages_written", 0)
        return self.stats.get("flash_pages_programmed", 0) / host if host else 0.0


@dataclass
class TenantAggregate:
    """One tenant's cross-device merge: the per-tenant report row."""

    tenant_index: int
    spec: TenantSpec
    devices: int
    requests: int
    bytes_read: int
    bytes_written: int
    throughput_mb_s: float
    #: write-byte-weighted mean of hosting devices' WA (see module doc)
    wa_attributed: float
    sketch: QuantileSketch
    priority_sketch: QuantileSketch
    reservoir: ReservoirSampler

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def qos(self) -> str:
        return self.spec.qos

    def latency(self) -> LatencySummary:
        return self.sketch.summary()


def _sketch_canon(sketch: QuantileSketch) -> str:
    """The sketch's merge-invariant state as one canonical line (floats
    as ``hex()`` so equality means bit equality)."""
    return (f"n={sketch.count} z={sketch.zero_count} "
            f"min={sketch.min.hex()} max={sketch.max.hex()} "
            f"sum={sketch.sum.hex()} "
            f"b={sketch.bucket_items()!r}")


def _reservoir_canon(reservoir: ReservoirSampler) -> str:
    samples = ",".join(value.hex() for value in reservoir.samples)
    return f"seen={reservoir.seen} k={reservoir.capacity} s=[{samples}]"


@dataclass
class FleetReport:
    """The merged outcome of one fleet run (see module docstring)."""

    config: FleetConfig
    devices: List[DeviceSummary]
    tenants: List[TenantAggregate]
    #: all tenants' latencies merged (canonical tenant order)
    aggregate_sketch: QuantileSketch
    #: serial-mode debugging hook: {device_index: (sim, device)} when the
    #: runner was asked to keep the live simulations (never pickled)
    live: Optional[dict] = field(default=None, repr=False, compare=False)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, config: FleetConfig, runs: Dict[int, "DeviceRun"]) -> "FleetReport":
        """Merge per-device runs (keyed by device index) canonically."""
        expected = set(range(config.n_devices))
        if set(runs) != expected:
            raise ValueError(
                f"need one run per device {sorted(expected)}, "
                f"got {sorted(runs)}")
        ordered = [runs[i] for i in range(config.n_devices)]

        devices = [
            DeviceSummary(
                device_index=run.device_index,
                requests=run.requests,
                clock_us=run.clock_us,
                events_run=run.events_run,
                elapsed_us=run.elapsed_us,
                stats={key: run.ftl_stats.get(key, 0) for key in _STAT_KEYS},
                errors=dict(run.errors),
            )
            for run in ordered
        ]

        tenants: List[TenantAggregate] = []
        for tenant_index, spec in enumerate(config.tenants):
            sketch = QuantileSketch()
            priority_sketch = QuantileSketch()
            reservoir = ReservoirSampler(
                seed=derive_seed(config.seed,
                                 f"fleet.merge.tenant.{tenant_index}"))
            requests = 0
            bytes_read = 0
            bytes_written = 0
            throughput = 0.0
            wa_weighted = 0.0
            hosting = 0
            for run, summary in zip(ordered, devices):
                shard = run.tenants.get(tenant_index)
                if shard is None:
                    continue
                hosting += 1
                shard_bytes = 0
                for (op, priority), aggregate in shard.class_items():
                    aggregate.latencies.flush()
                    sketch.merge(aggregate.latencies.sketch)
                    if priority:
                        priority_sketch.merge(aggregate.latencies.sketch)
                    reservoir.merge(aggregate.latencies.reservoir)
                    requests += aggregate.count
                    if op.name == "READ":
                        shard_bytes += aggregate.bytes
                        bytes_read += aggregate.bytes
                    elif op.name == "WRITE":
                        shard_bytes += aggregate.bytes
                        bytes_written += aggregate.bytes
                        wa_weighted += (aggregate.bytes
                                        * summary.write_amplification)
                    # FREE/FLUSH move no data; they count as requests only
                if run.elapsed_us > 0:
                    throughput += mb_per_s(shard_bytes, run.elapsed_us)
            tenants.append(TenantAggregate(
                tenant_index=tenant_index,
                spec=spec,
                devices=hosting,
                requests=requests,
                bytes_read=bytes_read,
                bytes_written=bytes_written,
                throughput_mb_s=throughput,
                wa_attributed=(wa_weighted / bytes_written
                               if bytes_written else 0.0),
                sketch=sketch,
                priority_sketch=priority_sketch,
                reservoir=reservoir,
            ))

        aggregate = QuantileSketch()
        for tenant in tenants:
            aggregate.merge(tenant.sketch)
        return cls(config=config, devices=devices, tenants=tenants,
                   aggregate_sketch=aggregate)

    # -- fleet-level roll-ups --------------------------------------------

    @property
    def total_requests(self) -> int:
        return sum(device.requests for device in self.devices)

    @property
    def total_events(self) -> int:
        return sum(device.events_run for device in self.devices)

    @property
    def write_amplification(self) -> float:
        """Fleet WA: total flash pages programmed / total host pages."""
        host = sum(d.stats["host_pages_written"] for d in self.devices)
        flash = sum(d.stats["flash_pages_programmed"] for d in self.devices)
        return flash / host if host else 0.0

    def latency(self) -> LatencySummary:
        return self.aggregate_sketch.summary()

    # -- determinism surface ---------------------------------------------

    def fingerprint(self) -> int:
        """CRC32 over the canonical merged state.  Equal fingerprints mean
        bit-identical tenant sketches (buckets, extremes, sums), reservoir
        samples, and per-device clocks/events/FTL stats — the contract the
        serial-vs-parallel and shard-order tests pin."""
        lines: List[str] = [
            f"fleet devices={self.config.n_devices} "
            f"placement={self.config.placement} seed={self.config.seed}"
        ]
        for tenant in self.tenants:
            lines.append(
                f"tenant {tenant.tenant_index} {tenant.name} {tenant.qos} "
                f"dev={tenant.devices} req={tenant.requests} "
                f"rb={tenant.bytes_read} wb={tenant.bytes_written} "
                f"| {_sketch_canon(tenant.sketch)} "
                f"| pri {_sketch_canon(tenant.priority_sketch)} "
                f"| {_reservoir_canon(tenant.reservoir)}"
            )
        for device in self.devices:
            stats = " ".join(f"{key}={device.stats[key]!r}"
                             for key in _STAT_KEYS)
            errors = ",".join(f"{kind}:{n}" for kind, n in
                              sorted(device.errors.items()))
            lines.append(
                f"device {device.device_index} req={device.requests} "
                f"clock={device.clock_us.hex()} events={device.events_run} "
                f"elapsed={device.elapsed_us.hex()} {stats} e=[{errors}]"
            )
        lines.append(f"aggregate {_sketch_canon(self.aggregate_sketch)}")
        return zlib.crc32("\n".join(lines).encode("utf-8"))

    # -- presentation -----------------------------------------------------

    def render(self) -> str:
        """Deterministic text tables (byte-identical for equal state)."""
        out: List[str] = []
        config = self.config
        out.append(
            f"fleet: {config.n_devices} x {config.preset} "
            f"({config.element_mb} MB/element, placement={config.placement}, "
            f"seed={config.seed})"
        )
        op = (config.spare_fraction if config.spare_fraction is not None
              else "preset")
        out.append(f"over-provisioning: {op}   tenants: {len(config.tenants)}"
                   f"   requests: {self.total_requests}")
        out.append("")
        header = (f"{'tenant':14s} {'qos':7s} {'req':>7s} {'MB/s':>8s} "
                  f"{'mean_us':>10s} {'p50_us':>10s} {'p95_us':>10s} "
                  f"{'p99_us':>10s} {'max_us':>10s} {'WA(attr)':>9s}")
        out.append(header)
        out.append("-" * len(header))
        for tenant in self.tenants:
            summary = tenant.latency()
            out.append(
                f"{tenant.name:14s} {tenant.qos:7s} {tenant.requests:7d} "
                f"{tenant.throughput_mb_s:8.3f} {summary.mean_us:10.1f} "
                f"{summary.p50_us:10.1f} {summary.p95_us:10.1f} "
                f"{summary.p99_us:10.1f} {summary.max_us:10.1f} "
                f"{tenant.wa_attributed:9.3f}"
            )
        aggregate = self.latency()
        out.append(
            f"{'(aggregate)':14s} {'':7s} {aggregate.count:7d} "
            f"{sum(t.throughput_mb_s for t in self.tenants):8.3f} "
            f"{aggregate.mean_us:10.1f} {aggregate.p50_us:10.1f} "
            f"{aggregate.p95_us:10.1f} {aggregate.p99_us:10.1f} "
            f"{aggregate.max_us:10.1f} {self.write_amplification:9.3f}"
        )
        out.append("")
        header = (f"{'device':>6s} {'req':>7s} {'clock_us':>14s} "
                  f"{'events':>9s} {'host_wr':>8s} {'flash_wr':>9s} "
                  f"{'cleaned':>8s} {'erases':>7s} {'WA':>7s}")
        out.append(header)
        out.append("-" * len(header))
        for device in self.devices:
            stats = device.stats
            out.append(
                f"{device.device_index:6d} {device.requests:7d} "
                f"{device.clock_us:14.1f} {device.events_run:9d} "
                f"{stats['host_pages_written']:8d} "
                f"{stats['flash_pages_programmed']:9d} "
                f"{stats['clean_pages_moved']:8d} "
                f"{stats['clean_erases']:7d} "
                f"{device.write_amplification:7.3f}"
            )
        out.append("")
        out.append(f"fingerprint: {self.fingerprint():#010x}")
        return "\n".join(out)
