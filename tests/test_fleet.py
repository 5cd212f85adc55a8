"""Fleet layer: router namespacing, merge exactness, and the determinism
contract.

The contracts under test:

* **N=1 differential** — a degenerate 1-device/1-tenant fleet is
  bit-identical to a plain ``replay_trace`` of the same pattern on the
  same device build (the fleet machinery adds *structure*, never
  *behaviour*);
* **merge exactness** — K-sharded :class:`QuantileSketch` merges equal
  the serial aggregation exactly (buckets, count, zero tally, min, max)
  for any shard count and any merge order; ``sum`` is exact in value
  terms only for a fixed order, which is why the fleet merges
  canonically (ascending device index);
* **process-parallel determinism** — ``run_fleet`` and ``run_sweep``
  produce byte-identical reports for any ``max_workers`` and any
  submission order;
* **namespacing** — tenants own disjoint slot-aligned LBA windows, the
  classifier recovers the owner from any request offset, and a tenant's
  relative trace is invariant under relocation.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.fleet import (FleetConfig, TenantSpec, op_grid, run_fleet,
                         run_sweep)
from repro.fleet.config import REGION_FRACTION
from repro.fleet.router import (device_layout, device_stream, make_classifier,
                                tenant_records, tenant_seed)
from repro.fleet.runner import build_device
from repro.fleet.sweep import SweepPoint, main as sweep_main
from repro.sim.rng import derive_seed
from repro.sim.stats import QuantileSketch, ReservoirSampler
from repro.workloads.driver import StreamingResult, replay_trace

KB4 = 4096


def two_tenants(count=300):
    return (
        TenantSpec(name="oltp", pattern="random", qos="gold", count=count),
        TenantSpec(name="batch", pattern="sequential", qos="bronze",
                   count=count),
    )


def latency_key(summary):
    return (summary.count, summary.mean_us, summary.p50_us,
            summary.p95_us, summary.p99_us, summary.max_us)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            FleetConfig(tenants=())
        with pytest.raises(ValueError, match="unknown pattern"):
            TenantSpec(name="t", pattern="compose")
        with pytest.raises(ValueError, match="unknown QoS"):
            TenantSpec(name="t", qos="platinum")
        with pytest.raises(ValueError, match="unique"):
            FleetConfig(tenants=(TenantSpec(name="a"), TenantSpec(name="a")))
        with pytest.raises(ValueError, match="placement"):
            FleetConfig(tenants=two_tenants(), placement="striped")
        with pytest.raises(ValueError, match="tenant-less"):
            FleetConfig(tenants=two_tenants(), n_devices=3,
                        placement="round_robin")
        with pytest.raises(ValueError, match="spare_fraction"):
            FleetConfig(tenants=two_tenants(), spare_fraction=1.5)

    @pytest.mark.parametrize("gap", [float("nan"), -1.0, float("inf")])
    def test_bad_interarrival_rejected_at_construction(self, gap):
        # refused here, not later inside a pool worker's PatternConfig
        with pytest.raises(ValueError, match="interarrival_max_us"):
            TenantSpec(name="t", interarrival_max_us=gap)

    @pytest.mark.parametrize("scale", [float("nan"), -1.0, float("inf")])
    def test_bad_time_scale_rejected_at_construction(self, scale):
        # refused by the config itself, before run_fleet builds and
        # prefills a device only for replay_trace to refuse it
        with pytest.raises(ValueError,
                           match="time_scale must be finite and >= 0"):
            FleetConfig(tenants=two_tenants(), time_scale=scale)

    def test_qos_maps_to_priority_fraction(self):
        gold, bronze = two_tenants()
        assert gold.priority_fraction == 1.0
        assert bronze.priority_fraction == 0.0

    def test_placement_all_vs_round_robin(self):
        config = FleetConfig(tenants=two_tenants(), n_devices=2)
        assert [j for j, _ in config.tenants_on(0)] == [0, 1]
        assert [j for j, _ in config.tenants_on(1)] == [0, 1]
        assert config.total_records == 4 * 300

        rr = replace(config, placement="round_robin")
        assert [j for j, _ in rr.tenants_on(0)] == [0]
        assert [j for j, _ in rr.tenants_on(1)] == [1]
        assert rr.total_records == 2 * 300

    def test_with_returns_modified_copy(self):
        config = FleetConfig(tenants=two_tenants())
        other = replace(config, n_devices=4, seed=7)
        assert (other.n_devices, other.seed) == (4, 7)
        assert (config.n_devices, config.seed) == (1, 2009)


class TestRouterNamespacing:
    def layout(self, tenants, capacity=32 << 20):
        config = FleetConfig(tenants=tenants)
        return config, device_layout(config, 0, capacity)

    def test_windows_disjoint_and_slot_aligned(self):
        tenants = (
            TenantSpec(name="a", request_bytes=4096, weight=1.0),
            TenantSpec(name="b", request_bytes=8192, weight=2.0),
            TenantSpec(name="c", request_bytes=4096, weight=0.5),
        )
        config, placements = self.layout(tenants)
        usable = int((32 << 20) * REGION_FRACTION)
        end = 0
        for placement in placements:
            rb = placement.spec.request_bytes
            assert placement.base_bytes % rb == 0
            assert placement.region_bytes % rb == 0
            assert placement.base_bytes >= end
            end = placement.base_bytes + placement.region_bytes
        assert end <= usable
        # weight-proportional within one slot of the exact share
        shares = [p.region_bytes for p in placements]
        assert shares[1] > shares[0] > shares[2]

    def test_starved_tenant_raises(self):
        tenants = (TenantSpec(name="whale", weight=1e6),
                   TenantSpec(name="krill", weight=1e-6))
        with pytest.raises(ValueError, match="not even one"):
            self.layout(tenants)

    def test_classifier_recovers_owner_from_offsets(self):
        config = FleetConfig(tenants=two_tenants(count=50))
        placements = device_layout(config, 0, 32 << 20)
        classify = make_classifier(placements)
        for shard, placement in enumerate(placements):
            for record in tenant_records(config, 0, placement):
                class R:  # the sink sees Request objects; offset is enough
                    offset = record.offset
                assert placement.base_bytes <= record.offset
                assert (record.offset + record.size
                        <= placement.base_bytes + placement.region_bytes)
                assert classify(R) == shard

    def test_device_stream_time_sorted(self):
        config = FleetConfig(tenants=two_tenants(count=100))
        placements = device_layout(config, 0, 32 << 20)
        times = [r.time_us for r in device_stream(config, 0, placements)]
        assert times == sorted(times)
        assert len(times) == 200

    def test_pair_seeds_are_namespaced(self):
        config = FleetConfig(tenants=two_tenants(), n_devices=2)
        seeds = {tenant_seed(config, i, j)
                 for i in range(2) for j in range(2)}
        assert len(seeds) == 4
        assert tenant_seed(config, 0, 1) == derive_seed(
            config.seed, "fleet.device.0.tenant.1")

    def test_relative_trace_invariant_under_relocation(self):
        """The same (device, tenant) pair emits the same *relative* trace
        wherever its window lands: base shifts offsets, nothing else."""
        config = FleetConfig(tenants=two_tenants(count=80))
        placements = device_layout(config, 0, 32 << 20)
        moved = device_layout(config, 0, 32 << 20)[1]
        original = list(tenant_records(config, 0, placements[1]))

        from repro.fleet.router import TenantPlacement
        relocated = TenantPlacement(
            tenant_index=moved.tenant_index, spec=moved.spec,
            base_bytes=0, region_bytes=moved.region_bytes)
        rebased = list(tenant_records(config, 0, relocated))
        assert len(original) == len(rebased)
        for a, b in zip(original, rebased):
            assert a.offset == b.offset + placements[1].base_bytes
            assert (a.time_us, a.op, a.size, a.priority) == \
                   (b.time_us, b.op, b.size, b.priority)


class TestMergeExactness:
    """K-sharded sketch/reservoir merges vs serial aggregation (the fleet
    report's correctness argument, property-tested over shard counts and
    merge orders)."""

    def shards_of(self, values, k):
        shards = [[] for _ in range(k)]
        for index, value in enumerate(values):
            shards[index % k].append(value)
        return shards

    def test_sketch_merge_exact_for_any_shard_count_and_order(self):
        rng = random.Random(20090807)
        values = [rng.expovariate(1 / 200.0) for _ in range(500)]
        values += [0.0, 0.0]  # exercise the zero tally
        serial = QuantileSketch()
        for value in values:
            serial.add(value)

        for k in (1, 2, 3, 7, 16):
            sketches = []
            for shard in self.shards_of(values, k):
                sketch = QuantileSketch()
                for value in shard:
                    sketch.add(value)
                sketches.append(sketch)
            for order in (list(range(k)), list(range(k))[::-1],
                          rng.sample(range(k), k)):
                merged = QuantileSketch()
                for index in order:
                    merged.merge(sketches[index])
                # the exactly-mergeable state: independent of k AND order
                assert merged.bucket_items() == serial.bucket_items()
                assert merged.count == serial.count
                assert merged.zero_count == serial.zero_count
                assert merged.min == serial.min
                assert merged.max == serial.max
                # quantiles read only that state -> exactly equal too
                for fraction in (0.0, 0.5, 0.95, 0.99, 1.0):
                    assert merged.quantile(fraction) == \
                        serial.quantile(fraction)
                # sum is float-associative: close always...
                assert math.isclose(merged.sum, serial.sum, rel_tol=1e-9)

    def test_sketch_sum_deterministic_in_canonical_order(self):
        """...and bit-equal between two merges in the SAME order — which
        is why the fleet always folds shards in ascending device index."""
        rng = random.Random(77)
        values = [rng.uniform(0.1, 1e6) for _ in range(300)]
        shards = self.shards_of(values, 5)

        def canonical_merge():
            merged = QuantileSketch()
            for shard in shards:
                sketch = QuantileSketch()
                for value in shard:
                    sketch.add(value)
                merged.merge(sketch)
            return merged

        assert canonical_merge().sum.hex() == canonical_merge().sum.hex()

    def test_reservoir_merge_exact_concatenation_when_underfull(self):
        values = [float(v) for v in range(100)]
        for k in (2, 4):
            merged = ReservoirSampler(capacity=128, seed=1)
            for shard in self.shards_of(values, k):
                part = ReservoirSampler(capacity=128, seed=2)
                for value in shard:
                    part.add(value)
                merged.merge(part)
            assert sorted(merged.samples) == values
            assert merged.seen == len(values)

    def test_reservoir_merge_deterministic_for_fixed_order(self):
        rng = random.Random(13)
        values = [rng.random() for _ in range(5000)]
        shards = self.shards_of(values, 4)

        def merge_once():
            merged = ReservoirSampler(capacity=64, seed=99)
            for shard in shards:
                part = ReservoirSampler(capacity=64, seed=7)
                for value in shard:
                    part.add(value)
                merged.merge(part)
            return merged

        a, b = merge_once(), merge_once()
        assert a.samples == b.samples
        assert a.seen == b.seen == len(values)


class TestDifferentialN1:
    """A 1-device/1-tenant fleet IS a plain streaming replay: same device
    build, same pattern, same sink seed -> bit-identical everything."""

    def test_fleet_reproduces_direct_replay(self):
        config = FleetConfig(
            tenants=(TenantSpec(name="solo", pattern="zipf", qos="silver",
                                count=400),))
        report = run_fleet(config)
        tenant = report.tenants[0]
        summary = report.devices[0]

        sim, device = build_device(config, 0)
        placements = device_layout(config, 0, device.capacity_bytes)
        assert placements[0].base_bytes == 0  # first namespace starts at 0
        sink = StreamingResult(
            seed=derive_seed(config.seed, "fleet.device.0.tenant.0.sink"))
        replay_trace(sim, device, tenant_records(config, 0, placements[0]),
                     sink=sink)
        device.ftl.check_consistency()

        assert summary.clock_us == sim.now
        assert summary.events_run == sim.events_run
        assert summary.requests == sink.count == 400
        direct_stats = device.ftl.stats.as_dict()
        assert summary.stats == {key: direct_stats.get(key, 0)
                                 for key in summary.stats}
        assert latency_key(tenant.latency()) == latency_key(sink.latency())
        assert (latency_key(report.aggregate_sketch.summary())
                == latency_key(sink.latency()))
        # silver QoS: both priority and best-effort classes flowed through
        assert latency_key(tenant.priority_sketch.summary()) == \
            latency_key(sink.latency(priority=True))

    def test_gold_tenant_rides_the_priority_path(self):
        config = FleetConfig(
            tenants=(TenantSpec(name="vip", qos="gold", count=100),))
        report = run_fleet(config)
        tenant = report.tenants[0]
        priority = tenant.priority_sketch.summary()
        assert priority.count == 100
        assert latency_key(priority) == latency_key(tenant.latency())


class TestParallelDeterminism:
    def fleet(self):
        return FleetConfig(tenants=two_tenants(count=200), n_devices=2)

    def test_report_identical_for_any_worker_count_and_order(self):
        config = self.fleet()
        serial = run_fleet(config)
        renders = {serial.render()}
        fingerprints = {serial.fingerprint()}
        for max_workers, order in ((1, [1, 0]), (2, [0, 1]), (2, [1, 0]),
                                   (4, [1, 0])):
            report = run_fleet(config, max_workers=max_workers,
                               submit_order=order)
            renders.add(report.render())
            fingerprints.add(report.fingerprint())
        assert len(renders) == 1
        assert len(fingerprints) == 1

    def test_fingerprint_sees_config_changes(self):
        config = self.fleet()
        base = run_fleet(config).fingerprint()
        assert run_fleet(replace(config, seed=1)).fingerprint() != base

    def test_submit_order_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            run_fleet(self.fleet(), submit_order=[0, 0])

    def test_keep_devices_serial_only(self):
        config = FleetConfig(tenants=two_tenants(count=50))
        with pytest.raises(ValueError, match="serial"):
            run_fleet(config, max_workers=2, keep_devices=True)
        report = run_fleet(config, keep_devices=True)
        sim, device = report.live[0]
        assert sim.now == report.devices[0].clock_us
        assert device.ftl.stats.host_pages_written == \
            report.devices[0].stats["host_pages_written"]


class TestSweep:
    def test_op_grid_labels_and_overrides(self):
        base = FleetConfig(tenants=two_tenants())
        points = op_grid(base, [0.07, 0.20])
        assert [p.label for p in points] == ["op=0.07", "op=0.20"]
        assert [p.config.spare_fraction for p in points] == [0.07, 0.20]

    def test_sweep_parallel_matches_serial(self):
        base = FleetConfig(tenants=two_tenants(count=150))
        points = [SweepPoint("a", base),
                  SweepPoint("b", replace(base, seed=3))]
        serial = run_sweep(points)
        parallel = run_sweep(points, max_workers=2, submit_order=[1, 0])
        assert [r.fingerprint() for _, r in serial] == \
               [r.fingerprint() for _, r in parallel]
        assert [r.render() for _, r in serial] == \
               [r.render() for _, r in parallel]
        # different seeds really did produce different fleets
        assert serial[0][1].fingerprint() != serial[1][1].fingerprint()

    def test_sweep_submit_order_validated(self):
        points = [SweepPoint("a", FleetConfig(tenants=two_tenants()))]
        with pytest.raises(ValueError, match="permutation"):
            run_sweep(points, submit_order=[2])

    def test_cli_smoke(self, capsys):
        assert sweep_main(["--devices", "1", "--count", "150"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out
        assert "oltp" in out and "batch" in out

    def test_cli_rejects_bad_tenant_spec(self, capsys):
        with pytest.raises(SystemExit):
            sweep_main(["--tenant", "broken"])
        assert "name=pattern:qos" in capsys.readouterr().err
