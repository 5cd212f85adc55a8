"""The benchmark's four workloads, built from a seed.

Each workload is one deterministic *repetition*: ``setup()`` builds and
ages a fresh device and constructs the record generator (the set-up the
benchmark times as ``setup_s``), ``run()`` drives it (the timed region of
``records_per_s``), and ``outcome()`` reads the simulated results, checks
them and digests them (outside every timed region).  Every repetition of
one seed produces the same digest; the benchmark repeats a workload until
its time budget is spent and checks that they all agree.

Why these four: each stresses different layers, and for every layer at
least one workload exercises it while another bypasses it (see
``layers.json`` next to this file).

* ``replay_steady`` -- open loop, a synthetic trace with the paper's
  Figure 3 arrivals, below the service rate, through every layer;
  cleaning is light.
* ``gc_churn`` -- closed loop, random overwrites of an aged, nearly full
  device; the FTL, the cleaner and the flash dominate, the host queue
  stays empty.
* ``swtf_burst`` -- open loop, bursts that build a host queue thousands
  deep, drained between bursts; SWTF dispatch dominates.
* ``fleet_mixed`` -- two devices with three tenants each on a two-worker
  process pool: the fleet router, merge, six streaming sinks and TRIM.
"""

from __future__ import annotations

import gc
import random
import time
import zlib
from typing import Callable, Dict, List

import numpy as np

from repro.device.interface import OpType
from repro.device.presets import s4slc_sim
from repro.fleet import FleetConfig, TenantSpec, run_fleet
from repro.fleet import runner as fleet_runner
from repro.flash.ops import TAG_CLEAN
from repro.ftl import prefill
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.sim.stats import QuantileSketch
from repro.traces.patterns import PatternConfig, compose, iter_random
from repro.traces.synthetic import SyntheticConfig, iter_synthetic
from repro.workloads import driver

__all__ = ["WORKLOADS", "Outcome", "Workload"]

REQUEST_BYTES = 4096


def _identity(records):
    return records


class Outcome:
    """What one repetition produced: simulated metrics, the digest, the
    counters the traced run reports, and any failed check."""

    def __init__(self, *, records: int, completed: int, errors: int,
                 elapsed_us: float, sketch: QuantileSketch,
                 priority: QuantileSketch, write_amp: float, events: int,
                 digest: int, counters: Dict[str, float],
                 problems: List[str]) -> None:
        self.records = records
        self.errors = errors
        self.events = events
        self.digest = digest
        self.counters = counters
        self.problems = problems
        self.samples = sketch.count
        self.metrics = {
            "sim_iops": completed / (elapsed_us / 1e6),
            "sim_p50_us": sketch.quantile(0.50),
            "sim_p99_us": sketch.quantile(0.99),
            "sim_p999_us": sketch.quantile(0.999),
            "sim_priority_p99_us": priority.quantile(0.99),
            "write_amp": write_amp,
        }


def _merge(sketches) -> QuantileSketch:
    merged = QuantileSketch()
    for sketch in sketches:
        merged.merge(sketch)
    return merged


def _sink_sketches(sink: driver.StreamingResult):
    """``(all, priority-only)`` latency sketches of a streaming sink, and
    its canonical state for the digest."""
    every, priority, canon = [], [], []
    for (op, is_priority), aggregate in sink.class_items():
        recorder = aggregate.latencies
        recorder.flush()
        sketch, reservoir = recorder.sketch, recorder.reservoir
        every.append(sketch)
        if is_priority:
            priority.append(sketch)
        samples = ",".join(v.hex() for v in reservoir.samples)
        canon.append(
            f"{op.name} {is_priority} bytes={aggregate.bytes} "
            f"n={sketch.count} z={sketch.zero_count} min={sketch.min.hex()} "
            f"max={sketch.max.hex()} sum={sketch.sum.hex()} "
            f"b={sketch.bucket_items()!r} seen={reservoir.seen} s=[{samples}]")
    return _merge(every), _merge(priority), canon


def _device_counters(sim: Simulator, device) -> Dict[str, float]:
    """Simulated per-layer counters read from the device's public state."""
    stats = device.ftl.stats
    elapsed = sim.now
    elements = device.elements
    return {
        "events": sim.events_run,
        "link_busy_us": device.link.busy_us,
        "elapsed_us": elapsed,
        "element_us": elapsed * len(elements),
        "flash_busy_us": sum(el.busy_us() for el in elements),
        "flash_clean_busy_us": sum(el.busy_us(TAG_CLEAN) for el in elements),
        "flash_ops": sum(sum(el.ops_by_tag.values()) for el in elements),
        "ftl_writes": stats.host_writes,
        "ftl_reads": stats.host_reads,
        "ftl_trims": stats.trims,
        "clean_pages_moved": stats.clean_pages_moved,
        "clean_erases": stats.clean_erases,
        "clean_time_us": stats.clean_time_us,
        "pages_per_block": device.ftl.geometry.pages_per_block,
    }


def _check_device(device, completed: int, errors: int, expected: int,
                  problems: List[str]) -> None:
    """Conservation checks every single-device repetition must pass."""
    device.ftl.check_consistency()
    stats = device.ftl.stats
    if completed + errors != expected:
        problems.append(f"{completed} completions + {errors} errors != "
                        f"{expected} requests submitted")
    if stats.host_reads + stats.host_writes != completed:
        problems.append(f"FTL saw {stats.host_reads + stats.host_writes} "
                        f"host requests, driver completed {completed}")


class Workload:
    """One workload at one seed; ``scale`` shrinks the record counts (the
    smoke test runs at 1 %)."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def _seed(self, purpose: str) -> int:
        return derive_seed(self.seed, f"e2e.{self.name}.{purpose}")

    def _count(self, full: int) -> int:
        return max(1, int(full * self.scale))

    def setup(self):
        raise NotImplementedError

    def run(self, state, records: Callable = _identity,
            serial: bool = False) -> None:
        raise NotImplementedError

    def parallel_speedup(self, serial_run_s: float):
        """``(speed-up, outcomes)``: how much faster ``run()`` is on a
        worker pool than ``serial_run_s``, and the outcomes of the runs
        that measured it.  A workload without a pool has neither."""
        return 0.0, []

    def outcome(self, state) -> Outcome:
        """Outcome of a replay into a :class:`StreamingResult` sink."""
        sim, device, sink = state["sim"], state["device"], state["sink"]
        sketch, priority, canon = _sink_sketches(sink)
        errors = sum(sink.errors.values())
        problems: List[str] = []
        _check_device(device, sink.count, errors, state["count"], problems)
        return _device_outcome(sim, device, state["count"], sink.count,
                               errors, sink.elapsed_us, sketch, priority,
                               canon, sorted(sink.errors.items()), problems)


class ReplaySteady(Workload):
    name = "replay_steady"

    def setup(self):
        sim = Simulator()
        device = s4slc_sim(sim, element_mb=32, scheduler="swtf",
                           max_inflight=32)
        prefill.prefill_pagemap(device.ftl, 0.60, overwrite_fraction=1.0,
                                rng=random.Random(self._seed("prefill")))
        count = self._count(60_000)
        records = iter_synthetic(SyntheticConfig(
            count=count,
            region_bytes=int(device.capacity_bytes * 0.6),
            request_bytes=REQUEST_BYTES,
            read_fraction=0.5,
            seq_probability=0.3,
            interarrival_max_us=100.0,
            priority_fraction=0.1,
            seed=self._seed("trace"),
        ))
        sink = driver.StreamingResult(seed=self._seed("sink"))
        return {"sim": sim, "device": device, "records": records,
                "sink": sink, "count": count}

    def run(self, state, records=_identity, serial=False):
        driver.replay_trace(state["sim"], state["device"],
                            records(state["records"]), sink=state["sink"])


class SwtfBurst(Workload):
    name = "swtf_burst"

    BURST = 3000

    def setup(self):
        sim = Simulator()
        device = s4slc_sim(sim, element_mb=16, scheduler="swtf",
                           max_inflight=32)
        prefill.prefill_pagemap(device.ftl, 0.70, overwrite_fraction=1.0,
                                rng=random.Random(self._seed("prefill")))
        region = int(device.capacity_bytes * 0.65)
        region -= region % REQUEST_BYTES
        burst = self._count(self.BURST)
        bursts = 12
        records = compose(*(
            iter_random(PatternConfig(
                count=burst, region_bytes=region,
                request_bytes=REQUEST_BYTES, read_fraction=2.0 / 3.0,
                interarrival_max_us=6.0, priority_fraction=0.1,
                seed=self._seed(f"burst.{index}")))
            for index in range(bursts)
        ), pause_us=1000.0)
        sink = driver.StreamingResult(seed=self._seed("sink"))
        return {"sim": sim, "device": device, "records": records,
                "sink": sink, "count": burst * bursts}

    def run(self, state, records=_identity, serial=False):
        driver.replay_pattern(state["sim"], state["device"],
                              records(state["records"]), sink=state["sink"])


def _device_outcome(sim, device, records, completed, errors, elapsed_us,
                    sketch, priority, canon, error_kinds,
                    problems) -> Outcome:
    stats = device.ftl.stats
    lines = [f"clock={sim.now.hex()}",
             f"stats={sorted(stats.as_dict().items())!r}",
             f"errors={error_kinds!r}", *canon]
    return Outcome(
        records=records, completed=completed, errors=errors,
        elapsed_us=elapsed_us, sketch=sketch, priority=priority,
        write_amp=stats.flash_pages_programmed / stats.host_pages_written,
        events=sim.events_run,
        digest=zlib.crc32("\n".join(lines).encode("utf-8")),
        counters=_device_counters(sim, device), problems=problems)


class GcChurn(Workload):
    name = "gc_churn"

    def setup(self):
        sim = Simulator()
        device = s4slc_sim(sim, element_mb=16, max_inflight=16)
        prefill.prefill_pagemap(device.ftl, 0.92, overwrite_fraction=0.4,
                                rng=random.Random(self._seed("prefill")))
        slots = int(device.capacity_bytes // REQUEST_BYTES * 0.9)
        rng = random.Random(self._seed("ops"))
        randrange, random_ = rng.randrange, rng.random
        write = OpType.WRITE

        def next_request(_index: int) -> tuple:
            # one in ten tagged priority: the foreground requests whose GC
            # stall tail sim_priority_p99_us reports (the cleaner is not
            # priority-aware here, so the tag changes no decision)
            return (write, randrange(slots) * REQUEST_BYTES, REQUEST_BYTES,
                    1 if random_() < 0.1 else 0)

        count = self._count(40_000)
        loop = driver.ClosedLoopDriver(sim, device, next_request, count,
                                       depth=16)
        return {"sim": sim, "device": device, "loop": loop, "count": count}

    def run(self, state, records=_identity, serial=False):
        state["loop"].run()

    def outcome(self, state) -> Outcome:
        sim, device = state["sim"], state["device"]
        result = state["loop"].result
        done = [c for c in result.completions if c.error is None]
        latencies = np.array([c.response_us for c in done], dtype=np.float64)
        priorities = np.array([c.priority > 0 for c in done], dtype=bool)
        sketch, priority = QuantileSketch(), QuantileSketch()
        sketch.add_many(latencies)
        priority.add_many(latencies[priorities])
        errors = result.count - len(done)
        problems: List[str] = []
        _check_device(device, len(done), errors, state["count"], problems)
        canon = [f"latencies={zlib.crc32(latencies.tobytes())}",
                 f"priority={zlib.crc32(priorities.tobytes())}"]
        return _device_outcome(sim, device, state["count"], len(done),
                               errors, result.elapsed_us, sketch, priority,
                               canon, sorted(result.errors.items()),
                               problems)


class FleetMixed(Workload):
    name = "fleet_mixed"

    TENANT_RECORDS = 10_000
    SNAKE_WINDOW = 4 << 20

    def config(self) -> FleetConfig:
        count = self._count(self.TENANT_RECORDS)
        gap = 450.0  # per tenant: the devices keep up, the queue stays short
        return FleetConfig(
            tenants=(
                TenantSpec(name="gold", pattern="zipf", qos="gold",
                           count=count, read_fraction=0.7,
                           interarrival_max_us=gap,
                           pattern_args={"theta": 1.1}),
                TenantSpec(name="silver", pattern="hot_cold", qos="silver",
                           count=count, read_fraction=0.4,
                           interarrival_max_us=gap),
                TenantSpec(name="bronze", pattern="snake", qos="bronze",
                           count=count, interarrival_max_us=gap, weight=2.0,
                           pattern_args={"window_bytes": self.SNAKE_WINDOW}),
            ),
            n_devices=2,
            element_mb=8,
            prefill_overwrite=1.0,
            device_args={"scheduler": "swtf", "max_inflight": 16,
                         "trim_enabled": True},
            seed=self._seed("fleet"),
        )

    def setup(self):
        """Builds and ages every device, as the workers do inside
        ``run()``; ``setup_s`` for this workload is the sum of those
        builds."""
        config = self.config()
        for index in range(config.n_devices):
            fleet_runner.build_device(config, index)
        return {"config": config, "report": None}

    def run(self, state, records=_identity, serial=False):
        config = state["config"]
        if serial:
            state["report"] = run_fleet(config, max_workers=1,
                                        keep_devices=True)
        else:
            state["report"] = run_fleet(config, max_workers=2)

    def parallel_speedup(self, serial_run_s):
        state = self.setup()
        gc.collect()
        start = time.perf_counter()
        self.run(state)
        return (serial_run_s / (time.perf_counter() - start),
                [self.outcome(state)])

    def _frees(self, config: FleetConfig) -> int:
        count = config.tenants[2].count
        return max(0, count - self.SNAKE_WINDOW // REQUEST_BYTES)

    def outcome(self, state) -> Outcome:
        config, report = state["config"], state["report"]
        per_device = sum(spec.count for spec in config.tenants)
        frees = self._frees(config)
        problems: List[str] = []
        errors = 0
        for device in report.devices:
            errors += sum(device.errors.values())
            stats = device.stats
            if device.requests + sum(device.errors.values()) != per_device:
                problems.append(
                    f"device {device.device_index}: {device.requests} "
                    f"completions, expected {per_device}")
            if stats["trims"] != frees:
                problems.append(
                    f"device {device.device_index}: {stats['trims']} trims, "
                    f"expected {frees}")
        if report.live is not None:
            for sim, device in report.live.values():
                device.ftl.check_consistency()
        gold = report.tenants[0]
        records = (per_device + frees) * config.n_devices
        return Outcome(
            records=records,
            completed=report.total_requests,
            errors=errors,
            elapsed_us=max(device.elapsed_us for device in report.devices),
            sketch=report.aggregate_sketch,
            priority=gold.priority_sketch,
            write_amp=report.write_amplification,
            events=report.total_events,
            digest=report.fingerprint(),
            counters=self._counters(report),
            problems=problems,
        )

    def _counters(self, report) -> Dict[str, float]:
        if report.live is None:
            return {}
        totals: Dict[str, float] = {}
        for sim, device in report.live.values():
            for key, value in _device_counters(sim, device).items():
                totals[key] = totals.get(key, 0) + value
        totals["pages_per_block"] = (
            report.live[0][1].ftl.geometry.pages_per_block)
        return totals


#: name -> workload class
WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ReplaySteady, GcChurn, SwtfBurst, FleetMixed)
}
