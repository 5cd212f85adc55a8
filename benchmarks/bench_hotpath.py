"""Hot-path microbenchmarks for the simulation core.

Three deterministic closed-loop scenarios drive a page-mapped FTL directly
(no host link / scheduler in the way) so the measured cost is the command
execution fast path itself — op issue into the element's tuple FIFO, event
loop, completion joining, allocation, and cleaning (run copy-back: one
element call per frontier run of a copy batch):

* ``pure_write``      — random 4 KB overwrite churn (programs + steady GC)
* ``mixed_rw``        — 50/50 random 4 KB reads and writes
* ``cleaning_heavy``  — aged, nearly-full device where cleaning dominates

plus two full-device scenarios through the host-queue dispatch path:

* ``swtf_saturated``  — open-loop replay far past saturation against a
  deep-NCQ SWTF SSD, so the host queue grows to thousands of requests and
  every dispatch exercises the scheduler.  The seed's O(queue × elements)
  ``select()`` took ~34 s wall on this scenario (recorded in
  ``BENCH_CORE.json`` meta); the PR 2 incremental bucket scheduler runs it
  in well under a second with a bit-identical fingerprint.
* ``replay_10m``      — the bounded-memory replay-at-scale pipeline
  (PR 3): a generator-fed open-loop trace streamed through a busy (but not
  overloaded) SWTF SSD into a :class:`StreamingResult` sink, so trace,
  heap, host queue, and result are all O(1) in trace length.  The gate
  runs it at 100k records; ``--replay-count 10000000`` runs the headline
  10M-record replay (its one-off measurement lives in ``BENCH_CORE.json``
  meta, like the pre-refactor SWTF wall time).

plus one robustness scenario through the same host path:

* ``fault_soak``      — a seeded :class:`FaultModel` device (program,
  erase, and transient-read faults enabled) soaked with write-heavy
  churn until grown bad blocks eat into the spare pool.  The
  fingerprint pins the exact injected-fault counts, block retirements,
  rescued/lost pages, host retries, and error completions, so the whole
  failure-handling path — burn, rescue, retire, degrade — is gated
  bit-for-bit alongside the performance scenarios.  Faults stay off in
  every other scenario; their fingerprints do not move.

plus three workload-zoo scenarios, each a stream that :func:`replay_trace`
feeds into a sink, reading any control records on the way:

* ``pattern_mix``     — a three-phase composed suite (sequential sweep,
  uniform random, strided) with barriers and an idle pause between
  phases, so the feeder's barrier drains and pause offsets are on the
  gated path.
* ``zipf_hotcold``    — skewed addressing: a zipf(θ=1.1) phase then a
  20/80 hot/cold phase, exercising the rank-table and two-range draw
  paths under mixed reads/writes.
* ``snake_trim``      — the creeping-window write+TRIM pattern against a
  ``trim_enabled`` device; the fingerprint additionally pins ``trims``
  and ``trimmed_pages``, gating the informed-cleaning path bit-for-bit.

plus one fleet-layer scenario (PR 9):

* ``fleet_qos``       — a two-device, three-tenant QoS fleet
  (:mod:`repro.fleet`): gold/silver/bronze tenants with disjoint LBA
  namespaces merged per device, run shared-nothing and folded into one
  :class:`FleetReport`.  The gated ``fleet_digest`` is the report's
  fingerprint — canonical merged sketches, reservoirs, and per-device
  stats — so the entire router/runner/merge pipeline is pinned
  bit-for-bit (and, because the report is proven identical across worker
  counts, the digest gates the parallel path too).

plus one setup-path scenario:

* ``prefill``         — steady-state device aging
  (:mod:`repro.ftl.prefill`): a pagemap fill + overwrite scatter and a
  stripe-FTL fill on multi-GB-class geometry.  Setup wall time dominated
  short benches and CI before the PR 5 vectorization, yet was unmeasured
  by the gate; this scenario times it and fingerprints the *resulting FTL
  state* (a CRC over maps, page states, write pointers, and erase counts,
  reported as ``prefill_digest``), so a faster prefill that ages the
  device differently cannot pass.

Each scenario reports host ops/sec and simulator events/sec (wall time),
plus a behaviour *fingerprint* (final simulated clock, op counts, FTL
stats) that must not move when the implementation gets faster.

Run standalone to (re)record ``BENCH_CORE.json``::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --record current

(``--record fast`` with ``--scale 0.1`` maintains the CI-sized entry that
``REPRO_BENCH_FAST=1 python -m benchmarks.perf_report`` gates against).
The gate re-runs every scenario and matches its fingerprint exactly, so
a scenario that stops cleaning, trimming or faulting fails there.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, Optional

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # standalone `python benchmarks/...` runs
    sys.path.insert(0, str(_ROOT / "src"))

from repro.device.presets import s4slc_sim
from repro.flash.element import FlashElement
from repro.fleet import FleetConfig, TenantSpec, run_fleet
from repro.flash.faults import FaultConfig
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap, prefill_stripe_ftl
from repro.sim.engine import Simulator
from repro.traces.patterns import (PatternConfig, compose, iter_hot_cold,
                                   iter_random, iter_sequential, iter_snake,
                                   iter_strided, iter_zipf)
from repro.traces.synthetic import (SyntheticConfig, generate_synthetic,
                                    iter_synthetic)
from repro.workloads.driver import StreamingResult, replay_trace

BENCH_CORE = _ROOT / "BENCH_CORE.json"

#: IO counts per scenario at scale=1.0
_BASE_OPS = {
    "pure_write": 30_000,
    "mixed_rw": 30_000,
    "cleaning_heavy": 12_000,
    "swtf_saturated": 8_000,
    "replay_10m": 100_000,
    "fault_soak": 20_000,
    "pattern_mix": 24_000,
    "zipf_hotcold": 24_000,
    "snake_trim": 20_000,
    #: blocks per element for the prefill scenario (sizes the aged device)
    "prefill": 1_024,
    #: records per tenant per device for the fleet scenario
    "fleet_qos": 3_000,
}

#: ``--replay-count``: absolute record-count override for ``replay_10m``
#: (the headline 10M-record run; fingerprints are only comparable at the
#: recorded count, so the gate never sets this)
_REPLAY_COUNT_OVERRIDE: Optional[int] = None


def _make_ftl(blocks: int, sim: Optional[Simulator] = None):
    sim = sim if sim is not None else Simulator()
    geom = FlashGeometry(page_bytes=4096, pages_per_block=64,
                         blocks_per_element=blocks)
    elements = [
        FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
        for i in range(4)
    ]
    ftl = PageMappedFTL(sim, elements, spare_fraction=0.15)
    return sim, ftl


class _ClosedLoop:
    """Keep ``depth`` FTL requests outstanding until ``count`` complete."""

    def __init__(self, sim: Simulator, ftl: PageMappedFTL, count: int,
                 depth: int, next_io: Callable[[int], tuple]) -> None:
        self.sim = sim
        self.ftl = ftl
        self.count = count
        self.depth = depth
        self.next_io = next_io
        self._issued = 0

    def run(self) -> None:
        for _ in range(min(self.depth, self.count)):
            self._issue()
        self.sim.run_until_idle()

    def _issue(self) -> None:
        kind, offset, size = self.next_io(self._issued)
        self._issued += 1
        if kind == "w":
            self.ftl.write(offset, size, done=self._done)
        else:
            self.ftl.read(offset, size, done=self._done)

    def _done(self, now: float) -> None:
        if self._issued < self.count:
            self._issue()


def _fingerprint(sim: Simulator, ftl: PageMappedFTL) -> Dict[str, float]:
    stats = ftl.stats
    return {
        "final_clock_us": round(sim.now, 6),
        "host_writes": stats.host_writes,
        "host_reads": stats.host_reads,
        "flash_pages_programmed": stats.flash_pages_programmed,
        "clean_pages_moved": stats.clean_pages_moved,
        "clean_erases": stats.clean_erases,
        "clean_time_us": round(stats.clean_time_us, 6),
    }


def _measure(build: Callable[[], tuple]) -> Dict[str, float]:
    sim, ftl, loop = build()
    start = time.perf_counter()
    loop.run()
    wall_s = time.perf_counter() - start
    if sim is None:  # fleet scenarios build their devices inside run()
        sim, ftl = loop.sim, loop.ftl
    ftl.check_consistency()
    out = {
        "ops": loop.count,
        "events": sim.events_run,
        "wall_s": round(wall_s, 4),
        "ops_per_s": round(loop.count / wall_s, 1),
        "events_per_s": round(sim.events_run / wall_s, 1),
    }
    out.update(_fingerprint(sim, ftl))
    extra = getattr(loop, "extra_fingerprint", None)
    if extra is not None:
        out.update(extra())
    return out


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_pure_write(scale: float):
    count = max(1000, int(_BASE_OPS["pure_write"] * scale))
    sim, ftl = _make_ftl(blocks=256)
    region_pages = int(ftl.user_logical_pages * 0.6)
    rng = random.Random(1234)

    def next_io(i: int) -> tuple:
        return "w", rng.randrange(region_pages) * 4096, 4096

    return sim, ftl, _ClosedLoop(sim, ftl, count, depth=8, next_io=next_io)


def _scenario_mixed_rw(scale: float):
    count = max(1000, int(_BASE_OPS["mixed_rw"] * scale))
    sim, ftl = _make_ftl(blocks=256)
    region_pages = int(ftl.user_logical_pages * 0.6)
    rng = random.Random(5678)
    # seed the region so reads hit mapped pages
    prefill_pagemap(ftl, fill_fraction=0.6)

    def next_io(i: int) -> tuple:
        offset = rng.randrange(region_pages) * 4096
        return ("w" if rng.random() < 0.5 else "r"), offset, 4096

    return sim, ftl, _ClosedLoop(sim, ftl, count, depth=8, next_io=next_io)


def _scenario_cleaning_heavy(scale: float):
    count = max(1000, int(_BASE_OPS["cleaning_heavy"] * scale))
    sim, ftl = _make_ftl(blocks=192)
    prefill_pagemap(ftl, fill_fraction=0.92, overwrite_fraction=0.4,
                    rng=random.Random(77))
    region_pages = int(ftl.user_logical_pages * 0.9)
    rng = random.Random(4242)

    def next_io(i: int) -> tuple:
        return "w", rng.randrange(region_pages) * 4096, 4096

    return sim, ftl, _ClosedLoop(sim, ftl, count, depth=8, next_io=next_io)


class _OpenLoopReplay:
    """Adapter giving ``replay_trace`` the closed-loop runner interface."""

    def __init__(self, sim, device, trace) -> None:
        self.sim = sim
        self.device = device
        self.trace = trace
        self.count = len(trace)

    def run(self) -> None:
        replay_trace(self.sim, self.device, self.trace)


def _scenario_swtf_saturated(scale: float):
    """Open-loop overload through the SWTF dispatch path (see module
    docstring): mean interarrival of 6 us against a device that serves a
    request in ~125 us, so the host queue grows into the thousands."""
    count = max(1000, int(_BASE_OPS["swtf_saturated"] * scale))
    sim = Simulator()
    device = s4slc_sim(sim, element_mb=16, scheduler="swtf", max_inflight=32,
                       controller_overhead_us=5.0)
    prefill_pagemap(device.ftl, 0.70, overwrite_fraction=0.10)
    trace = generate_synthetic(SyntheticConfig(
        count=count,
        region_bytes=int(device.capacity_bytes * 0.65),
        request_bytes=4096,
        read_fraction=2.0 / 3.0,
        seq_probability=0.0,
        interarrival_max_us=12.0,
        seed=31,
    ))
    return sim, device.ftl, _OpenLoopReplay(sim, device, trace)


class _SinkReplay:
    """``replay_trace``-into-a-sink adapter with the runner interface;
    takes a trace *factory* so generator traces rebuild per repeat."""

    def __init__(self, sim, device, make_records, count) -> None:
        self.sim = sim
        self.device = device
        self.make_records = make_records
        self.count = count
        self.sink = StreamingResult()

    def run(self) -> None:
        replay_trace(self.sim, self.device, self.make_records(),
                     sink=self.sink)


def _scenario_replay_10m(scale: float):
    """Bounded-memory replay at scale (see module docstring): generator
    trace -> one-record-ahead feeder -> SWTF dispatch -> batched host
    link -> StreamingResult sink.  Arrivals sit just below
    service rate, so the host queue stays bounded and a 10M-record run
    holds O(1) state end to end."""
    if _REPLAY_COUNT_OVERRIDE is not None:
        count = _REPLAY_COUNT_OVERRIDE
    else:
        count = max(10_000, int(_BASE_OPS["replay_10m"] * scale))
    sim = Simulator()
    device = s4slc_sim(sim, element_mb=32, scheduler="swtf", max_inflight=32,
                       controller_overhead_us=5.0)
    prefill_pagemap(device.ftl, 0.60, overwrite_fraction=0.15)
    config = SyntheticConfig(
        count=count,
        region_bytes=int(device.capacity_bytes * 0.6),
        request_bytes=4096,
        read_fraction=0.5,
        seq_probability=0.3,
        interarrival_max_us=80.0,
        priority_fraction=0.1,
        seed=77,
    )
    runner = _SinkReplay(sim, device, lambda: iter_synthetic(config), count)
    return sim, device.ftl, runner


class _FaultSoakReplay(_SinkReplay):
    """``fault_soak`` runner: open-loop replay plus the fault-path
    counters in the fingerprint (injected faults, retirements, rescues,
    host retries, error completions)."""

    def extra_fingerprint(self) -> Dict[str, int]:
        device = self.device
        stats = device.ftl.stats
        models = [el.fault_model for el in device.elements]
        return {
            "fault_program_failures": sum(m.program_failures for m in models),
            "fault_erase_failures": sum(m.erase_failures for m in models),
            "fault_read_transients": sum(m.read_transients for m in models),
            "blocks_retired": stats.blocks_retired,
            "rescued_pages": stats.rescued_pages,
            "failed_pages": stats.failed_pages,
            "read_retries": sum(el.read_retries for el in device.elements),
            "write_retries": device.stats.write_retries,
            "requests_failed": device.stats.requests_failed,
            "error_completions": sum(self.sink.errors.values()),
        }


def _scenario_fault_soak(scale: float):
    """Write-heavy churn against a fault-injecting pagemap device (see
    module docstring): seeded program/erase/read faults, host retries
    enabled, spares sized so sustained retirements visibly shrink the
    free pool (and, at full scale, push toward read-only degradation)."""
    count = max(1000, int(_BASE_OPS["fault_soak"] * scale))
    sim = Simulator()
    device = s4slc_sim(
        sim, element_mb=8, max_inflight=8,
        spare_fraction=0.12,
        faults=FaultConfig(
            enabled=True,
            seed=2009,
            program_fail_prob=0.004,
            erase_fail_base_prob=0.002,
            erase_wear_scale=1e-4,
            read_transient_prob=0.01,
        ),
        host_retry_limit=2,
        host_retry_backoff_us=50.0,
    )
    prefill_pagemap(device.ftl, 0.70, overwrite_fraction=0.10)
    trace = generate_synthetic(SyntheticConfig(
        count=count,
        region_bytes=int(device.capacity_bytes * 0.8),
        request_bytes=4096,
        read_fraction=0.35,
        seq_probability=0.1,
        interarrival_max_us=150.0,
        seed=2009,
    ))
    runner = _FaultSoakReplay(sim, device, lambda: iter(trace), count)
    return sim, device.ftl, runner


def _scenario_pattern_mix(scale: float):
    """Three-phase composed suite (see module docstring): sequential ->
    random -> strided, a drain barrier plus a 2 ms idle pause between
    phases, mixed reads and priority tagging on the random phase."""
    total = max(1200, int(_BASE_OPS["pattern_mix"] * scale))
    per_phase = total // 3
    sim = Simulator()
    device = s4slc_sim(sim, element_mb=8, scheduler="swtf", max_inflight=16,
                       controller_overhead_us=5.0)
    prefill_pagemap(device.ftl, 0.65, overwrite_fraction=0.10)
    region = int(device.capacity_bytes * 0.5)
    base = dict(count=per_phase, region_bytes=region, request_bytes=4096,
                interarrival_max_us=80.0)

    def make_records():
        return compose(
            iter_sequential(PatternConfig(**base, read_fraction=0.3,
                                          seed=801)),
            iter_random(PatternConfig(**base, read_fraction=0.5,
                                      priority_fraction=0.1, seed=802)),
            iter_strided(PatternConfig(**base, seed=803),
                         stride_bytes=16 * 4096),
            pause_us=2_000.0,
        )

    runner = _SinkReplay(sim, device, make_records, per_phase * 3)
    return sim, device.ftl, runner


def _scenario_zipf_hotcold(scale: float):
    """Skewed addressing (see module docstring): a zipf(θ=1.1) phase then
    a 20/80 hot/cold phase over the same region, mixed reads/writes."""
    total = max(1200, int(_BASE_OPS["zipf_hotcold"] * scale))
    per_phase = total // 2
    sim = Simulator()
    device = s4slc_sim(sim, element_mb=8, scheduler="swtf", max_inflight=16,
                       controller_overhead_us=5.0)
    prefill_pagemap(device.ftl, 0.65, overwrite_fraction=0.10)
    region = int(device.capacity_bytes * 0.5)
    base = dict(count=per_phase, region_bytes=region, request_bytes=4096,
                read_fraction=0.4, interarrival_max_us=80.0)

    def make_records():
        return compose(
            iter_zipf(PatternConfig(**base, seed=811), theta=1.1),
            iter_hot_cold(PatternConfig(**base, seed=812),
                          hot_space_fraction=0.2, hot_access_fraction=0.8),
        )

    runner = _SinkReplay(sim, device, make_records, per_phase * 2)
    return sim, device.ftl, runner


class _SnakeReplay(_SinkReplay):
    """``snake_trim`` runner: the informed-cleaning counters join the
    fingerprint (TRIM calls and pages invalidated by them)."""

    def extra_fingerprint(self) -> Dict[str, int]:
        stats = self.device.ftl.stats
        return {"trims": stats.trims, "trimmed_pages": stats.trimmed_pages}


def _scenario_snake_trim(scale: float):
    """Creeping-window write+TRIM against a trim-processing device (see
    module docstring): live data stays one window, every freed slot is a
    cleaning copy the informed FTL never pays."""
    count = max(1000, int(_BASE_OPS["snake_trim"] * scale))
    sim = Simulator()
    device = s4slc_sim(sim, element_mb=8, trim_enabled=True, max_inflight=16,
                       controller_overhead_us=5.0)
    region = (int(device.capacity_bytes * 0.5) // 4096) * 4096
    window = (region // 4 // 4096) * 4096
    config = PatternConfig(count=count, region_bytes=region,
                           request_bytes=4096, interarrival_max_us=60.0,
                           seed=821)
    frees = max(0, count - window // 4096)
    runner = _SnakeReplay(sim, device,
                          lambda: iter_snake(config, window_bytes=window),
                          count + frees)
    return sim, device.ftl, runner


class _FleetRunner:
    """``fleet_qos`` runner: a whole multi-tenant fleet run (serial,
    in-process) is the measured body.  ``fleet_digest`` is the merged
    :meth:`FleetReport.fingerprint` — it covers every device's clock,
    events, FTL stats, and every tenant's merged sketches and reservoirs,
    so a faster fleet path that perturbs *any* device or tenant cannot
    pass.  The standard fingerprint fields read device 0."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.count = config.total_records
        self.sim = None
        self.ftl = None
        self.report = None

    def run(self) -> None:
        self.report = run_fleet(self.config, keep_devices=True)
        sim, device = self.report.live[0]
        self.sim = sim
        self.ftl = device.ftl

    def extra_fingerprint(self) -> Dict[str, int]:
        return {
            "fleet_digest": self.report.fingerprint(),
            "fleet_requests": self.report.total_requests,
            "fleet_events": self.report.total_events,
        }


def _scenario_fleet_qos(scale: float):
    """Multi-tenant QoS fleet (see module docstring): two devices, three
    tenants per device — a gold random tenant on the priority path, a
    silver hot/cold tenant, a bronze sequential batch stream — merged
    into one fleet report whose digest is the gated fingerprint."""
    per_tenant = max(300, int(_BASE_OPS["fleet_qos"] * scale))
    config = FleetConfig(
        tenants=(
            TenantSpec(name="oltp", pattern="random", qos="gold",
                       count=per_tenant, read_fraction=0.5, weight=1.0),
            TenantSpec(name="mail", pattern="hot_cold", qos="silver",
                       count=per_tenant, read_fraction=0.4, weight=1.0,
                       pattern_args={"hot_space_fraction": 0.2,
                                     "hot_access_fraction": 0.8}),
            TenantSpec(name="batch", pattern="sequential", qos="bronze",
                       count=per_tenant, weight=2.0),
        ),
        n_devices=2,
        element_mb=8,
        device_args={"scheduler": "swtf", "max_inflight": 16,
                     "controller_overhead_us": 5.0},
        seed=2009,
    )
    return None, None, _FleetRunner(config)


def _state_crc(ftl, crc: int = 0) -> int:
    """CRC32 over the FTL's full logical/physical state (maps, page states,
    write pointers, erase counts).  Any behavioural change to prefill —
    different blocks carved, different overwrite scatter — moves it."""
    for el in ftl.elements:
        crc = zlib.crc32(el.page_state.tobytes(), crc)
        crc = zlib.crc32(el.reverse_lpn.tobytes(), crc)
        crc = zlib.crc32(el.write_ptr.tobytes(), crc)
        crc = zlib.crc32(el.erase_count.tobytes(), crc)
    for emap in ftl._maps:
        crc = zlib.crc32(emap.tobytes(), crc)
    return crc


class _PrefillRunner:
    """Aged-device setup as the measured body (see module docstring)."""

    def __init__(self, sim, page_ftl, stripe_ftl) -> None:
        self.sim = sim
        self.page_ftl = page_ftl
        self.stripe_ftl = stripe_ftl
        self.count = 0

    def run(self) -> None:
        self.count = prefill_pagemap(
            self.page_ftl, 0.88, overwrite_fraction=0.05,
            rng=random.Random(1234),
        )
        self.count += prefill_stripe_ftl(self.stripe_ftl, 0.90)
        self.stripe_ftl.check_consistency()

    def extra_fingerprint(self) -> Dict[str, int]:
        digest = _state_crc(self.page_ftl)
        digest = _state_crc(self.stripe_ftl, digest)
        return {"prefill_digest": digest}


def _scenario_prefill(scale: float):
    """Steady-state aging on multi-GB-class geometry: a pagemap fill with
    overwrite scatter plus a stripe-FTL fill (see module docstring)."""
    blocks = max(96, int(_BASE_OPS["prefill"] * scale))
    sim = Simulator()
    geom = FlashGeometry(page_bytes=4096, pages_per_block=64,
                         blocks_per_element=blocks)
    page_elements = [FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
                     for i in range(8)]
    page_ftl = PageMappedFTL(sim, page_elements, spare_fraction=0.10)
    stripe_elements = [
        FlashElement(sim, geom, FlashTiming.slc(), element_id=8 + i)
        for i in range(8)
    ]
    stripe_ftl = BlockMappedFTL(sim, stripe_elements, gang_size=4,
                                spare_fraction=0.10)
    return sim, page_ftl, _PrefillRunner(sim, page_ftl, stripe_ftl)


SCENARIOS: Dict[str, Callable[[float], tuple]] = {
    "pure_write": _scenario_pure_write,
    "mixed_rw": _scenario_mixed_rw,
    "cleaning_heavy": _scenario_cleaning_heavy,
    "swtf_saturated": _scenario_swtf_saturated,
    "replay_10m": _scenario_replay_10m,
    "fault_soak": _scenario_fault_soak,
    "pattern_mix": _scenario_pattern_mix,
    "zipf_hotcold": _scenario_zipf_hotcold,
    "snake_trim": _scenario_snake_trim,
    "prefill": _scenario_prefill,
    "fleet_qos": _scenario_fleet_qos,
}


def run_scenario(name: str, scale: float = 1.0, repeat: int = 1) -> Dict[str, float]:
    """Run one scenario ``repeat`` times and keep the fastest wall time
    (fingerprints are identical across repeats — the workload is
    deterministic — so best-of-N only de-noises the machine)."""
    best = None
    for _ in range(max(1, repeat)):
        result = _measure(lambda: SCENARIOS[name](scale))
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    return best


def run_all(scale: float = 1.0, repeat: int = 1) -> Dict[str, Dict[str, float]]:
    return {name: run_scenario(name, scale, repeat) for name in SCENARIOS}


# ---------------------------------------------------------------------------
# standalone recording
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    global _REPLAY_COUNT_OVERRIDE
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", choices=("baseline", "current", "fast"),
                        help="write results into BENCH_CORE.json under this "
                             "key ('fast' is the CI-sized entry; record it "
                             "with --scale 0.1)")
    parser.add_argument("--label", default="",
                        help="free-form label stored with the recorded run")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions per scenario; fastest wall kept")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default=None,
                        help="run a single scenario instead of all")
    parser.add_argument("--replay-count", type=int, default=None,
                        help="absolute record count for replay_10m (e.g. "
                             "10000000 for the headline run); incompatible "
                             "with --record, whose fingerprints assume the "
                             "default count")
    args = parser.parse_args(argv)
    if args.replay_count is not None:
        if args.record:
            parser.error("--replay-count cannot be combined with --record")
        _REPLAY_COUNT_OVERRIDE = args.replay_count
    if args.record and args.scenario:
        parser.error("--record needs the full scenario set, not --scenario")

    if args.scenario:
        results = {args.scenario: run_scenario(args.scenario, args.scale,
                                               args.repeat)}
    else:
        results = run_all(args.scale, args.repeat)
    for name, row in results.items():
        print(f"{name:16s} {row['ops_per_s']:>10.0f} ops/s "
              f"{row['events_per_s']:>12.0f} events/s  "
              f"wall={row['wall_s']:.3f}s clock={row['final_clock_us']:.0f}us")

    if args.record:
        doc = {}
        if BENCH_CORE.exists():
            doc = json.loads(BENCH_CORE.read_text())
        doc.setdefault("meta", {})
        if args.record != "fast":  # meta.scale tracks the full-size entries
            doc["meta"]["scale"] = args.scale
        doc["meta"]["scenarios"] = list(SCENARIOS)
        entry = {"label": args.label, "scale": args.scale, "results": results}
        doc[args.record] = entry
        BENCH_CORE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"recorded '{args.record}' in {BENCH_CORE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
