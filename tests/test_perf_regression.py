"""Guardrails for perf work on the simulation core.

Two protections:

1. **Determinism**: the same seeded workload run twice produces identical
   stats, event counts, and final clock.  Any hidden dependence on dict
   order, object identity, or wall time shows up here.
2. **Golden snapshot**: the workloads' results are pinned to constants
   recorded from the pre-optimization tree (PR 1 seed).  A perf refactor
   must change *wall time only* — if simulated behaviour moves, these
   constants move, and the PR must justify why.

The main workload deliberately crosses every hot path this suite
optimizes: striped logical pages (shards=2) with read-modify-writes, SWTF
scheduling (queue_wait_us), priority-aware cleaning, TRIM, and dynamic
wear-leveling.  The second workload hammers a tiny device with static
wear-leveling so block migration (pull_worn_free_block) is exercised.
The blockmap workload (golden recorded pre-PR 2, before that FTL moved
onto FreeBlockPool row pools, slab joins, and the incremental SWTF
dispatch) pins stripe RMW cycles, background retirement, and gang-wide
SWTF dispatch decisions.
"""

from __future__ import annotations

import random
import zlib

import pytest

from benchmarks.bench_hotpath import _state_crc
from repro.device.interface import OpType
from repro.device.presets import s1slc, s3slc
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.flash.element import FlashElement
from repro.flash.faults import FaultConfig
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.cleaning import CleaningConfig
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap
from repro.ftl.wearlevel import WearConfig
from repro.sim.engine import Simulator
from repro.traces.record import TraceRecord
from repro.workloads.driver import ClosedLoopDriver, replay_trace
from tests.test_faults import _SOAK_FAULTS, _Soak

# Recorded from the seed tree (commit 4f793d6) by running the workloads
# below, before the hot-path refactor; see test docstring.  Re-pinned when
# the priority drain began starting the cleans the §3.6 gate had held
# back (the workload is priority-aware): clock, cleaning counts and write
# stalls moved; host traffic did not.
GOLDEN_MAIN: dict = {
    "final_clock_us": 1040044.4688,
    "events_run": 19258,
    "stats": {
        "host_reads": 972,
        "host_writes": 2865,
        "host_pages_read": 1948,
        "host_pages_written": 5788,
        "flash_pages_programmed": 10274,
        "rmw_pages_read": 2025,
        "clean_pages_moved": 1606,
        "clean_time_us": 968574.0,
        "clean_erases": 400,
        "wear_migrations": 0,
        "wear_pages_moved": 0,
        "trims": 163,
        "trimmed_pages": 120,
        "write_stalls": 27,
    },
    "busy_us": {"host": 3016514.6875, "clean": 968574.0, "wear": 0.0},
    "erases": 400,
}
# Recorded from the pre-PR 2 tree (commit cdd2aed) by running the stripe
# workloads below before the dispatch/freepool refactor; see test docstring.
GOLDEN_BLOCKMAP: dict = {
    "final_clock_us": 1698376.875,
    "events_run": 20450,
    "stats": {
        "host_reads": 423,
        "host_writes": 1011,
        "host_pages_read": 643,
        "host_pages_written": 1544,
        "flash_pages_programmed": 9045,
        "rmw_pages_read": 7501,
        "clean_pages_moved": 0,
        "clean_time_us": 2180904.0,
        "clean_erases": 1452,
        "wear_migrations": 0,
        "wear_pages_moved": 0,
        "trims": 66,
        "trimmed_pages": 57,
        "write_stalls": 0,
    },
    "busy_us": {"host": 3695549.125, "clean": 2180904.0, "wear": 0.0},
    "erases": 1452,
    "media_bytes_written": 37048320,
}
GOLDEN_WEAR: dict = {
    "final_clock_us": 699290.4375,
    "events_run": 5333,
    "stats": {
        "host_reads": 0,
        "host_writes": 2500,
        "host_pages_read": 0,
        "host_pages_written": 2500,
        "flash_pages_programmed": 2551,
        "rmw_pages_read": 0,
        "clean_pages_moved": 29,
        "clean_time_us": 394157.0,
        "clean_erases": 258,
        "wear_migrations": 24,
        "wear_pages_moved": 22,
        "trims": 0,
        "trimmed_pages": 0,
        "write_stalls": 10,
    },
    "busy_us": {"host": 749140.625, "clean": 394157.0, "wear": 41086.0},
    "erases": 282,
}


def _observables(sim: Simulator, ssd: SSD) -> dict:
    stats = ssd.ftl.stats.as_dict()
    stats["clean_time_us"] = round(stats["clean_time_us"], 6)
    busy = {
        tag: round(sum(el.busy_us(tag) for el in ssd.ftl.elements), 4)
        for tag in ("host", "clean", "wear")
    }
    return {
        "final_clock_us": round(sim.now, 4),
        "events_run": sim.events_run,
        "stats": stats,
        "busy_us": busy,
        "erases": sum(el.erases_performed for el in ssd.ftl.elements),
        "media_bytes_written": ssd.ftl.media_bytes_written,
    }


def _run_main():
    sim = Simulator()
    config = SSDConfig(
        name="determinism-main",
        n_elements=4,
        geometry=FlashGeometry(page_bytes=4096, pages_per_block=16,
                               blocks_per_element=64),
        logical_page_bytes=8192,  # shards=2: exercises striping + RMW
        scheduler="swtf",
        max_inflight=8,
        controller_overhead_us=5.0,
        trim_enabled=True,
        cleaning=CleaningConfig(priority_aware=True),
    )
    ssd = SSD(sim, config)
    region = int(ssd.capacity_bytes * 0.7) // 4096
    rng = random.Random(99)

    def next_request(i: int):
        offset = rng.randrange(region) * 4096
        size = rng.choice((4096, 8192, 12288))
        size = min(size, ssd.capacity_bytes - offset)
        roll = rng.random()
        if roll < 0.25:
            op = OpType.READ
        elif roll < 0.29:
            op = OpType.FREE
        else:
            op = OpType.WRITE
        priority = 1 if rng.random() < 0.1 else 0
        return op, offset, size, priority

    driver = ClosedLoopDriver(sim, ssd, next_request, count=4000, depth=8)
    driver.run()
    ssd.ftl.check_consistency()
    return sim, ssd


def _run_wear():
    sim = Simulator()
    config = SSDConfig(
        name="determinism-wear",
        n_elements=2,
        geometry=FlashGeometry(page_bytes=4096, pages_per_block=8,
                               blocks_per_element=32),
        max_inflight=4,
        controller_overhead_us=2.0,
        wear=WearConfig(dynamic=False, static=True, spread_threshold=2,
                        check_every_erases=2),
    )
    ssd = SSD(sim, config)
    region = int(ssd.capacity_bytes * 0.3) // 4096
    rng = random.Random(7)

    def next_request(i: int):
        return OpType.WRITE, rng.randrange(region) * 4096, 4096

    driver = ClosedLoopDriver(sim, ssd, next_request, count=2500, depth=4)
    driver.run()
    ssd.ftl.check_consistency()
    return sim, ssd


def _stripe_request_factory(ssd: SSD, rng: random.Random, region_frac: float):
    region = int(ssd.capacity_bytes * region_frac) // 4096

    def next_request(i: int):
        offset = rng.randrange(region) * 4096
        size = min(rng.choice((4096, 8192)), ssd.capacity_bytes - offset)
        roll = rng.random()
        if roll < 0.30:
            op = OpType.READ
        elif roll < 0.34:
            op = OpType.FREE
        else:
            op = OpType.WRITE
        return op, offset, size

    return next_request


def _run_blockmap():
    sim = Simulator()
    config = SSDConfig(
        name="determinism-blockmap",
        n_elements=4,
        geometry=FlashGeometry(page_bytes=4096, pages_per_block=8,
                               blocks_per_element=48),
        ftl_type="blockmap",
        gang_size=2,
        spare_fraction=0.25,
        scheduler="swtf",
        max_inflight=8,
        controller_overhead_us=5.0,
        trim_enabled=True,
    )
    ssd = SSD(sim, config)
    driver = ClosedLoopDriver(
        sim, ssd, _stripe_request_factory(ssd, random.Random(1212), 0.5),
        count=1500, depth=6,
    )
    result = driver.run()
    assert result.count >= 1400, result.count
    ssd.ftl.check_consistency()
    return sim, ssd


def test_same_seed_twice_is_identical():
    assert _observables(*_run_main()) == _observables(*_run_main())


def test_wear_workload_twice_is_identical():
    assert _observables(*_run_wear()) == _observables(*_run_wear())


def _assert_matches(observed: dict, golden: dict) -> None:
    # events_run is a budget, not a pin: a refactor may realize the same
    # schedule with fewer events, never with more (the rule
    # benchmarks/perf_report.py applies to its event budgets).  The
    # simulated *behaviour* — stats, clock, busy time, erases, media bytes
    # — must match exactly.
    for key in golden:
        if key == "events_run":
            assert observed[key] <= golden[key], (
                f"events_run grew past its budget: "
                f"{observed[key]} > {golden[key]}"
            )
            continue
        if key == "stats":
            # the stats dataclass may grow new counters (e.g. the fault
            # counters, all zero with faults off); every counter recorded
            # in the golden snapshot must still match exactly
            for k, v in golden["stats"].items():
                assert observed["stats"][k] == v, (
                    f"stats[{k}] diverged from the recorded seed behaviour: "
                    f"{observed['stats'][k]!r} != {v!r}"
                )
            continue
        assert observed[key] == golden[key], (
            f"{key} diverged from the recorded seed behaviour: "
            f"{observed[key]!r} != {golden[key]!r}"
        )


def test_main_workload_matches_golden_snapshot():
    observed = _observables(*_run_main())
    _assert_matches(observed, GOLDEN_MAIN)
    # these paths must actually have run, or this guardrail guards nothing
    assert observed["stats"]["clean_erases"] > 0
    assert observed["stats"]["rmw_pages_read"] > 0
    assert observed["stats"]["trims"] > 0


def test_wear_workload_matches_golden_snapshot():
    observed = _observables(*_run_wear())
    _assert_matches(observed, GOLDEN_WEAR)
    assert observed["stats"]["wear_migrations"] > 0
    assert observed["stats"]["clean_erases"] > 0


def test_blockmap_workload_matches_golden_snapshot():
    observed = _observables(*_run_blockmap())
    _assert_matches(observed, GOLDEN_BLOCKMAP)
    # the refactor-sensitive paths must actually have run
    assert observed["stats"]["rmw_pages_read"] > 0     # stripe RMW cycles
    assert observed["stats"]["clean_erases"] > 0       # background retirement
    assert observed["stats"]["trims"] > 0


# ---------------------------------------------------------------------------
# fault paths: grown bad blocks under every FTL family
# ---------------------------------------------------------------------------

# Recorded before the FTL families moved onto one block lifecycle in
# BaseFTL (pool pull, erase-and-release, retire-and-rescue, program retry):
# they pin the block-mapped FTL's retire/rescue/retry paths and the static
# wear-leveler's fault handling, which the fault-free goldens above never
# reach.  Each pins the final clock (exact, as float hex), every FTLStats
# counter, the error completions by kind and the event count.  The wear
# entry was re-recorded when page-mapped admission began counting promised
# pages (its over-committed pulls had lost 2 pages).
GOLDEN_FAULTS: dict = {
    "blockmap": {
        "final_clock": "0x1.34e9880000000p+16",
        "events_run": 1391,
        "stats": {
            "host_reads": 124,
            "host_writes": 390,
            "host_pages_read": 124,
            "host_pages_written": 390,
            "flash_pages_programmed": 447,
            "rmw_pages_read": 42,
            "clean_pages_moved": 0,
            "clean_time_us": 60080.0,
            "clean_erases": 40,
            "wear_migrations": 0,
            "wear_pages_moved": 0,
            "trims": 0,
            "trimmed_pages": 0,
            "write_stalls": 86,
            "program_failures": 14,
            "erase_failures": 1,
            "blocks_retired": 30,
            "rescued_pages": 15,
            "failed_pages": 0
        },
        "errors": {
            "readonly": 86
        }
    },
    "wear": {
        "final_clock": "0x1.a531040000000p+18",
        "events_run": 3163,
        "stats": {
            "host_reads": 0,
            "host_writes": 1138,
            "host_pages_read": 0,
            "host_pages_written": 1138,
            "flash_pages_programmed": 1479,
            "rmw_pages_read": 0,
            "clean_pages_moved": 164,
            "clean_time_us": 240326.0,
            "clean_erases": 135,
            "wear_migrations": 16,
            "wear_pages_moved": 77,
            "trims": 0,
            "trimmed_pages": 0,
            "write_stalls": 559,
            "program_failures": 31,
            "erase_failures": 2,
            "blocks_retired": 33,
            "rescued_pages": 100,
            "failed_pages": 0
        },
        "errors": {
            "readonly": 362
        }
    }
}


def _run_wear_faulted():
    """The static wear-leveling workload of :func:`_run_wear` on a medium
    that fails programs and erases: migrations burn destination pages,
    erases grow bad blocks, and the device ends read-only."""
    sim = Simulator()
    config = SSDConfig(
        name="determinism-wear-faults",
        n_elements=2,
        geometry=FlashGeometry(page_bytes=4096, pages_per_block=8,
                               blocks_per_element=32),
        max_inflight=4,
        controller_overhead_us=2.0,
        wear=WearConfig(dynamic=False, static=True, spread_threshold=2,
                        check_every_erases=2),
        faults=FaultConfig(enabled=True, seed=1, **_SOAK_FAULTS),
        host_retry_limit=2,
        host_retry_backoff_us=20.0,
    )
    ssd = SSD(sim, config)
    region = int(ssd.capacity_bytes * 0.3) // 4096
    rng = random.Random(1)

    def next_request(i: int):
        return OpType.WRITE, rng.randrange(region) * 4096, 4096

    result = ClosedLoopDriver(sim, ssd, next_request, count=1500,
                              depth=4).run()
    ssd.ftl.check_consistency()
    return sim, ssd, result.errors


def _run_fault_scenario(name: str):
    if name == "wear":
        return _run_wear_faulted()
    soak = _Soak(seed=2, ftl_type=name, count=600, write_fraction=0.8)
    return soak.sim, soak.ssd, soak.errors


def _fault_observables(sim: Simulator, ssd: SSD, errors: dict) -> dict:
    return {
        "final_clock": sim.now.hex(),
        "events_run": sim.events_run,
        "stats": ssd.ftl.stats.as_dict(),
        "errors": dict(sorted(errors.items())),
    }


@pytest.mark.parametrize("name", ["blockmap", "wear"])
def test_fault_workload_matches_golden_snapshot(name):
    observed = _fault_observables(*_run_fault_scenario(name))
    assert observed == GOLDEN_FAULTS[name]
    stats = observed["stats"]
    # the fault paths must actually have run
    assert stats["program_failures"] > 0
    assert stats["blocks_retired"] > 0
    if name == "wear":
        assert stats["wear_migrations"] > 0
        assert stats["erase_failures"] > 0


# ---------------------------------------------------------------------------
# prefill: the aging pass with instant cleans
# ---------------------------------------------------------------------------

# Recorded from the per-page overwrite-and-clean loop, before prefill aged
# elements in numpy chunks.  ``perf_report``'s prefill scenario overwrites
# too little to reach an instant clean; these runs clean ~290 blocks per
# element and pin the resulting state (maps, page states, write pointers,
# erase counts) with the same CRC its ``prefill_digest`` uses.
GOLDEN_PREFILL_CLEANING: dict = {1: 3850192637, 2: 496666736}


@pytest.mark.parametrize("seed", sorted(GOLDEN_PREFILL_CLEANING))
def test_cleaning_prefill_matches_golden_state(seed):
    sim = Simulator()
    geom = FlashGeometry(page_bytes=4096, pages_per_block=64,
                         blocks_per_element=96)
    elements = [FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
                for i in range(8)]
    ftl = PageMappedFTL(sim, elements, spare_fraction=0.10)
    prefill_pagemap(ftl, 0.92, overwrite_fraction=1.0,
                    rng=random.Random(seed))
    ftl.check_consistency()
    assert sum(el.erases_performed for el in elements) > 0  # cleans ran
    assert _state_crc(ftl) == GOLDEN_PREFILL_CLEANING[seed]


# ---------------------------------------------------------------------------
# write-back cache: the aligning buffer acking on insert (S1slc, S3slc)
# ---------------------------------------------------------------------------

# Recorded before the aligning buffer lost its flush-ack mode and moved
# onto the passthrough buffer's outstanding-write barrier.  No other golden
# or benchmark scenario runs ``write_buffer="align"``: these pin the insert
# ack, the window and full-page flushes, read-triggered flushes and (on
# S3slc's block-mapped FTL) the drain queue's allocation backpressure.
GOLDEN_WRITEBACK: dict = {
    "s1slc": {
        "final_clock": "0x1.df92c98f41688p+15",
        "stats": {
            "host_reads": 914,
            "host_writes": 2086,
            "host_pages_read": 914,
            "host_pages_written": 2086,
            "flash_pages_programmed": 2086,
            "rmw_pages_read": 0,
            "clean_pages_moved": 0,
            "clean_time_us": 0.0,
            "clean_erases": 0,
            "wear_migrations": 0,
            "wear_pages_moved": 0,
            "trims": 0,
            "trimmed_pages": 0,
            "write_stalls": 0,
            "program_failures": 0,
            "erase_failures": 0,
            "blocks_retired": 0,
            "rescued_pages": 0,
            "failed_pages": 0
        },
        "completions": 3000,
        "completion_crc": 1566815359
    },
    "s3slc": {
        "final_clock": "0x1.3921e4018537ap+19",
        "stats": {
            "host_reads": 909,
            "host_writes": 1937,
            "host_pages_read": 909,
            "host_pages_written": 2044,
            "flash_pages_programmed": 9639,
            "rmw_pages_read": 7595,
            "clean_pages_moved": 0,
            "clean_time_us": 1141520.0,
            "clean_erases": 760,
            "wear_migrations": 0,
            "wear_pages_moved": 0,
            "trims": 0,
            "trimmed_pages": 0,
            "write_stalls": 0,
            "program_failures": 0,
            "erase_failures": 0,
            "blocks_retired": 0,
            "rescued_pages": 0,
            "failed_pages": 0
        },
        "completions": 3000,
        "completion_crc": 642611087
    }
}


def _writeback_records(capacity: int, seed: int = 7, count: int = 3000):
    """Random 4 KiB reads (30 %) and writes over half the device, arriving
    every 0-40 us: fast enough that S3slc's RMW drain falls behind."""
    rng = random.Random(seed)
    region = int(capacity * 0.5) // 4096
    t = 0.0
    for _ in range(count):
        t += rng.uniform(0.0, 40.0)
        op = OpType.READ if rng.random() < 0.3 else OpType.WRITE
        yield TraceRecord(t, op, rng.randrange(region) * 4096, 4096)


def _completion_crc(completions) -> int:
    crc = 0
    for c in completions:
        key = (c.op.name, c.offset, c.submit_us.hex(), c.complete_us.hex(),
               c.error)
        crc = zlib.crc32(repr(key).encode(), crc)
    return crc


@pytest.mark.parametrize("preset", ["s1slc", "s3slc"])
def test_writeback_cache_matches_golden_snapshot(preset):
    sim = Simulator()
    ssd = {"s1slc": s1slc, "s3slc": s3slc}[preset](sim, element_mb=4)
    result = replay_trace(sim, ssd, _writeback_records(ssd.capacity_bytes))
    ssd.ftl.check_consistency()
    observed = {
        "final_clock": sim.now.hex(),
        "stats": ssd.ftl.stats.as_dict(),
        "completions": len(result.completions),
        "completion_crc": _completion_crc(result.completions),
    }
    assert observed == GOLDEN_WRITEBACK[preset]


# ---------------------------------------------------------------------------
# allocation stall: writes refused admission and probed again
# ---------------------------------------------------------------------------

# Recorded before ``SSD.admissible`` lost its per-request memo.  Both
# drives write over 90 % of a small SWTF device, so the pool sits at its
# reserve, writes are refused (``write_stalls``) and re-probed on every
# dispatch attempt; the pins cover which write dispatches when.  The
# pagemap entry's ``write_stalls`` and completion order were re-recorded
# when page-mapped admission began counting promised pages.
GOLDEN_STALL: dict = {
    "blockmap": {
        "final_clock": "0x1.a195c60000000p+21",
        "events_run": 42850,
        "stats": {
            "host_reads": 0,
            "host_writes": 1500,
            "host_pages_read": 0,
            "host_pages_written": 2276,
            "flash_pages_programmed": 20437,
            "rmw_pages_read": 18161,
            "clean_pages_moved": 0,
            "clean_time_us": 4133504.0,
            "clean_erases": 2752,
            "wear_migrations": 0,
            "wear_pages_moved": 0,
            "trims": 0,
            "trimmed_pages": 0,
            "write_stalls": 350,
            "program_failures": 0,
            "erase_failures": 0,
            "blocks_retired": 0,
            "rescued_pages": 0,
            "failed_pages": 0
        },
        "completions": 1500,
        "completion_crc": 1391765755
    },
    "pagemap": {
        "final_clock": "0x1.2898340000000p+19",
        "events_run": 9825,
        "stats": {
            "host_reads": 329,
            "host_writes": 2671,
            "host_pages_read": 486,
            "host_pages_written": 3999,
            "flash_pages_programmed": 5849,
            "rmw_pages_read": 0,
            "clean_pages_moved": 1850,
            "clean_time_us": 794644.0,
            "clean_erases": 247,
            "wear_migrations": 0,
            "wear_pages_moved": 0,
            "trims": 0,
            "trimmed_pages": 0,
            "write_stalls": 603,
            "program_failures": 0,
            "erase_failures": 0,
            "blocks_retired": 0,
            "rescued_pages": 0,
            "failed_pages": 0
        },
        "completions": 3000,
        "completion_crc": 3549823772
    }
}

#: name -> (config, seed, request count, read fraction)
_STALL_DRIVES = {
    "blockmap": (SSDConfig(
        name="stall-blockmap",
        n_elements=4,
        geometry=FlashGeometry(page_bytes=4096, pages_per_block=8,
                               blocks_per_element=16),
        ftl_type="blockmap",
        gang_size=2,
        spare_fraction=0.3,
        scheduler="swtf",
        max_inflight=4,
        controller_overhead_us=5.0,
    ), 404, 1500, 0.0),
    "pagemap": (SSDConfig(
        name="stall-pagemap",
        n_elements=4,
        geometry=FlashGeometry(page_bytes=4096, pages_per_block=16,
                               blocks_per_element=32),
        scheduler="swtf",
        max_inflight=8,
        controller_overhead_us=5.0,
    ), 11, 3000, 0.1),
}


def _run_stall(name: str):
    config, seed, count, read_frac = _STALL_DRIVES[name]
    sim = Simulator()
    ssd = SSD(sim, config)
    region = int(ssd.capacity_bytes * 0.9) // 4096
    rng = random.Random(seed)

    def next_request(i: int):
        offset = rng.randrange(region) * 4096
        size = min(rng.choice((4096, 8192)), ssd.capacity_bytes - offset)
        op = OpType.READ if rng.random() < read_frac else OpType.WRITE
        return op, offset, size

    result = ClosedLoopDriver(sim, ssd, next_request, count=count,
                              depth=8).run()
    ssd.ftl.check_consistency()
    return {
        "final_clock": sim.now.hex(),
        "events_run": sim.events_run,
        "stats": ssd.ftl.stats.as_dict(),
        "completions": len(result.completions),
        "completion_crc": _completion_crc(result.completions),
    }


@pytest.mark.parametrize("name", sorted(_STALL_DRIVES))
def test_allocation_stall_matches_golden_snapshot(name):
    observed = _run_stall(name)
    assert observed["stats"]["write_stalls"] > 0  # the regime must stall
    assert observed == GOLDEN_STALL[name]


# ---------------------------------------------------------------------------
# stripe host path: every request shape the block-mapped FTL walks
# ---------------------------------------------------------------------------

# Recorded before the stripe read, trim and stripe walk became one host
# path.  GOLDEN_BLOCKMAP sends 4-8 KiB requests only and holds
# ``events_run`` to a budget; this mix adds 512 B writes and reads,
# whole-stripe writes and FREEs, and requests crossing a stripe boundary,
# over a region with holes (never written or trimmed).  Depth 8 over 4
# slots gives SWTF a queue to choose from.
GOLDEN_STRIPE_MIX: dict = {
    "blockmap-fcfs": {
        "final_clock": "0x1.468d000000000p+20",
        "events_run": 24880,
        "stats": {
            "host_reads": 354,
            "host_writes": 744,
            "host_pages_read": 3231,
            "host_pages_written": 6496,
            "flash_pages_programmed": 12852,
            "rmw_pages_read": 6489,
            "clean_pages_moved": 0,
            "clean_time_us": 2475296.0,
            "clean_erases": 1648,
            "wear_migrations": 0,
            "wear_pages_moved": 0,
            "trims": 102,
            "trimmed_pages": 627,
            "write_stalls": 0,
            "program_failures": 0,
            "erase_failures": 0,
            "blocks_retired": 0,
            "rescued_pages": 0,
            "failed_pages": 0
        },
        "completions": 1200,
        "completion_crc": 2627927998
    },
    "blockmap-swtf": {
        "final_clock": "0x1.1e416e8000000p+20",
        "events_run": 24824,
        "stats": {
            "host_reads": 354,
            "host_writes": 744,
            "host_pages_read": 3231,
            "host_pages_written": 6496,
            "flash_pages_programmed": 12831,
            "rmw_pages_read": 6469,
            "clean_pages_moved": 0,
            "clean_time_us": 2472292.0,
            "clean_erases": 1646,
            "wear_migrations": 0,
            "wear_pages_moved": 0,
            "trims": 102,
            "trimmed_pages": 621,
            "write_stalls": 0,
            "program_failures": 0,
            "erase_failures": 0,
            "blocks_retired": 0,
            "rescued_pages": 0,
            "failed_pages": 0
        },
        "completions": 1200,
        "completion_crc": 381378828
    }
}


def _stripe_mix_request_factory(ssd: SSD, rng: random.Random):
    """Reads (30 %), FREEs (8 %) and writes over 60 % of the device, in
    four shapes: 512 B at any sector, 4 or 12 KiB inside one stripe, one
    whole aligned stripe, and a range crossing into the next stripe."""
    sb = ssd.ftl.stripe_bytes
    stripes = int(ssd.capacity_bytes * 0.6) // sb

    def next_request(i: int):
        lbn = rng.randrange(stripes - 1)
        shape = rng.random()
        if shape < 0.25:
            offset, size = lbn * sb + rng.randrange(sb // 512) * 512, 512
        elif shape < 0.55:
            size = rng.choice((4096, 12288))
            offset = lbn * sb + rng.randrange((sb - size) // 4096 + 1) * 4096
        elif shape < 0.75:
            offset, size = lbn * sb, sb
        else:
            offset = lbn * sb + rng.randrange(1, sb // 4096) * 4096
            size = rng.choice((sb, 2 * sb - (offset - lbn * sb)))
        roll = rng.random()
        if roll < 0.30:
            op = OpType.READ
        elif roll < 0.38:
            op = OpType.FREE
        else:
            op = OpType.WRITE
        return op, offset, size

    return next_request


@pytest.mark.parametrize("name", sorted(GOLDEN_STRIPE_MIX))
def test_stripe_mix_matches_golden_snapshot(name):
    ftl_type, scheduler = name.split("-")
    sim = Simulator()
    ssd = SSD(sim, SSDConfig(
        name=f"stripe-mix-{name}",
        n_elements=8,
        geometry=FlashGeometry(page_bytes=4096, pages_per_block=8,
                               blocks_per_element=32),
        ftl_type=ftl_type,
        gang_size=2,
        spare_fraction=0.25,
        scheduler=scheduler,
        max_inflight=4,
        controller_overhead_us=5.0,
        trim_enabled=True,
    ))
    result = ClosedLoopDriver(
        sim, ssd, _stripe_mix_request_factory(ssd, random.Random(2020)),
        count=1200, depth=8,
    ).run()
    ssd.ftl.check_consistency()
    observed = {
        "final_clock": sim.now.hex(),
        "events_run": sim.events_run,
        "stats": ssd.ftl.stats.as_dict(),
        "completions": len(result.completions),
        "completion_crc": _completion_crc(result.completions),
    }
    assert observed == GOLDEN_STRIPE_MIX[name]
