"""Ablations A1-A6: the paper's design choices, one knob at a time.

A1  cleaning policy: greedy vs cost-benefit victim selection (§3.5)
A2  stripe (logical page) size: amplification vs parallelism (§3.4)
A3  SLC/MLC tiering: object placement vs linear block allocation (§3.3)
A4  delete notifications: none vs pseudo-driver vs OSD-native (§3.5/§3.7)
A5  wear-leveling: dynamic only vs dynamic+static, erase spread (§3.5)
A6  FTL family: page-mapped vs block-mapped under random writes
    (the mechanism behind Table 2's S2/S4 split)

Each returns an :class:`repro.bench.tables.ExperimentResult`;
:func:`claims` checks one.
"""

from __future__ import annotations

from typing import List

from repro.bench.tables import Claim, ExperimentResult, check
from repro.core.fs_shim import BlockFilesystem
from repro.core.object import ObjectAttributes
from repro.core.placement import LinearPlacement, TieredPlacement
from repro.core.store import ObjectStore
from repro.device.interface import OpType
from repro.device.presets import s4slc_sim, table3_gang_ssd, tiered_slc_mlc
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.flash.geometry import FlashGeometry
from repro.flash.wear import summarize_wear
from repro.ftl.cleaning import CleaningConfig
from repro.ftl.prefill import prefill_pagemap
from repro.ftl.wearlevel import WearConfig
from repro.sim.engine import Simulator
from repro.sim.rng import stream
from repro.units import KIB, MIB
from repro.workloads.driver import ClosedLoopDriver

__all__ = [
    "cleaning_policy",
    "stripe_size",
    "tier_placement",
    "osd_trim",
    "wear_leveling",
    "ftl_family",
    "run",
    "claims",
]


def _skewed_writer(region_bytes: int, seed: int, hot_fraction: float = 0.2,
                   hot_weight: float = 0.8):
    """80/20-style generator: most writes hit a small hot range."""
    rng = stream(seed, "skewed")
    slots = region_bytes // (4 * KIB)
    hot_slots = max(1, int(slots * hot_fraction))

    def next_request(index: int):
        if rng.random() < hot_weight:
            slot = rng.randrange(hot_slots)
        else:
            slot = hot_slots + rng.randrange(max(1, slots - hot_slots))
        return (OpType.WRITE, slot * 4 * KIB, 4 * KIB)

    return next_request


# ---------------------------------------------------------------------------
# A1 cleaning policy
# ---------------------------------------------------------------------------


def cleaning_policy(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """Greedy vs cost-benefit under a skewed (hot/cold) write mix."""
    count = max(1000, int(6000 * scale))
    rows = []
    for policy in ("greedy", "cost_benefit"):
        sim = Simulator()
        device = s4slc_sim(
            sim,
            element_mb=8,
            cleaning=CleaningConfig(policy=policy),
            controller_overhead_us=5.0,
        )
        prefill_pagemap(device.ftl, 0.90, overwrite_fraction=0.20)
        region = int(device.capacity_bytes * 0.85)
        result = ClosedLoopDriver(
            sim, device, _skewed_writer(region, seed), count=count, depth=4
        ).run()
        stats = device.ftl.stats
        rows.append(
            [
                policy,
                stats.clean_pages_moved,
                stats.clean_erases,
                device.stats.write_amplification,
                result.latency().mean_us / 1000.0,
            ]
        )
    return ExperimentResult(
        experiment_id="ablation-cleaning",
        title="A1: cleaning victim policy under skewed writes",
        headers=["Policy", "PagesMoved", "Erases", "WriteAmp", "MeanMs"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# A2 stripe size
# ---------------------------------------------------------------------------


def stripe_size(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """Random 4 KB writes vs the logical-page (stripe) size."""
    count = max(400, int(2000 * scale))
    rows = []
    for lp_kib in (4, 8, 16, 32):
        sim = Simulator()
        device = table3_gang_ssd(
            sim, element_mb=32, logical_page_bytes=lp_kib * KIB
        )
        prefill_pagemap(device.ftl, 0.60)
        region = int(device.capacity_bytes * 0.55)
        rng = stream(seed, f"stripe-{lp_kib}")
        slots = region // (4 * KIB)

        def next_request(index: int):
            return (OpType.WRITE, rng.randrange(slots) * 4 * KIB, 4 * KIB)

        result = ClosedLoopDriver(sim, device, next_request,
                                  count=count, depth=2).run()
        rows.append(
            [
                lp_kib,
                device.stats.write_amplification,
                result.latency().mean_us / 1000.0,
            ]
        )
    return ExperimentResult(
        experiment_id="ablation-stripe",
        title="A2: logical page size vs random-write amplification",
        headers=["LogicalPageKiB", "WriteAmp", "MeanMs"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# A3 tier placement
# ---------------------------------------------------------------------------


def tier_placement(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """Hot-object read latency: OSD tier placement vs linear allocation."""
    n_hot = max(4, int(16 * scale))
    object_bytes = 256 * KIB
    reads_per_object = max(2, int(8 * scale))
    rows = []
    for policy_name in ("linear", "tiered"):
        sim = Simulator()
        device = tiered_slc_mlc(sim)
        placement = (
            TieredPlacement(device.capacity_bytes, device.tier_boundary)
            if policy_name == "tiered"
            else LinearPlacement(device.capacity_bytes)
        )
        store = ObjectStore(device, stripe_bytes=4 * KIB, placement=placement)
        # enough cold bulk data to overflow the SLC tier, so linear
        # allocation pushes the (later) hot objects into MLC
        n_cold = int(device.tier_boundary * 1.15 / object_bytes) + 1
        for _ in range(n_cold):
            oid = store.create(ObjectAttributes())
            store.write(oid, 0, object_bytes)
        hot = []
        for _ in range(n_hot):
            oid = store.create(ObjectAttributes(priority=1, tier="fast"))
            store.write(oid, 0, object_bytes)
            hot.append(oid)
        sim.run_until_idle()
        latencies = []
        for oid in hot:
            for _ in range(reads_per_object):
                start = sim.now
                done = []
                store.read(oid, 0, object_bytes,
                           done=lambda error: done.append(sim.now))
                sim.run_until_idle()
                latencies.append(done[0] - start)
        rows.append([policy_name, sum(latencies) / len(latencies) / 1000.0])
    return ExperimentResult(
        experiment_id="ablation-tier",
        title="A3: hot-object read latency on SLC+MLC device (ms)",
        headers=["Placement", "HotReadMs"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# A4 delete notifications
# ---------------------------------------------------------------------------


def osd_trim(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """File churn under three delete-notification regimes.

    The churn writes several times the device capacity so the uninformed
    baseline accumulates dead data and cleans hard.
    """
    churn = max(5000, int(6000 * scale))
    file_bytes = 32 * KIB
    rows = []
    for mode in ("block-fs", "pseudo-driver", "osd"):
        sim = Simulator()
        device = s4slc_sim(
            sim, element_mb=4, trim_enabled=(mode != "block-fs"),
            controller_overhead_us=5.0,
        )
        rng = stream(seed, f"osd-trim-{mode}")
        if mode == "osd":
            store = ObjectStore(device, stripe_bytes=4 * KIB)
            live = []
            for index in range(churn):
                if live and rng.random() < 0.5:
                    store.remove(live.pop(rng.randrange(len(live))))
                else:
                    oid = store.create()
                    store.write(oid, 0, file_bytes)
                    live.append(oid)
                if index % 32 == 0:
                    sim.run_until_idle()
        else:
            fs = BlockFilesystem(device, pseudo_driver=(mode == "pseudo-driver"))
            live = []
            for index in range(churn):
                if live and rng.random() < 0.5:
                    fs.delete(live.pop(rng.randrange(len(live))))
                else:
                    live.append(fs.create(file_bytes,
                                          group_hint=rng.randrange(8)))
                if index % 32 == 0:
                    sim.run_until_idle()
        sim.run_until_idle()
        stats = device.ftl.stats
        rows.append(
            [mode, stats.clean_pages_moved, stats.trimmed_pages,
             device.stats.write_amplification]
        )
    return ExperimentResult(
        experiment_id="ablation-trim",
        title="A4: delete notifications (none vs pseudo-driver vs OSD)",
        headers=["Mode", "CleanPagesMoved", "TrimmedPages", "WriteAmp"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# A5 wear leveling
# ---------------------------------------------------------------------------


def wear_leveling(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """Erase-count spread with and without static wear-leveling.

    A small hot set cycles a few blocks hard while the cold prefilled bulk
    pins its blocks at zero erases; static wear-leveling migrates the cold
    blocks into worn ones, bounding the spread.
    """
    count = max(12_000, int(24_000 * scale))
    rows = []
    for mode, wear in (
        ("dynamic-only", WearConfig(dynamic=True, static=False)),
        ("dynamic+static", WearConfig(dynamic=True, static=True,
                                      spread_threshold=4,
                                      check_every_erases=4)),
    ):
        sim = Simulator()
        config = SSDConfig(
            name=f"wear-{mode}",
            n_elements=2,
            geometry=FlashGeometry(pages_per_block=16, blocks_per_element=128),
            wear=wear,
            controller_overhead_us=2.0,
        )
        device = SSD(sim, config)
        prefill_pagemap(device.ftl, 0.85)
        region = int(device.capacity_bytes * 0.80)
        ClosedLoopDriver(
            sim, device,
            _skewed_writer(region, seed, hot_fraction=0.1, hot_weight=0.9),
            count=count, depth=2,
        ).run()
        summary = summarize_wear(device.ftl.elements)
        rows.append(
            [mode, summary.total_erases, summary.spread,
             device.ftl.stats.wear_migrations]
        )
    return ExperimentResult(
        experiment_id="ablation-wear",
        title="A5: erase-count spread with/without static wear-leveling",
        headers=["Mode", "TotalErases", "Spread", "Migrations"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# A6 FTL family
# ---------------------------------------------------------------------------


def ftl_family(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """Random 4 KB overwrites against the two FTL families on identical
    hardware: the page-mapped FTL absorbs them in its log, the block-mapped
    FTL pays a full stripe RMW every time."""
    from repro.ftl.prefill import prefill_stripe_ftl

    count = max(150, int(600 * scale))
    rows = []
    for ftl_type in ("pagemap", "blockmap"):
        sim = Simulator()
        config = SSDConfig(
            name=f"ftl-{ftl_type}",
            n_elements=4,
            geometry=FlashGeometry(pages_per_block=16, blocks_per_element=128),
            ftl_type=ftl_type,
            gang_size=4,
            spare_fraction=0.12,
            controller_overhead_us=5.0,
        )
        device = SSD(sim, config)
        if ftl_type == "pagemap":
            prefill_pagemap(device.ftl, 0.60)
        else:
            prefill_stripe_ftl(device.ftl, 0.60)
        region = int(device.capacity_bytes * 0.55)
        rng = stream(seed, f"ftl-family-{ftl_type}")
        slots = region // (4 * KIB)

        def next_request(index: int):
            return (OpType.WRITE, rng.randrange(slots) * 4 * KIB, 4 * KIB)

        result = ClosedLoopDriver(sim, device, next_request,
                                  count=count, depth=1).run()
        rows.append([
            ftl_type,
            result.latency().mean_us / 1000.0,
            device.stats.write_amplification,
            device.ftl.stats.clean_pages_moved + device.ftl.stats.rmw_pages_read,
        ])
    return ExperimentResult(
        experiment_id="ablation-ftl",
        title="A6: FTL family under random 4 KB overwrites",
        headers=["FTL", "MeanMs", "WriteAmp", "PagesMovedOrMerged"],
        rows=rows,
    )


ABLATIONS = {
    "cleaning_policy": cleaning_policy,
    "stripe_size": stripe_size,
    "tier_placement": tier_placement,
    "osd_trim": osd_trim,
    "wear_leveling": wear_leveling,
    "ftl_family": ftl_family,
}


def run(scale: float = 1.0, seed: int = 42):
    """Run every ablation; returns a list of results."""
    return [fn(scale=scale, seed=seed) for fn in ABLATIONS.values()]


def claims(result: ExperimentResult) -> List[Claim]:
    """The checks of one ablation's result, by its ``experiment_id``, at
    scale 0.4 (0.5 for :func:`ftl_family`); the paper gives no numbers."""
    rows = {row[0]: row for row in result.rows}
    kind = result.experiment_id
    if kind == "ablation-cleaning":
        return [check("a1_min_pages_moved",
                      min(rows["greedy"][1], rows["cost_benefit"][1]), ">", 0,
                      None, "both victim policies must reach cleaning")]
    if kind == "ablation-stripe":
        wa = result.column("WriteAmp")
        return [
            Claim("a2_write_amp", tuple(wa), None, "non-decreasing",
                  wa == sorted(wa), "a larger logical page amplifies more"),
            Claim("a2_write_amp_32k_over_4k", wa[-1] / wa[0], None, "> 3.6",
                  wa[-1] > 4 * wa[0] * 0.9,
                  "8x expected (WA doubles with the page); asks 4x less 10 %"),
        ]
    if kind == "ablation-tier":
        return [check("a3_tiered_hot_read_ms", rows["tiered"][1], "<",
                      rows["linear"][1], None, "hot objects stay on SLC")]
    if kind == "ablation-trim":
        moved = {mode: row[1] for mode, row in rows.items()}
        trimmed = {mode: row[2] for mode, row in rows.items()}
        dead = "the uninformed baseline drags dead data while cleaning"
        told = "an informed mode tells the device about dead data"
        return [
            check("a4_block_fs_moved_over_pseudo_driver", moved["block-fs"],
                  ">", moved["pseudo-driver"], None, dead),
            check("a4_block_fs_moved_over_osd", moved["block-fs"], ">",
                  moved["osd"], None, dead),
            check("a4_pseudo_driver_trimmed", trimmed["pseudo-driver"], ">",
                  0, None, told),
            check("a4_osd_trimmed", trimmed["osd"], ">", 0, None, told),
            check("a4_block_fs_trimmed", trimmed["block-fs"], "==", 0, None,
                  "a plain block file system sends no FREE"),
        ]
    if kind == "ablation-ftl":
        order = ("pagemap", "blockmap")
        mean_ms = tuple(rows[f][1] for f in order)
        wa = tuple(rows[f][2] for f in order)
        why = "Table 2's mechanism: page map < stripe RMW"
        return [
            Claim("a6_mean_ms_page_block", mean_ms, None, "increasing",
                  mean_ms[0] < mean_ms[1], why),
            Claim("a6_write_amp_page_block", wa, None, "increasing",
                  wa[0] < wa[1], why),
        ]
    if kind == "ablation-wear":
        dynamic, static = rows["dynamic-only"], rows["dynamic+static"]
        return [
            check("a5_static_migrations", static[3], ">", 0, None,
                  "static wear-leveling migrates cold blocks"),
            check("a5_static_spread", static[2], "<=", dynamic[2], None,
                  "migrations bound the erase-count spread"),
        ]
    raise ValueError(f"no claims for {kind!r}")
