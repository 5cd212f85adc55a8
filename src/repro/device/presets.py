"""The paper's device zoo as simulator presets.

Table 2 measures one HDD and five SSDs.  The real SSDs were anonymized
engineering samples, so these presets recreate each *class* of device from
its published behaviour; the controller details the paper does not give are
approximated, so Table 2's shape reproduces rather than its exact numbers:

=========  =====================================================================
S1slc      high-end SLC: wide internal parallelism, page-mapped FTL.  Fast
           everywhere; random writes a few times slower than sequential
           (cleaning overhead), ratio ≈ 3.
S2slc      low-end SLC: block-mapped FTL, one gang, 1 MB stripe, no cache.
           Random 4 KB writes trigger full-stripe read-modify-erase-write —
           worse than an HDD (paper: 0.1 MB/s, ratio 328).  Source of the
           Figure 2 saw-tooth.
S3slc      S2-class device plus a 16 MB volatile write-back cache that acks
           fast but drains at RMW speed, so sustained random writes stay
           terrible (paper: 0.5 MB/s).
S4slc_sim  the paper's simulated SSD (Agrawal-style): 8-element page-mapped
           log-structured FTL; sequential ≈ random (ratios 1.1 / 1.3).
S5mlc      mid-range MLC: page-mapped but slow MLC programs; modest ratios.
=========  =====================================================================

Capacities default to a few hundred MB so experiments run in seconds; the
``element_mb`` knob scales them (the paper's behaviours are capacity-
independent at fixed utilization).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.device.tiered import TieredSSD
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.cleaning import CleaningConfig
from repro.hdd.disk import HDD, HDDConfig
from repro.mems.device import MEMSStore
from repro.sim.engine import Simulator
from repro.units import GIB, KIB, MIB

__all__ = [
    "s1slc",
    "s2slc",
    "s3slc",
    "s4slc_sim",
    "s5mlc",
    "hdd_barracuda",
    "mems_store",
    "tiered_slc_mlc",
    "table3_gang_ssd",
    "PRESET_BUILDERS",
]


def _geometry(element_mb: int, pages_per_block: int = 64) -> FlashGeometry:
    return FlashGeometry.with_capacity(
        element_mb * MIB, page_bytes=4096, pages_per_block=pages_per_block
    )


def s1slc(sim: Simulator, element_mb: int = 32, **overrides) -> SSD:
    """High-end SLC engineering sample: 16 channels, page-mapped FTL, and a
    small volatile write cache that acknowledges writes on insertion (which
    is how the real sample sustains 54 MB/s of random 4 KB writes — far
    beyond one serial flash program per request)."""
    config = replace(SSDConfig(
        name="S1slc",
        n_elements=16,
        geometry=_geometry(element_mb),
        timing=FlashTiming.slc().scaled(bus_mb_per_s=25.0),
        ftl_type="pagemap",
        spare_fraction=0.10,
        controller_overhead_us=60.0,
        host_interface_mb_s=220.0,
        max_inflight=32,
        write_buffer="align",
        buffer_capacity_bytes=8 * MIB,
        buffer_window_us=5000.0,
        buffer_page_bytes=4 * KIB,
    ), **overrides)
    return SSD(sim, config)


def s2slc(sim: Simulator, element_mb: int = 32, **overrides) -> SSD:
    """Low-end SLC: block-mapped, 1 MB stripe over a gang of 8, no cache."""
    config = replace(SSDConfig(
        name="S2slc",
        n_elements=8,
        # 32 pages/block * 4 KB * 8 elements = the paper's 1 MB stripe
        geometry=_geometry(element_mb, pages_per_block=32),
        # the gang shares one 40 MB/s bus (§3.4: "striping the logical page
        # across a gang of flash packages that share the buses"); dividing
        # the per-element bus by the gang size is timing-equivalent for
        # whole-stripe transfers and models the contention for single pages
        timing=FlashTiming.slc().scaled(bus_mb_per_s=40.0 / 8),
        ftl_type="blockmap",
        gang_size=8,
        spare_fraction=0.06,
        controller_overhead_us=50.0,
        host_interface_mb_s=70.0,
        max_inflight=8,
    ), **overrides)
    return SSD(sim, config)


def s3slc(sim: Simulator, element_mb: int = 32, **overrides) -> SSD:
    """S2-class device behind a 16 MB volatile write-back cache."""
    config = replace(SSDConfig(
        name="S3slc",
        n_elements=8,
        # smaller gangs (2 packages, 256 KB stripes) and a faster bus than
        # S2: a slightly better low-end part, still block-mapped
        geometry=_geometry(element_mb, pages_per_block=32),
        timing=FlashTiming.slc().scaled(bus_mb_per_s=100.0 / 2),
        ftl_type="blockmap",
        gang_size=2,
        spare_fraction=0.06,
        controller_overhead_us=20.0,
        host_interface_mb_s=80.0,
        max_inflight=16,
        write_buffer="align",
        buffer_capacity_bytes=16 * MIB,
        buffer_window_us=20_000.0,
    ), **overrides)
    return SSD(sim, config)


def s4slc_sim(sim: Simulator, element_mb: int = 32, **overrides) -> SSD:
    """The paper's simulated SSD: 8-element page-mapped log-structured FTL."""
    config = replace(SSDConfig(
        name="S4slc_sim",
        n_elements=8,
        geometry=_geometry(element_mb),
        timing=FlashTiming.slc(),
        ftl_type="pagemap",
        spare_fraction=0.10,
        controller_overhead_us=2.0,
        host_interface_mb_s=1000.0,
        max_inflight=2,
    ), **overrides)
    return SSD(sim, config)


def s5mlc(sim: Simulator, element_mb: int = 32, **overrides) -> SSD:
    """Mid-range MLC: page-mapped, slow MLC programs/erases."""
    config = replace(SSDConfig(
        name="S5mlc",
        n_elements=8,
        geometry=_geometry(element_mb),
        timing=FlashTiming.mlc(),
        ftl_type="pagemap",
        spare_fraction=0.08,
        controller_overhead_us=20.0,
        host_interface_mb_s=70.0,
        max_inflight=8,
    ), **overrides)
    return SSD(sim, config)


def hdd_barracuda(sim: Simulator, capacity_bytes: int = 4 * GIB, **overrides) -> HDD:
    """Seagate Barracuda 7200.11-class disk (scaled capacity)."""
    config = HDDConfig(name="HDD", capacity_bytes=capacity_bytes)
    if overrides:
        config = replace(config, **overrides)
    return HDD(sim, config)


def mems_store(sim: Simulator) -> MEMSStore:
    return MEMSStore(sim)


def tiered_slc_mlc(
    sim: Simulator,
    slc_element_mb: int = 16,
    mlc_element_mb: int = 48,
    trim_enabled: bool = False,
) -> TieredSSD:
    """Heterogeneous SLC+MLC device (§3.3): a fast small tier in front of a
    dense slow tier, one linear address space."""
    slc = SSDConfig(
        name="tier-slc",
        n_elements=4,
        geometry=_geometry(slc_element_mb),
        timing=FlashTiming.slc(),
        ftl_type="pagemap",
        controller_overhead_us=5.0,
        trim_enabled=trim_enabled,
    )
    mlc = SSDConfig(
        name="tier-mlc",
        n_elements=4,
        geometry=_geometry(mlc_element_mb),
        timing=FlashTiming.mlc(),
        ftl_type="pagemap",
        controller_overhead_us=5.0,
        trim_enabled=trim_enabled,
    )
    return TieredSSD(sim, slc, mlc)


def table3_gang_ssd(
    sim: Simulator,
    element_mb: int = 64,
    aligned: bool = False,
    cleaning: Optional[CleaningConfig] = None,
    **overrides,
) -> SSD:
    """The §3.4 experiment device: one gang of eight packages with a single
    32 KB logical page spanning all of them (paper: 32 GB / eight 4 GB
    packages; scaled here).  The gang shares its bus (modelled by dividing
    per-element bus bandwidth by the gang size).  ``aligned`` selects the
    queue-merging write scheme of Table 3."""
    config = replace(SSDConfig(
        name="gang32k" + ("-aligned" if aligned else "-unaligned"),
        n_elements=8,
        geometry=_geometry(element_mb),
        timing=FlashTiming.slc().scaled(bus_mb_per_s=40.0 / 8),
        ftl_type="pagemap",
        logical_page_bytes=32 * KIB,
        spare_fraction=0.10,
        cleaning=cleaning if cleaning is not None else CleaningConfig(),
        controller_overhead_us=10.0,
        host_interface_mb_s=250.0,
        max_inflight=4,
        write_buffer="queue-merge" if aligned else "passthrough",
    ), **overrides)
    return SSD(sim, config)


#: name -> builder for the Table 2 sweep
PRESET_BUILDERS = {
    "HDD": lambda sim, **kw: hdd_barracuda(sim),
    "S1slc": s1slc,
    "S2slc": s2slc,
    "S3slc": s3slc,
    "S4slc_sim": s4slc_sim,
    "S5mlc": s5mlc,
}
