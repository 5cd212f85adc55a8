"""Table 2 — Ratio of Sequential to Random Bandwidth.

Paper: :data:`PAPER_TABLE2`.

What must reproduce (the paper's argument, §3.1): the HDD's
sequential/random gap is two orders of magnitude; SSD *read* ratios are
single-digit; page-mapped SSDs (S1/S4/S5) keep write ratios low; block-
mapped SSDs (S2/S3) have random-write bandwidth *worse than the HDD's*.
Absolute numbers depend on proprietary controller details the presets in
:mod:`repro.device.presets` approximate.

Probe parameters per device mirror how such devices are benchmarked:
streaming requests for sequential, 4 KB for random; S4 follows the paper's
simulator setup (4 KB ops, shallow queue).  Devices are aged first
(prefill + scattered invalid pages) so FTL effects show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench.tables import Claim, ExperimentResult, check
from repro.device.interface import OpType
from repro.device.presets import PRESET_BUILDERS
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap, prefill_stripe_ftl
from repro.sim.engine import Simulator
from repro.units import KIB, MIB
from repro.workloads.microbench import measure_bandwidth, prepare_region

__all__ = ["run", "claims", "PAPER_TABLE2", "ProbeParams"]

#: device -> MB/s of sequential read, random read, their ratio, and the
#: same three for writes
PAPER_TABLE2 = {
    "HDD": (86.2, 0.6, 143.7, 86.8, 1.3, 66.8),
    "S1slc": (205.6, 18.7, 11.0, 169.4, 53.8, 3.1),
    "S2slc": (40.3, 4.4, 9.2, 32.8, 0.1, 328.0),
    "S3slc": (72.5, 29.9, 2.4, 75.8, 0.5, 151.6),
    "S4slc_sim": (30.5, 29.1, 1.1, 24.4, 18.4, 1.3),
    "S5mlc": (68.3, 21.3, 3.2, 22.5, 15.3, 1.5),
}


@dataclass(frozen=True)
class Probe:
    """One probe: request size, queue depth, request count."""

    nbytes: int
    depth: int
    count: int


@dataclass(frozen=True)
class ProbeParams:
    """Probe settings per (op, pattern) for one device.

    Streaming (1 MB, depth 2) for sequential, 4 KB for random — except
    S4slc_sim, which follows the paper's own simulator setup (4 KB ops,
    shallow queue), and devices whose random-write RMW makes each request
    tens of milliseconds (fewer samples keep the sweep fast).
    """

    seq_read: Probe = Probe(MIB, 2, 48)
    rand_read: Probe = Probe(4 * KIB, 1, 160)
    seq_write: Probe = Probe(MIB, 2, 48)
    rand_write: Probe = Probe(4 * KIB, 1, 160)


PROBES = {
    "HDD": ProbeParams(),
    "S1slc": ProbeParams(rand_write=Probe(4 * KIB, 1, 400)),
    "S2slc": ProbeParams(rand_write=Probe(4 * KIB, 1, 16)),
    "S3slc": ProbeParams(rand_write=Probe(4 * KIB, 1, 64)),
    "S4slc_sim": ProbeParams(
        seq_read=Probe(4 * KIB, 1, 400),
        rand_read=Probe(4 * KIB, 1, 400),
        seq_write=Probe(4 * KIB, 2, 400),
        rand_write=Probe(4 * KIB, 2, 400),
    ),
    "S5mlc": ProbeParams(seq_write=Probe(MIB, 1, 48),
                         rand_write=Probe(4 * KIB, 4, 240)),
}


def _age_device(sim: Simulator, device) -> int:
    """Fill the device so reads hit live data and writes contend with old
    mappings; returns the usable probe region size."""
    if hasattr(device, "ftl"):
        if isinstance(device.ftl, PageMappedFTL):
            # moderately aged: scattered invalid pages, occasional cleaning
            prefill_pagemap(device.ftl, 0.70, overwrite_fraction=0.15)
            return int(device.capacity_bytes * 0.65)
        prefill_stripe_ftl(device.ftl, 0.70)
        return int(device.capacity_bytes * 0.65)
    region = min(device.capacity_bytes, 256 * MIB)
    prepare_region(sim, device, region)
    return region


def _probe_device(name: str, scale: float) -> tuple:
    params = PROBES.get(name, ProbeParams())
    values = {}
    for op, pattern, probe in (
        (OpType.READ, "seq", params.seq_read),
        (OpType.READ, "rand", params.rand_read),
        (OpType.WRITE, "seq", params.seq_write),
        (OpType.WRITE, "rand", params.rand_write),
    ):
        sim = Simulator()
        device = PRESET_BUILDERS[name](sim)
        region = _age_device(sim, device)
        count = max(8, int(probe.count * scale))
        result = measure_bandwidth(
            sim, device, op, pattern, probe.nbytes, region,
            count=count, depth=probe.depth,
        )
        values[(op, pattern)] = result.mb_per_s
    seq_r = values[(OpType.READ, "seq")]
    rand_r = values[(OpType.READ, "rand")]
    seq_w = values[(OpType.WRITE, "seq")]
    rand_w = values[(OpType.WRITE, "rand")]
    return (
        seq_r,
        rand_r,
        seq_r / rand_r if rand_r else float("inf"),
        seq_w,
        rand_w,
        seq_w / rand_w if rand_w else float("inf"),
    )


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """Regenerate Table 2 over the preset device zoo."""
    headers = ["Device", "SeqRd", "RandRd", "RdRatio", "SeqWr", "RandWr", "WrRatio"]
    rows = []
    for name in PAPER_TABLE2:
        rows.append([name, *_probe_device(name, scale)])
    return ExperimentResult(
        experiment_id="table2",
        title="Ratio of Sequential to Random Bandwidth (MB/s)",
        headers=headers,
        rows=rows,
    )


def claims(result: ExperimentResult) -> List[Claim]:
    """The §3.1 argument, from a run at scale 0.5."""
    rows = {row[0]: row for row in result.rows}

    def cell(name, device, column, op, bound, why):
        # a result row is the device name, then PAPER_TABLE2's columns
        return check(name, rows[device][column], op, bound,
                     PAPER_TABLE2[device][column - 1], why)

    page_mapped = ("S1slc", "S4slc_sim", "S5mlc")
    return [
        cell("hdd_read_ratio", "HDD", 3, ">", 30,
             "two orders of magnitude in the paper; 30 still makes the point"),
        cell("hdd_write_ratio", "HDD", 6, ">", 10,
             "an order of magnitude: the HDD's write cache narrows its gap"),
        check("page_mapped_read_ratio_max",
              max(rows[n][3] for n in page_mapped), "<", 20,
              max(PAPER_TABLE2[n][2] for n in page_mapped),
              "up to 11 in the paper; 20 admits half-scale sample counts"),
        cell("s4_read_ratio", "S4slc_sim", 3, "<", 2.0,
             "the paper's near-1 ratio for its own simulated SSD"),
        cell("s4_write_ratio", "S4slc_sim", 6, "<", 2.0, "as s4_read_ratio"),
        cell("s2_random_write_below_hdd", "S2slc", 5, "<", rows["HDD"][5],
             "the paper's headline anomaly, against the HDD measured here"),
        cell("s2_write_ratio", "S2slc", 6, ">", 100,
             "one stripe RMW per 4 KB write keeps it in the hundreds"),
        cell("s3_write_ratio", "S3slc", 6, ">", 20,
             "S3's 16 MB cache absorbs some of the random writes"),
    ]
