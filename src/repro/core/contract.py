"""The unwritten-contract probe suite (Table 1).

Six system-level assumptions, each turned into a measurement against the
device models; verdicts are derived from the measurements, printed next to
the paper's stated verdicts:

1. *Sequential accesses are much better than random* — seq/random bandwidth
   ratio (T when ≥ 2x).
2. *Distant LBNs lead to longer seek times* — Spearman correlation of
   second-read latency against LBN distance (T when ρ ≥ 0.5).
3. *LBN spaces can be interchanged* — sequential bandwidth at the bottom vs
   top of the address space (T when within 15%).
4. *No write amplification* — media-bytes-written per host byte under
   random 4 KB writes (T when ≤ 1.3).
5. *Media does not wear down* — erase-cycle accounting after write churn
   (T when the medium tracks no bounded-cycle wear).
6. *Devices are passive* — media work not attributable to host requests
   after a churn phase (T when none; "y" when only time-shifted host data,
   e.g. a disk's write-back drain).

Per the paper's own per-term reasons, the SSD column probes the device
variant each reason names: the plain page-mapped SSD for terms 1/2/5/6,
the heterogeneous SLC+MLC device for term 3 ("integration of SLC and MLC
memory"), and the striped-logical-page gang for term 4 ("ganging,
striping, larger logical pages").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, List, Optional, Tuple

from repro.device.interface import IORequest, OpType
from repro.device.presets import (
    hdd_barracuda,
    mems_store,
    s4slc_sim,
    table3_gang_ssd,
    tiered_slc_mlc,
)
from repro.array.raid import RAID5, RAID5Config
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap
from repro.hdd.disk import HDD
from repro.sim.engine import Simulator
from repro.sim.rng import stream
from repro.units import KIB, MIB
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.microbench import measure_bandwidth

__all__ = ["TermVerdict", "ContractReport", "evaluate_contract", "TERMS",
           "PAPER_VERDICTS", "COLUMNS"]

TERMS = {
    1: "Sequential accesses are much better than random accesses",
    2: "Distant LBNs lead to longer seek times",
    3: "LBN spaces can be interchanged",
    4: "Data written is equal to data issued (no write amplification)",
    5: "Media does not wear down",
    6: "Storage devices are passive with little background activity",
}

#: the paper's Table 1, columns (disk, raid, mems, ssd); "y" = approximately T
PAPER_VERDICTS = {
    1: ("T", "T", "T", "F"),
    2: ("y", "F", "T", "F"),
    3: ("F", "F", "T", "F"),
    4: ("T", "F", "T", "F"),
    5: ("T", "T", "T", "F"),
    6: ("y", "F", "T", "F"),
}

COLUMNS = ("disk", "raid", "mems", "ssd")


@dataclass(frozen=True)
class TermVerdict:
    term: int
    column: str
    verdict: str
    paper_verdict: str
    evidence: str

    @property
    def matches_paper(self) -> bool:
        # "y" counts as agreeing with either T-with-caveat measurement
        return self.verdict == self.paper_verdict or {
            self.verdict, self.paper_verdict
        } == {"T", "y"}


@dataclass
class ContractReport:
    verdicts: List[TermVerdict]

    def verdict(self, term: int, column: str) -> TermVerdict:
        for entry in self.verdicts:
            if entry.term == term and entry.column == column:
                return entry
        raise KeyError((term, column))

    def agreement(self) -> float:
        """Fraction of cells where measurement agrees with the paper."""
        return sum(v.matches_paper for v in self.verdicts) / len(self.verdicts)


# ---------------------------------------------------------------------------
# device factories per column
# ---------------------------------------------------------------------------


def _make_disk() -> Tuple[Simulator, object]:
    sim = Simulator()
    return sim, hdd_barracuda(sim)


def _make_raid() -> Tuple[Simulator, object]:
    sim = Simulator()
    return sim, RAID5(sim, RAID5Config())


def _make_raid_scrubbing() -> Tuple[Simulator, object]:
    """Term 6 probes the array's self-initiated work (background scrub)."""
    sim = Simulator()
    return sim, RAID5(sim, RAID5Config(scrub_interval_us=20_000.0))


def _make_mems() -> Tuple[Simulator, object]:
    sim = Simulator()
    return sim, mems_store(sim)


def _make_ssd() -> Tuple[Simulator, object]:
    sim = Simulator()
    device = s4slc_sim(sim)
    # aged to cleaning steady state (free pages near the low watermark)
    prefill_pagemap(device.ftl, 0.90, overwrite_fraction=0.30)
    return sim, device


def _make_ssd_tiered() -> Tuple[Simulator, object]:
    sim = Simulator()
    device = tiered_slc_mlc(sim)
    prefill_pagemap(device.slc.ftl, 0.7)
    prefill_pagemap(device.mlc.ftl, 0.7)
    return sim, device


def _make_ssd_gang() -> Tuple[Simulator, object]:
    sim = Simulator()
    device = table3_gang_ssd(sim, element_mb=32)
    prefill_pagemap(device.ftl, 0.70, overwrite_fraction=0.10)
    return sim, device


_FACTORIES: dict = {
    "disk": {term: _make_disk for term in TERMS},
    "raid": {
        1: _make_raid,
        2: _make_raid,
        3: _make_raid,
        4: _make_raid,
        5: _make_raid,
        6: _make_raid_scrubbing,
    },
    "mems": {term: _make_mems for term in TERMS},
    "ssd": {
        1: _make_ssd,
        2: _make_ssd,
        3: _make_ssd_tiered,
        4: _make_ssd_gang,
        5: _make_ssd,
        6: _make_ssd,
    },
}


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _region_for(device) -> int:
    return int(device.capacity_bytes * 0.6)


def _probe_term1(make: Callable) -> Tuple[str, str]:
    """Same-size (4 KB) sequential vs random accesses: the term is about
    the *pattern*, so the request size must not change between probes."""
    ratios = []
    for op in (OpType.READ, OpType.WRITE):
        values = {}
        for pattern in ("seq", "rand"):
            sim, device = make()
            result = measure_bandwidth(
                sim, device, op, pattern,
                request_bytes=4 * KIB,
                region_bytes=_region_for(device), count=48, depth=1,
            )
            values[pattern] = result.mb_per_s
        ratios.append(values["seq"] / max(values["rand"], 1e-9))
    verdict = "T" if max(ratios) >= 2.0 else "F"
    return verdict, f"seq/rand ratio read={ratios[0]:.1f} write={ratios[1]:.1f}"


def _spearman(xs: List[float], ys: List[float]) -> float:
    """Spearman's rank correlation.  Ties share their average rank (as
    scipy defines it), and a constant side (the SSD's flat latencies)
    scores 0.0: no correlation, not an error."""

    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        start = 0
        for _, group in groupby(order, key=values.__getitem__):
            tied = list(group)
            for index in tied:
                out[index] = start + (len(tied) - 1) / 2
            start += len(tied)
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return num / den if den else 0.0


def _probe_term2(make: Callable, seed: int = 11) -> Tuple[str, str]:
    """Second-read latency vs LBN distance, log-spaced distances."""
    sim, device = make()
    region = _region_for(device)
    rng = stream(seed, "distance-bases")
    distances: List[float] = []
    latencies: List[float] = []
    n_steps = 12
    for step in range(n_steps):
        distance = int(8 * KIB * (region / (16 * KIB)) ** (step / (n_steps - 1)))
        distance -= distance % 4096
        for _ in range(4):
            base = rng.randrange(max(1, (region - distance) // 4096)) * 4096
            for offset in (base, base + distance):
                done: List[IORequest] = []
                device.submit(
                    IORequest(OpType.READ, offset, 4096, on_complete=done.append)
                )
                sim.run_until_idle()
                latency = done[0].response_us
            distances.append(float(distance))
            latencies.append(latency)  # latency of the *second* read
    rho = _spearman(distances, latencies)
    verdict = "T" if rho >= 0.5 else "F"
    return verdict, f"Spearman(latency, distance)={rho:.2f}"


def _probe_term3(make: Callable) -> Tuple[str, str]:
    """Streaming bandwidth at the bottom vs the top of the address space.
    Large (1 MB) requests make the probe transfer-dominated, which is where
    zoned recording (and SLC/MLC splits) show."""
    rates = []
    for where in ("low", "high"):
        sim, device = make()
        region = device.capacity_bytes
        span = max(int(region * 0.10), 2 * MIB)
        start = 0 if where == "low" else region - span

        def next_request(index: int, base=start, limit=span):
            offset = base + (index * MIB) % (limit - MIB)
            return (OpType.READ, offset - offset % 4096, MIB)

        result = ClosedLoopDriver(sim, device, next_request, count=16, depth=1).run()
        rates.append(result.bandwidth_mb_s())
    ratio = max(rates) / max(min(rates), 1e-12)
    verdict = "T" if ratio <= 1.15 else "F"
    return verdict, f"low/high address-space bandwidth ratio={ratio:.2f}"


def _probe_term4(make: Callable, seed: int = 13) -> Tuple[str, str]:
    sim, device = make()
    region = _region_for(device)
    rng = stream(seed, "wa-addresses")
    slots = region // (4 * KIB)
    base_media = device.stats.media_bytes_written
    base_host = device.stats.bytes_written

    def next_request(index: int):
        return (OpType.WRITE, rng.randrange(slots) * 4 * KIB, 4 * KIB)

    ClosedLoopDriver(sim, device, next_request, count=64, depth=1).run()
    host = device.stats.bytes_written - base_host
    media = device.stats.media_bytes_written - base_media
    factor = media / host if host else 1.0
    verdict = "T" if factor <= 1.3 else "F"
    return verdict, f"write amplification={factor:.2f}"


def _churn(sim: Simulator, device, seed: int = 17, count: int = 1200) -> None:
    rng = stream(seed, "churn")
    region = _region_for(device)
    slots = region // (4 * KIB)

    def next_request(index: int):
        return (OpType.WRITE, rng.randrange(slots) * 4 * KIB, 4 * KIB)

    ClosedLoopDriver(sim, device, next_request, count=count, depth=2).run()


def _probe_term5(make: Callable) -> Tuple[str, str]:
    sim, device = make()
    _churn(sim, device)
    ftl = getattr(device, "ftl", None)
    if ftl is None:
        return "T", "medium has no bounded erase-cycle wear model"
    total_erases = sum(int(el.erase_count.sum()) for el in ftl.elements)
    rated = ftl.elements[0].timing.erase_cycles
    return "F", f"{total_erases} block erases during churn (rated life {rated} cycles)"


def _probe_term6(make: Callable) -> Tuple[str, str]:
    sim, device = make()
    _churn(sim, device)
    sim.run_until_idle()
    ftl = getattr(device, "ftl", None)
    if ftl is not None:
        moved = ftl.stats.clean_pages_moved + ftl.stats.wear_pages_moved
        erases = ftl.stats.clean_erases
        if moved + erases > 0:
            return "F", f"cleaning moved {moved} pages, {erases} erases"
        return "T", "no background page movement observed"
    if hasattr(device, "scrub_reads"):
        if device.scrub_reads > 0:
            return "F", f"{device.scrub_reads} background scrub reads"
        return "T", "no scrub activity"
    if isinstance(device, HDD):
        return "y", "write-back drain time-shifts host data (no self-initiated work)"
    return "T", "device only acts on host requests"


_PROBES = {
    1: _probe_term1,
    2: _probe_term2,
    3: _probe_term3,
    4: _probe_term4,
    5: _probe_term5,
    6: _probe_term6,
}


# ---------------------------------------------------------------------------


def evaluate_contract(
    columns: Tuple[str, ...] = COLUMNS,
    terms: Optional[List[int]] = None,
) -> ContractReport:
    """Run the probe suite; returns measured verdicts with evidence."""
    verdicts: List[TermVerdict] = []
    for term in terms if terms is not None else sorted(TERMS):
        probe = _PROBES[term]
        for column in columns:
            make = _FACTORIES[column][term]
            verdict, evidence = probe(make)
            paper = PAPER_VERDICTS[term][COLUMNS.index(column)]
            verdicts.append(
                TermVerdict(
                    term=term,
                    column=column,
                    verdict=verdict,
                    paper_verdict=paper,
                    evidence=evidence,
                )
            )
    return ContractReport(verdicts)
