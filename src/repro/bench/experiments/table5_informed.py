"""Table 5 — Improved Cleaning with Free-Page Information.

Paper: :data:`PAPER_TABLE5`, relative to the default SSD (which never
learns about deletes) at each of :data:`TRANSACTION_POINTS`.

"The traces were collected by running the Postmark benchmark on a
pseudo-device driver that uses Linux Ext3 knowledge to identify the free
sectors.  The SSD simulator was modified such that the cleaning and
wear-leveling logic disregard the flash pages corresponding to the free
logical pages."

Here: a Postmark trace with FREE records replays against the same
page-mapped SSD twice — ``trim_enabled=False`` (default: FREEs ignored, the
cleaner drags dead file data forever) vs ``trim_enabled=True`` (informed).
The device is the paper's 8 GB scaled 256x down, but utilization matches:
the file volume nearly fills the device, so the default device converges
to ~full and cleans hard.
"""

from __future__ import annotations

from typing import List

from repro.bench.tables import Claim, ExperimentResult, check, near
from repro.device.presets import s4slc_sim
from repro.sim.engine import Simulator
from repro.traces.postmark import PostmarkConfig, generate_postmark
from repro.units import MIB
from repro.workloads.driver import replay_trace

__all__ = ["run", "claims", "PAPER_TABLE5", "TRANSACTION_POINTS"]

TRANSACTION_POINTS = (5000, 6000, 7000, 8000)

PAPER_TABLE5 = {
    "relative_pages_moved": (0.31, 0.25, 0.35, 0.50),
    "relative_cleaning_time": (0.69, 0.60, 0.63, 0.69),
}


def _run_once(transactions: int, informed: bool, seed: int):
    sim = Simulator()
    device = s4slc_sim(
        sim,
        element_mb=4,  # 32 MB device: the paper's 8 GB, scaled 256x
        trim_enabled=informed,
        controller_overhead_us=5.0,
        max_inflight=16,
    )
    # the file volume nearly fills the device and the initial pool nearly
    # fills the volume, as a live mail spool would
    volume = int(device.capacity_bytes * 0.97 // MIB * MIB)
    trace = generate_postmark(
        PostmarkConfig(
            volume_bytes=volume,
            initial_files=520,
            transactions=transactions,
            min_file_bytes=4096,
            max_file_bytes=64 * 1024,
            interarrival_us=250.0,
            seed=seed,
        )
    )
    replay_trace(sim, device, trace)
    stats = device.ftl.stats
    busy = sum(el.busy_us() for el in device.elements)
    return stats.clean_pages_moved, stats.clean_time_us, busy


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    rows = []
    for transactions in TRANSACTION_POINTS:
        scaled = max(500, int(transactions * scale))
        moved_default, time_default, busy_default = _run_once(scaled, False, seed)
        moved_informed, time_informed, busy_informed = _run_once(scaled, True, seed)
        rel_moved = moved_informed / moved_default if moved_default else 0.0
        rel_time = time_informed / time_default if time_default else 0.0
        busy_gain = (busy_default - busy_informed) / busy_default * 100.0 \
            if busy_default else 0.0
        rows.append(
            [
                transactions,
                moved_default,
                moved_informed,
                rel_moved,
                rel_time,
                busy_gain,
            ]
        )
    return ExperimentResult(
        experiment_id="table5",
        title="Informed cleaning vs default (relative pages moved / time)",
        headers=[
            "Transactions",
            "MovedDefault",
            "MovedInformed",
            "RelPagesMoved",
            "RelCleanTime",
            "DeviceBusyGain%",
        ],
        rows=rows,
    )


def claims(result: ExperimentResult) -> List[Claim]:
    """Informed cleaning's savings, from a run at scale 1.0."""
    moved = result.column("MovedDefault")
    rel_moved = result.column("RelPagesMoved")
    paper_moved = PAPER_TABLE5["relative_pages_moved"]
    return [
        check("default_min_pages_moved", min(moved), ">", 0, None,
              "the uninformed device must clean at every point"),
        check("rel_pages_moved_max", max(rel_moved), "<", 0.7,
              max(paper_moved), "0.31-0.50 in the paper; 0.7 is still "
              "well under the default's pages"),
        check("rel_clean_time_max", max(result.column("RelCleanTime")), "<",
              0.8, max(PAPER_TABLE5["relative_cleaning_time"]),
              "0.60-0.69 in the paper; 0.8 is still a clear saving"),
        Claim("default_pages_moved", tuple(moved), None, "non-decreasing",
              moved == sorted(moved), "more transactions, more cleaning"),
        *(near(f"rel_pages_moved_at_{n}", measured, paper,
               "unexplained: falling here, rising from 6000 in the paper; "
               "a synthetic Postmark stands in for the paper's ext3 trace")
          for n, measured, paper
          in zip(TRANSACTION_POINTS, rel_moved, paper_moved)),
    ]
