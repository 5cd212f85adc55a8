"""Figure 3 + Table 6 — Priority-Aware Cleaning.

Paper: "We modified the cleaning logic of our SSD simulator to be aware of
request priorities.  If there are no outstanding priority requests,
cleaning starts when the number of free pages falls below a low threshold.
However, if there are priority requests, cleaning is postponed until the
number of free pages falls below a critical threshold. ... We evaluated a
32 GB SSD using synthetic benchmarks with request inter-arrival times
uniformly distributed between 0 and 0.1 ms.  The fraction of priority
requests was set to 10%; critical and low thresholds were fixed at 2% and
5% of free pages."

Table 6 (:data:`PAPER_TABLE6`) is the foreground response-time
improvement (%) at each write share.  Figure 3 plots the four series
(foreground/background x aware/agnostic).  Expected shape: foreground
improves ~10% once cleaning is frequent (writes >= 40%), background pays
for it; at 20% writes cleaning is rare and nothing changes.
"""

from __future__ import annotations

from typing import List

from repro.bench.tables import Claim, ExperimentResult, check, near
from repro.device.presets import s4slc_sim
from repro.flash.geometry import FlashGeometry
from repro.ftl.cleaning import CleaningConfig
from repro.ftl.prefill import prefill_pagemap
from repro.sim.engine import Simulator
from repro.traces.synthetic import SyntheticConfig, generate_synthetic
from repro.workloads.driver import replay_trace

__all__ = ["run", "claims", "figure3_claims", "WRITE_POINTS", "PAPER_TABLE6"]

WRITE_POINTS = (20, 40, 50, 60, 80)

PAPER_TABLE6 = {20: 0.0, 40: 9.56, 50: 10.27, 60: 9.61, 80: 9.47}


def _run_once(write_pct: int, priority_aware: bool, count: int, warmup: int,
              seed: int):
    sim = Simulator()
    # elements large enough that the 2% critical watermark clears the
    # allocation reserve (trivially true on the paper's 32 GB device;
    # at simulation scale it needs 32 MB elements)
    device = s4slc_sim(
        sim,
        element_mb=32,
        n_elements=16,
        geometry=FlashGeometry(
            page_bytes=4096, pages_per_block=32, blocks_per_element=256
        ),
        controller_overhead_us=5.0,
        max_inflight=32,
        cleaning=CleaningConfig(
            low_watermark=0.05,
            critical_watermark=0.02,
            priority_aware=priority_aware,
            batch_pages=4,  # cleaning yields to the gate between batches
        ),
    )
    prefill_pagemap(device.ftl, 0.72, overwrite_fraction=0.40)
    trace = generate_synthetic(
        SyntheticConfig(
            count=warmup + count,
            region_bytes=int(device.capacity_bytes * 0.68),
            request_bytes=4096,
            read_fraction=1.0 - write_pct / 100.0,
            seq_probability=0.0,
            interarrival_max_us=100.0,  # the paper's U(0, 0.1 ms)
            priority_fraction=0.10,
            seed=seed,
        )
    )
    # measure only past the warmup boundary: the device must reach cleaning
    # steady state before the schemes are compared
    boundary = trace[warmup].time_us if warmup < len(trace) else 0.0
    result = replay_trace(sim, device, trace)
    fg = [c.response_us for c in result.completions
          if c.submit_us >= boundary and c.priority > 0]
    bg = [c.response_us for c in result.completions
          if c.submit_us >= boundary and c.priority == 0]
    mean_fg = sum(fg) / len(fg) / 1000.0 if fg else 0.0
    mean_bg = sum(bg) / len(bg) / 1000.0 if bg else 0.0
    return mean_fg, mean_bg


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    count = max(4000, int(20_000 * scale))
    warmup = max(3000, int(12_000 * scale))
    rows = []
    for write_pct in WRITE_POINTS:
        fg_agnostic, bg_agnostic = _run_once(write_pct, False, count, warmup, seed)
        fg_aware, bg_aware = _run_once(write_pct, True, count, warmup, seed)
        improvement = (
            (fg_agnostic - fg_aware) / fg_agnostic * 100.0 if fg_agnostic else 0.0
        )
        rows.append(
            [write_pct, fg_agnostic, fg_aware, bg_agnostic, bg_aware, improvement]
        )
    return ExperimentResult(
        experiment_id="table6",
        title="Priority-aware cleaning: response time (ms) by class",
        headers=[
            "Writes%",
            "FgAgnostic",
            "FgAware",
            "BgAgnostic",
            "BgAware",
            "FgImprovement%",
        ],
        rows=rows,
    )


#: the write shares at which cleaning is frequent
_HEAVY = (40, 50, 60, 80)


def claims(result: ExperimentResult) -> List[Claim]:
    """Table 6, from a run at scale 0.6."""
    gain = {row[0]: row[5] for row in result.rows}
    heavy = [gain[w] for w in _HEAVY]
    paper = [PAPER_TABLE6[w] for w in _HEAVY]
    fg_agnostic = result.column("FgAgnostic")
    return [
        Claim("gain_pct_at_20", gain[20], PAPER_TABLE6[20], "|x| < 5",
              abs(gain[20]) < 5.0, "cleaning is rare, so nothing to gate"),
        check("mean_heavy_gain_pct", sum(heavy) / len(heavy), ">", 2.0,
              sum(paper) / len(paper), "about 10 % in the paper; a net gain, "
              "as the gain swings with the write share here"),
        check("max_heavy_gain_pct", max(heavy), ">", 5.0, max(paper),
              "at least one heavy point shows a clear gain"),
        check("fg_agnostic_at_80_over_20", fg_agnostic[-1], ">",
              fg_agnostic[0], None, "more writes, more cleaning pressure"),
        *(near(f"gain_pct_at_{w}", gain[w], PAPER_TABLE6[w],
               "unexplained: the gain swings with the write share, at scale "
               "1.0 too (4.7, 2.0, 12.4, 12.8 % at 40-80 %); the paper's "
               "stays near 10 %")
          for w in _HEAVY),
    ]


def figure3_claims(result: ExperimentResult) -> List[Claim]:
    """Figure 3's series, from a run at scale 0.4."""
    series = [result.column(c)
              for c in ("FgAgnostic", "FgAware", "BgAgnostic", "BgAware")]
    fg_agnostic, fg_aware = series[0], series[1]
    return [
        Claim("series_min_last_over_first", min(s[-1] / s[0] for s in series),
              None, "> 1", all(s[-1] > s[0] for s in series),
              "every series grows with the write share"),
        Claim("fg_aware_over_agnostic_at_80", fg_aware[-1] / fg_agnostic[-1],
              1.0 - PAPER_TABLE6[80] / 100.0, "<= 1.05",
              fg_aware[-1] <= fg_agnostic[-1] * 1.05,
              "the gate must not slow the foreground; 5 % absorbs noise"),
    ]
