"""Table 4 — Macro Benchmarks with Stripe-aligned Writes.

Paper: :data:`PAPER_TABLE4`, the response-time improvement (%) from the
aligning scheme.  "Of all the workloads, IOzone benefits the most (over
36% improvement) due to its large write sizes."

Each macro generator replays against the §3.4 gang SSD (32 KB logical
page) twice — passthrough vs aligning buffer — and we report the mean
response-time improvement.  The ordering (IOzone >> Exchange > TPCC >=
Postmark) is the reproduced result; exact percentages depend on trace
details the paper does not specify.
"""

from __future__ import annotations

from typing import List

from repro.bench.tables import Claim, ExperimentResult, check, near
from repro.device.presets import table3_gang_ssd
from repro.ftl.prefill import prefill_pagemap
from repro.sim.engine import Simulator
from repro.traces.exchange import ExchangeConfig, generate_exchange
from repro.traces.iozone import IOzoneConfig, generate_iozone
from repro.traces.postmark import PostmarkConfig, generate_postmark
from repro.traces.record import TraceRecord
from repro.traces.tpcc import TPCCConfig, generate_tpcc
from repro.units import KIB, MIB
from repro.workloads.driver import replay_trace

__all__ = ["run", "claims", "PAPER_TABLE4"]

PAPER_TABLE4 = {"Postmark": 1.15, "TPCC": 3.08, "Exchange": 4.89, "IOzone": 36.54}

#: skew applied to trace offsets: file systems place data at 4 KB blocks,
#: not 32 KB stripe boundaries, so streams start mid-stripe
_SKEW = 20 * KIB


def _traces(count: int, region: int, seed: int) -> dict:
    def skewed(records: List[TraceRecord]) -> List[TraceRecord]:
        limit = region - _SKEW
        return [
            TraceRecord(r.time_us, r.op, (r.offset % limit) + _SKEW, r.size,
                        r.priority)
            for r in records
        ]

    # Arrival rates put each workload at the utilization its paper response
    # times imply: the OLTP-ish traces run at moderate load, IOzone (a
    # throughput benchmark) runs at the edge of saturation, where its gain
    # is most sensitive to the arrival rate.
    usable = region - 2 * MIB
    return {
        "Postmark": skewed(
            generate_postmark(
                PostmarkConfig(
                    volume_bytes=usable // 2,
                    initial_files=max(50, count // 20),
                    transactions=count,
                    interarrival_us=2900.0,
                    seed=seed,
                )
            )
        ),
        "TPCC": skewed(
            generate_tpcc(
                TPCCConfig(count=count, region_bytes=usable,
                           interarrival_us=1200.0, seed=seed)
            )
        ),
        "Exchange": skewed(
            generate_exchange(
                ExchangeConfig(count=count, region_bytes=usable,
                               interarrival_us=5200.0, seed=seed)
            )
        ),
        "IOzone": skewed(
            generate_iozone(
                IOzoneConfig(count=count // 2, file_bytes=usable // 2,
                             interarrival_us=10_100.0, seed=seed)
            )
        ),
    }


def _mean_response(trace, aligned: bool) -> float:
    sim = Simulator()
    device = table3_gang_ssd(sim, element_mb=64, aligned=aligned)
    prefill_pagemap(device.ftl, 0.55)
    result = replay_trace(sim, device, trace)
    return result.latency().mean_us


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    count = max(600, int(4000 * scale))
    sim = Simulator()
    probe = table3_gang_ssd(sim, element_mb=64)
    region = int(probe.capacity_bytes * 0.85)
    rows = []
    for name, trace in _traces(count, region, seed).items():
        unaligned = _mean_response(trace, aligned=False)
        aligned = _mean_response(trace, aligned=True)
        improvement = (unaligned - aligned) / unaligned * 100.0
        rows.append([name, unaligned / 1000.0, aligned / 1000.0, improvement])
    return ExperimentResult(
        experiment_id="table4",
        title="Macro benchmarks: response-time improvement from alignment",
        headers=["Workload", "UnalignedMs", "AlignedMs", "Improvement%"],
        rows=rows,
    )


def claims(result: ExperimentResult) -> List[Claim]:
    """The ordering of Table 4, from a run at scale 0.5."""
    gain = {row[0]: row[3] for row in result.rows}
    others = max(gain[k] for k in ("Postmark", "TPCC", "Exchange"))
    return [
        check("iozone_gain_above_others", gain["IOzone"], ">", others,
              PAPER_TABLE4["IOzone"], "the paper's headline: large writes "
              "gain the most"),
        check("iozone_gain_pct", gain["IOzone"], ">", 10.0,
              PAPER_TABLE4["IOzone"], "36.5 % in the paper, from request "
              "sizes it does not give; 10 % is still a large gain"),
        check("postmark_gain_pct", gain["Postmark"], "<", 10.0,
              PAPER_TABLE4["Postmark"], "small OLTP-like writes gain single "
              "digits"),
        check("tpcc_gain_pct", gain["TPCC"], "<", 10.0, PAPER_TABLE4["TPCC"],
              "as postmark_gain_pct"),
        check("min_gain_pct", min(gain.values()), ">", -5.0,
              min(PAPER_TABLE4.values()), "alignment makes nothing markedly "
              "worse; 5 points absorbs queueing noise"),
        *(near(f"{name.lower()}_gain_vs_paper", gain[name],
               PAPER_TABLE4[name], "scale and a model simplification: "
               "synthetic traces stand in for the paper's, and the gains "
               "move with trace length (scale 1.0: IOzone 25.7 %, "
               "Postmark 2.9 %)")
          for name in ("IOzone", "Postmark")),
    ]
