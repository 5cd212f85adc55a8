"""Table 3 — Improved Response Time with Write Alignment.

Paper: :data:`PAPER_TABLE3`, the mean response time (ms) of 4 KB writes
at each of :data:`SEQ_POINTS`.

Setup from the paper: "We simulated a 32 GB SSD with one gang of eight 4 GB
flash packages.  A single 32 KB logical page spanned over all the packages.
We ran a synthetic workload that issued a stream of writes with varying
degrees of sequentiality.  We compared two schemes: one, issuing the writes
as they arrive; two, merging and aligning writes on logical page
boundaries."

Here: same architecture at scaled capacity, open-loop 4 KB write stream
near device saturation (the paper's ~10 ms means a deep queue), sweeping
the sequentiality knob.  Expected shape: unaligned flat; aligned tracking
unaligned at low sequentiality and dropping steeply beyond p = 0.4.
"""

from __future__ import annotations

from typing import List

from repro.bench.tables import Claim, ExperimentResult, check, near
from repro.device.presets import table3_gang_ssd
from repro.ftl.prefill import prefill_pagemap
from repro.sim.engine import Simulator
from repro.traces.synthetic import SyntheticConfig, generate_synthetic
from repro.workloads.driver import replay_trace

__all__ = ["run", "claims", "SEQ_POINTS", "PAPER_TABLE3"]

SEQ_POINTS = (0.0, 0.2, 0.4, 0.6, 0.8)

PAPER_TABLE3 = {
    "unaligned": (10.6, 10.6, 10.5, 10.2, 10.5),
    "aligned": (10.6, 10.4, 8.9, 7.6, 5.6),
}


def _mean_response_ms(
    aligned: bool, seq_probability: float, count: int, seed: int
) -> float:
    sim = Simulator()
    device = table3_gang_ssd(sim, element_mb=64, aligned=aligned)
    # moderate fill: every write is an overwrite (the RMW the experiment
    # studies) but cleaning stays out of the picture — its cost varies with
    # sequentiality and would confound the alignment comparison
    prefill_pagemap(device.ftl, 0.70)
    trace = generate_synthetic(
        SyntheticConfig(
            count=count,
            region_bytes=int(device.capacity_bytes * 0.65),
            request_bytes=4096,
            read_fraction=0.0,
            seq_probability=seq_probability,
            # mean ~1.95 ms against a ~1.9 ms full-stripe RMW: the ~90%
            # utilization the paper's ~10 ms flat responses imply
            interarrival_max_us=3900.0,
            arrival_process="poisson",
            seed=seed,
        )
    )
    result = replay_trace(sim, device, trace)
    return result.latency().mean_us / 1000.0


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    count = max(800, int(4000 * scale))
    unaligned = []
    aligned = []
    for probability in SEQ_POINTS:
        unaligned.append(_mean_response_ms(False, probability, count, seed))
        aligned.append(_mean_response_ms(True, probability, count, seed))
    rows = [
        ["Unaligned", *unaligned],
        ["Aligned", *aligned],
    ]
    return ExperimentResult(
        experiment_id="table3",
        title="Avg 4 KB write response time (ms) vs sequentiality",
        headers=["Scheme", *[f"p={p}" for p in SEQ_POINTS]],
        rows=rows,
    )


def claims(result: ExperimentResult) -> List[Claim]:
    """The shape of Table 3, from a run at scale 0.5."""
    u = result.row_by("Scheme", "Unaligned")[1:]
    a = result.row_by("Scheme", "Aligned")[1:]
    paper_u, paper_a = PAPER_TABLE3["unaligned"], PAPER_TABLE3["aligned"]
    return [
        check("unaligned_max_over_min", max(u) / min(u), "<", 1.25,
              max(paper_u) / min(paper_u),
              "flat in the paper; queueing near saturation adds a few points"),
        check("aligned_vs_unaligned_at_p0", abs(a[0] - u[0]) / u[0], "<",
              0.10, abs(paper_a[0] - paper_u[0]) / paper_u[0],
              "nothing to merge: both schemes issue the same writes"),
        Claim("aligned_over_unaligned_at_p0.8", a[-1] / u[-1],
              paper_a[-1] / paper_u[-1], "< 0.8", a[-1] < 0.8 * u[-1],
              "the paper's aligned scheme saves 47 %; 20 % is 'markedly'"),
        check("aligned_at_p0.8_below_p0.2", a[-1], "<", a[1], paper_a[-1],
              "the benefit grows with sequentiality"),
        near("aligned_over_unaligned_at_p0.2", a[1] / u[1],
             paper_a[1] / paper_u[1], "unexplained: the paper's aligned "
             "scheme gains nothing before p = 0.4, here it gains at 0.2"),
    ]
