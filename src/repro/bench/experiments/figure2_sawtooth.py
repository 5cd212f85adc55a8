"""Figure 2 — Write Amplification saw-tooth on the S2-class device.

Paper: "In S2slc, maximum bandwidth is achieved when the write size aligns
with the stripe size (1 MB). ... As we increased the write size further
(e.g., 1 MB + 512 bytes), the bandwidth again dropped, and this behavior
repeated to give a saw-tooth pattern.  We believe that this behavior is due
to striping the logical page across a gang of flash packages that share the
buses."

We sweep the write size from 512 B to ~4.5 stripes on an aged S2slc (every
stripe mapped, so partial-stripe writes trigger the full
read-modify-erase-write) and report the sustained bandwidth of a sequential
write stream of that size.  Expected shape: rising toward each stripe
multiple, collapsing just past it.
"""

from __future__ import annotations

from typing import List

from repro.bench.tables import Claim, ExperimentResult, check
from repro.device.interface import OpType
from repro.device.presets import s2slc
from repro.ftl.prefill import prefill_stripe_ftl
from repro.sim.engine import Simulator
from repro.units import KIB, MIB
from repro.workloads.driver import ClosedLoopDriver

__all__ = ["run", "claims", "sweep_sizes"]


def sweep_sizes(stripe_bytes: int = MIB, stripes: int = 4) -> List[int]:
    """Sample points: dense within the first stripe, then peak/trough pairs
    at each multiple (the paper's 0-9 MB x-axis, scaled)."""
    sizes = [512, 64 * KIB, 256 * KIB, 512 * KIB, 768 * KIB]
    for multiple in range(1, stripes + 1):
        sizes.append(multiple * stripe_bytes)          # peak
        if multiple < stripes:
            sizes.append(multiple * stripe_bytes + 512)     # trough
            sizes.append(multiple * stripe_bytes + stripe_bytes // 2)
    return sizes


def _bandwidth_for_size(size: int, count: int, element_mb: int) -> float:
    sim = Simulator()
    device = s2slc(sim, element_mb=element_mb)
    prefill_stripe_ftl(device.ftl, 1.0)  # every stripe mapped: overwrites RMW
    capacity = device.capacity_bytes
    stride = -(-size // 512) * 512

    def next_request(index: int):
        offset = (index * stride) % (capacity - stride)
        offset -= offset % 512
        return (OpType.WRITE, offset, size)

    result = ClosedLoopDriver(sim, device, next_request, count=count, depth=2).run()
    return result.bandwidth_mb_s()


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    count = max(3, int(6 * scale))
    element_mb = 32
    rows = []
    for size in sweep_sizes():
        bandwidth = _bandwidth_for_size(size, count, element_mb)
        rows.append([size, size / MIB, bandwidth])
    return ExperimentResult(
        experiment_id="figure2",
        title="Write Amplification saw-tooth (S2slc, 1 MB stripe)",
        headers=["Bytes", "SizeMB", "MB/s"],
        rows=rows,
        metadata={"stripe_bytes": MIB},
    )


def claims(result: ExperimentResult) -> List[Claim]:
    """The saw-tooth's shape, from a run at scale 0.5 (the paper plots
    it without a table: ~67 MB/s peaks on its sample)."""
    bw = {row[0]: row[2] for row in result.rows}
    pairs = [(bw[m * MIB], bw[m * MIB + 512]) for m in (1, 2, 3)]
    return [
        Claim("bandwidth_512_256k_1m", (bw[512], bw[256 * KIB], bw[MIB]),
              None, "increasing", bw[512] < bw[256 * KIB] < bw[MIB],
              "bandwidth rises toward the stripe size"),
        Claim("peak_over_trough_min", min(p / t for p, t in pairs), None,
              "> 1.5", all(p > 1.5 * t for p, t in pairs),
              "a peak at every stripe multiple, a collapse just past it"),
        check("peak_1m_vs_2m", abs(bw[MIB] - bw[2 * MIB]) / bw[MIB], "<",
              0.25, None, "stripe-aligned writes never RMW, so the peaks "
              "are about the same height"),
    ]
