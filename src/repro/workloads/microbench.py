"""Sequential/random bandwidth probes (Table 2, contract terms 1 and 3).

``measure_bandwidth`` drives a device closed-loop with a fixed queue depth
and reports MB/s over the completed bytes.  ``prepare_region`` writes a
region sequentially first — required before *read* benchmarks (reading
never-written flash completes without media work) and before random-write
benchmarks on block-mapped devices (the RMW penalty needs live data to
overwrite, matching a real aged drive).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.interface import OpType
from repro.sim.engine import Simulator
from repro.sim.rng import stream
from repro.workloads.driver import ClosedLoopDriver

__all__ = ["MicrobenchResult", "measure_bandwidth", "prepare_region"]


@dataclass(frozen=True)
class MicrobenchResult:
    """Outcome of one bandwidth probe."""

    mb_per_s: float
    mean_latency_us: float
    count: int
    pattern: str
    op: str
    request_bytes: int


def prepare_region(
    sim: Simulator,
    device,
    region_bytes: int,
    chunk_bytes: int = 256 * 1024,
) -> None:
    """Sequentially write [0, region_bytes) so later probes hit live data."""

    def next_request(index: int):
        return (OpType.WRITE, index * chunk_bytes, chunk_bytes)

    count = region_bytes // chunk_bytes
    if count == 0:
        raise ValueError("region smaller than one chunk")
    ClosedLoopDriver(sim, device, next_request, count=count, depth=4).run()


def measure_bandwidth(
    sim: Simulator,
    device,
    op: OpType,
    pattern: str,
    request_bytes: int,
    region_bytes: int,
    count: int = 256,
    depth: int = 1,
    seed: int = 7,
) -> MicrobenchResult:
    """Closed-loop probe: *count* requests of *request_bytes*, sequential or
    uniform-random within [0, region_bytes)."""
    if pattern not in ("seq", "rand"):
        raise ValueError(f"pattern must be 'seq' or 'rand', got {pattern!r}")
    if region_bytes < request_bytes:
        raise ValueError("region must hold at least one request")
    slots = region_bytes // request_bytes
    rng = stream(seed, f"microbench-{op.value}-{pattern}")

    def next_request(index: int):
        if pattern == "seq":
            offset = (index % slots) * request_bytes
        else:
            offset = rng.randrange(slots) * request_bytes
        return (op, offset, request_bytes)

    result = ClosedLoopDriver(
        sim, device, next_request, count=count, depth=depth
    ).run()
    return MicrobenchResult(
        mb_per_s=result.bandwidth_mb_s(),
        mean_latency_us=result.latency().mean_us,
        count=result.count,
        pattern=pattern,
        op=op.value,
        request_bytes=request_bytes,
    )
