"""IOzone-style block trace (Table 4 macro workload).

IOzone's automatic mode streams large sequential writes, rewrites, and
reads over a test file.  Its writes are big and contiguous, so nearly every
one of them completes a 32 KB stripe in the aligning buffer — the paper
measures a 36.54% response-time improvement, by far the largest of the
four macro workloads ("IOzone benefits the most due to its large write
sizes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.checks import Checked, bounded
from repro.device.interface import OpType
from repro.sim.rng import stream
from repro.traces.record import TraceRecord

__all__ = ["IOzoneConfig", "generate_iozone"]

RECORD_BYTES = 256 * 1024
#: write, rewrite, read phase proportions; the reread phase takes the rest
WRITE_SHARE = 0.35
REWRITE_SHARE = 0.25
READ_SHARE = 0.25


@dataclass(frozen=True)
class IOzoneConfig(Checked):
    count: int = bounded(3000, ge=1)
    file_bytes: int = bounded(128 << 20, ge=RECORD_BYTES)
    interarrival_us: float = bounded(500.0, gt=0)
    seed: int = bounded(42)


def generate_iozone(config: IOzoneConfig) -> List[TraceRecord]:
    arrival_rng = stream(config.seed, "iozone-arrivals")
    records: List[TraceRecord] = []
    now = 0.0
    position = 0

    def advance() -> int:
        nonlocal position
        offset = position
        position += RECORD_BYTES
        if position + RECORD_BYTES > config.file_bytes:
            position = 0
        return offset

    n_write = int(config.count * WRITE_SHARE)
    n_rewrite = int(config.count * REWRITE_SHARE)
    n_read = int(config.count * READ_SHARE)
    n_reread = config.count - n_write - n_rewrite - n_read

    phases = (
        (OpType.WRITE, n_write),
        (OpType.WRITE, n_rewrite),
        (OpType.READ, n_read),
        (OpType.READ, n_reread),
    )
    for op, count in phases:
        position = 0
        for _ in range(count):
            now += arrival_rng.expovariate(1.0 / config.interarrival_us)
            records.append(TraceRecord(now, op, advance(), RECORD_BYTES))
    return records
