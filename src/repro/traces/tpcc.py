"""TPC-C-style block trace (Table 4 macro workload).

OLTP against a buffer-managed database: dominant pattern is random 8 KB
page I/O over a large table+index region (≈65% reads / 35% writes), plus a
small sequential log-append stream.  Random page-sized writes rarely merge
into 32 KB stripes, which is why the paper measures only a 3.08%
improvement from stripe alignment on TPCC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.checks import Checked, bounded
from repro.device.interface import OpType
from repro.sim.rng import stream
from repro.traces.record import TraceRecord

__all__ = ["TPCCConfig", "generate_tpcc"]

#: size of one sequential log append
LOG_BYTES = 4096


@dataclass(frozen=True)
class TPCCConfig(Checked):
    count: int = bounded(5000, ge=1)
    region_bytes: int = bounded(192 << 20, ge=1)
    page_bytes: int = bounded(8192, ge=1)
    read_fraction: float = bounded(0.65, ge=0, le=1)
    #: fraction of operations that are sequential log appends
    log_fraction: float = bounded(0.10, ge=0, le=1)
    #: log area at the top of the region
    log_region_bytes: int = bounded(16 << 20, ge=LOG_BYTES)
    interarrival_us: float = bounded(300.0, gt=0)
    seed: int = bounded(42)

    def __post_init__(self) -> None:
        super().__post_init__()
        table_bytes = self.region_bytes - self.log_region_bytes
        if table_bytes < self.page_bytes:
            raise ValueError(
                "the region outside the log area must hold one table page: "
                f"region_bytes - log_region_bytes must be >= {self.page_bytes},"
                f" got {table_bytes}"
            )


def generate_tpcc(config: TPCCConfig) -> List[TraceRecord]:
    addr_rng = stream(config.seed, "tpcc-addr")
    mix_rng = stream(config.seed, "tpcc-mix")
    arrival_rng = stream(config.seed, "tpcc-arrivals")

    table_bytes = config.region_bytes - config.log_region_bytes
    table_pages = table_bytes // config.page_bytes
    records: List[TraceRecord] = []
    now = 0.0
    log_head = table_bytes
    for _ in range(config.count):
        now += arrival_rng.expovariate(1.0 / config.interarrival_us)
        if mix_rng.random() < config.log_fraction:
            if log_head + LOG_BYTES > config.region_bytes:
                log_head = table_bytes
            records.append(TraceRecord(now, OpType.WRITE, log_head, LOG_BYTES))
            log_head += LOG_BYTES
            continue
        offset = addr_rng.randrange(table_pages) * config.page_bytes
        op = OpType.READ if mix_rng.random() < config.read_fraction else OpType.WRITE
        records.append(TraceRecord(now, op, offset, config.page_bytes))
    return records
