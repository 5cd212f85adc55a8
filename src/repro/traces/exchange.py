"""Exchange-server-style block trace (Table 4 macro workload).

Mail-server storage (the paper's Exchange trace) mixes random database-page
I/O with *bursty runs* of medium-sized writes — message delivery batches
and background maintenance touch neighbouring pages.  Those short
sequential runs give the aligning buffer something to merge, which is why
Exchange gains more than TPCC (4.89% vs 3.08%) but far less than IOzone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.checks import Checked, bounded
from repro.device.interface import OpType
from repro.sim.rng import stream
from repro.traces.record import TraceRecord

__all__ = ["ExchangeConfig", "generate_exchange"]

#: a write burst touches this many consecutive pages on average
BURST_MEAN_PAGES = 3
BURST_MAX_PAGES = 8


@dataclass(frozen=True)
class ExchangeConfig(Checked):
    count: int = bounded(5000, ge=1)
    region_bytes: int = bounded(192 << 20, ge=1)
    page_bytes: int = bounded(8192, ge=1)
    read_fraction: float = bounded(0.55, ge=0, le=1)
    interarrival_us: float = bounded(300.0, gt=0)
    seed: int = bounded(42)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.region_bytes < self.page_bytes:
            raise ValueError(
                f"region_bytes must hold one page of {self.page_bytes} bytes, "
                f"got {self.region_bytes}"
            )


def generate_exchange(config: ExchangeConfig) -> List[TraceRecord]:
    addr_rng = stream(config.seed, "exch-addr")
    mix_rng = stream(config.seed, "exch-mix")
    burst_rng = stream(config.seed, "exch-burst")
    arrival_rng = stream(config.seed, "exch-arrivals")

    pages = config.region_bytes // config.page_bytes
    records: List[TraceRecord] = []
    now = 0.0
    emitted = 0
    while emitted < config.count:
        now += arrival_rng.expovariate(1.0 / config.interarrival_us)
        if mix_rng.random() < config.read_fraction:
            offset = addr_rng.randrange(pages) * config.page_bytes
            records.append(TraceRecord(now, OpType.READ, offset, config.page_bytes))
            emitted += 1
            continue
        # write burst: consecutive pages, arriving back-to-back
        # a region smaller than a burst clamps it, so the burst ends inside
        length = min(
            BURST_MAX_PAGES, pages,
            max(1, round(burst_rng.expovariate(1.0 / BURST_MEAN_PAGES))),
        )
        start = addr_rng.randrange(pages - length + 1) * config.page_bytes
        for index in range(length):
            if emitted >= config.count:
                break
            now += arrival_rng.expovariate(1.0 / (config.interarrival_us / 4))
            records.append(
                TraceRecord(
                    now, OpType.WRITE,
                    start + index * config.page_bytes, config.page_bytes,
                )
            )
            emitted += 1
    return records
