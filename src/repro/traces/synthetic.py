"""Synthetic block traces with controllable sequentiality, mix, and arrivals.

Two experiments in the paper are driven by exactly this generator:

* Table 3 — "a synthetic workload that issued a stream of writes with
  varying degrees of sequentiality": ``read_fraction=0``,
  ``seq_probability`` swept 0 → 0.8.
* Figure 3 / Table 6 — "synthetic benchmarks with request inter-arrival
  times uniformly distributed between 0 and 0.1 ms.  The fraction of
  priority requests was set to 10%": ``interarrival_max_us=100``,
  ``priority_fraction=0.1``, write fraction swept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.sim.rng import stream
from repro.traces.record import TraceOp, TraceRecord

__all__ = ["SyntheticConfig", "generate_synthetic", "iter_synthetic"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic generator (sizes in bytes, times in µs)."""

    count: int = 1000
    region_bytes: int = 64 << 20
    request_bytes: int = 4096
    read_fraction: float = 0.0
    #: probability the next request continues where the previous ended
    seq_probability: float = 0.0
    #: inter-arrival ~ U(0, interarrival_max_us); 0 packs all at t=0
    interarrival_max_us: float = 100.0
    #: "uniform" (the paper's Figure 3 process) or "poisson" with the same
    #: mean (interarrival_max_us / 2)
    arrival_process: str = "uniform"
    #: fraction of requests tagged priority (foreground)
    priority_fraction: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.arrival_process not in ("uniform", "poisson"):
            raise ValueError(
                f"arrival_process must be 'uniform' or 'poisson', got "
                f"{self.arrival_process!r}"
            )
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.request_bytes <= 0 or self.request_bytes % 512:
            raise ValueError("request_bytes must be a positive multiple of 512")
        if self.region_bytes < self.request_bytes:
            raise ValueError("region must hold at least one request")
        for name in ("read_fraction", "seq_probability", "priority_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def iter_synthetic(config: SyntheticConfig) -> Iterator[TraceRecord]:
    """Yield the trace described by *config* lazily (deterministic per seed).

    One record is materialized at a time, so a 10M-record replay can feed
    :func:`repro.workloads.driver.replay_trace` straight from the generator
    with O(1) trace memory.  Identical stream to
    :func:`generate_synthetic`: the list form is just this iterator,
    collected (the RNG draw order, including the first record's skipped
    sequentiality roll, is preserved exactly).
    """
    addr_rng = stream(config.seed, "addresses")
    mix_rng = stream(config.seed, "mix")
    arrival_rng = stream(config.seed, "arrivals")
    priority_rng = stream(config.seed, "priority")

    # the loop below runs once per replayed record; config fields and rng
    # entry points are hoisted so the per-record cost is the draws and the
    # record itself, not attribute traffic (draw order is untouched)
    count = config.count
    region_bytes = config.region_bytes
    request_bytes = config.request_bytes
    read_fraction = config.read_fraction
    seq_probability = config.seq_probability
    priority_fraction = config.priority_fraction
    interarrival_max_us = config.interarrival_max_us
    poisson = config.arrival_process == "poisson"
    rate = (2.0 / interarrival_max_us
            if poisson and interarrival_max_us > 0 else 0.0)
    addr_random = addr_rng.random
    addr_randrange = addr_rng.randrange
    mix_random = mix_rng.random
    priority_random = priority_rng.random
    arrival_random = arrival_rng.random  # gap * random(): uniform(0.0, gap) exactly
    arrival_expovariate = arrival_rng.expovariate
    read_op, write_op = TraceOp.READ, TraceOp.WRITE

    slots = region_bytes // request_bytes
    now = 0.0
    last_end = 0
    first = True
    for _ in range(count):
        if interarrival_max_us > 0:
            if poisson:
                now += arrival_expovariate(rate)
            else:
                now += interarrival_max_us * arrival_random()
        op = read_op if mix_random() < read_fraction else write_op
        if not first and addr_random() < seq_probability:
            offset = last_end
            if offset + request_bytes > region_bytes:
                offset = 0
        else:
            offset = addr_randrange(slots) * request_bytes
        offset -= offset % 512  # align_down(offset, 512), sans the call
        priority = (
            1
            if priority_fraction > 0
            and priority_random() < priority_fraction
            else 0
        )
        yield TraceRecord(now, op, offset, request_bytes, priority)
        first = False
        last_end = offset + request_bytes


def generate_synthetic(config: SyntheticConfig) -> List[TraceRecord]:
    """Produce the trace described by *config* (deterministic per seed)."""
    return list(iter_synthetic(config))
