"""Synthetic block traces with controllable sequentiality, mix, and arrivals.

Two experiments in the paper are driven by exactly this generator:

* Table 3 — "a synthetic workload that issued a stream of writes with
  varying degrees of sequentiality": ``read_fraction=0``,
  ``seq_probability`` swept 0 → 0.8.
* Figure 3 / Table 6 — "synthetic benchmarks with request inter-arrival
  times uniformly distributed between 0 and 0.1 ms.  The fraction of
  priority requests was set to 10%": ``interarrival_max_us=100``,
  ``priority_fraction=0.1``, write fraction swept.

It is one pattern of :mod:`repro.traces.patterns`: arrivals, mix and
priority come from the shared emission loop, and only the address walk
(continue where the last request ended, or jump) lives here.  Its streams
keep their original unprefixed names (``addresses``, ``mix``,
``arrivals``, ``priority``), so every seeded trace is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.checks import bounded
from repro.sim.rng import stream
from repro.traces.patterns import PatternConfig, _emit, _spans
from repro.traces.record import TraceRecord

__all__ = ["SyntheticConfig", "generate_synthetic", "iter_synthetic"]


@dataclass(frozen=True)
class SyntheticConfig(PatternConfig):
    """:class:`~repro.traces.patterns.PatternConfig` plus the paper's
    sequentiality knob."""

    #: probability the next request continues where the previous ended
    seq_probability: float = bounded(0.0, ge=0, le=1)


def iter_synthetic(config: SyntheticConfig) -> Iterator[TraceRecord]:
    """Yield the trace described by *config* lazily (deterministic per seed).

    Each record continues where the previous one ended (wrapping to slot 0
    at the region end) with probability ``seq_probability``, and otherwise
    lands on a uniform-random slot.  The first record has no predecessor,
    so it never rolls.  Records are materialized a chunk at a time
    (:data:`repro.traces.patterns.CHUNK`), so a 10M-record replay can feed
    :func:`repro.workloads.driver.replay_trace` straight from the generator
    with O(chunk) trace memory.  The roll decides whether a slot draw
    follows it on the same generator, so the walk draws per record.
    """
    addr_rng = stream(config.seed, "addresses")
    mix_rng = stream(config.seed, "mix")
    arrival_rng = stream(config.seed, "arrivals")
    priority_rng = stream(config.seed, "priority")
    roll, randrange = addr_rng.random, addr_rng.randrange
    seq_probability = config.seq_probability
    slots = config.slots

    def walk() -> Iterator[List[int]]:
        last = 0
        for first, n in _spans(config):
            chunk: List[int] = []
            append = chunk.append
            if first == 0:
                # no predecessor: the first record never rolls
                last = randrange(slots)
                append(last)
                n -= 1
            for _ in range(n):
                if roll() < seq_probability:
                    last = last + 1 if last + 1 < slots else 0
                else:
                    last = randrange(slots)
                append(last)
            yield chunk

    return _emit(config, (mix_rng, arrival_rng, priority_rng), walk())


def generate_synthetic(config: SyntheticConfig) -> List[TraceRecord]:
    """Produce the trace described by *config* (deterministic per seed)."""
    return list(iter_synthetic(config))
