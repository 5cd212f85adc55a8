"""Composable access-pattern suite: the synthetic half of the workload zoo.

Real device studies need a *zoo* of access shapes, and the classic suites
(wiscsee's ``patternsuite``/``lbabench`` family) build them from a handful
of composable primitives.  This module ports that idea onto the repo's
streaming replay:

* every pattern is a **lazy, seeded generator** of
  :class:`~repro.traces.record.TraceRecord` — one record materialized at a
  time, so a pattern can feed
  :func:`repro.workloads.driver.replay_trace`'s one-record-ahead feeder at
  O(1) memory regardless of ``count`` (the zipf/hot-cold tables are O(region
  slots), the same order as the FTL map itself);
* patterns share one :class:`PatternConfig` (count, region, request size,
  read/write mix, arrival process, priority tagging, seed), so "the same
  traffic, different address shape" is a one-argument change;
* patterns share one emission loop, :func:`_emit`: arrivals, the
  read/write mix and priority tagging are drawn there, and a pattern only
  supplies its stream of address slots.  The paper's own generator
  (:mod:`repro.traces.synthetic`) is one more pattern on that loop;
* phases compose: :func:`compose` chains pattern streams and emits
  **control records** between them — :class:`Barrier` (drain the device
  before the next phase; phase timestamps restart at the drain instant) and
  :class:`Pause` (inject idle time, e.g. to let background cleaning run).
  :func:`repro.workloads.driver.replay_pattern` interprets them.

Address shapes
--------------
=============  ===========================================================
sequential     wrap-around ascending sweep from slot 0
random         uniform over the region's request slots
strided        arithmetic slot progression ``(i * stride) % region`` —
               period is ``slots / gcd(stride_slots, slots)``
snake          a creeping window of live data: write at the head, FREE
               (trim) the slot one window behind, wrapping the region —
               the canonical informed-cleaning (TRIM) exercise
zipf           slot popularity ``∝ 1/rank**theta``, ranks scattered over
               the region by a seeded permutation
hot/cold       a fraction of the space (the hot set) takes a fraction of
               the accesses — the classic skew knob
=============  ===========================================================

Determinism: every pattern draws from :func:`repro.sim.rng.stream` streams
namespaced per pattern (``pattern.<name>.<purpose>``), so a (seed, pattern)
pair always replays the identical trace and adding a new pattern never
perturbs existing ones.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count, islice, repeat
from math import gcd
from random import Random
from typing import Iterable, Iterator, List, Tuple, Union

from repro.checks import Bound, Checked, bounded
from repro.device.interface import OpType
from repro.sim.rng import stream
from repro.traces.record import TraceRecord

__all__ = [
    "PatternConfig",
    "Barrier",
    "Pause",
    "PatternRecord",
    "compose",
    "iter_sequential",
    "iter_random",
    "iter_strided",
    "iter_snake",
    "iter_zipf",
    "iter_hot_cold",
    "strided_period",
]


@dataclass(frozen=True, slots=True)
class Barrier:
    """Control record: stop admitting later records until every earlier
    request has completed (the device drains).  The next phase's timestamps
    restart at the drain instant, so each phase carries its own relative
    timeline starting at 0."""

    label: str = ""


@dataclass(frozen=True, slots=True)
class Pause(Checked):
    """Control record: shift every later record of the current segment
    ``delta_us`` into the future — injected idle time (background cleaning
    and wear-leveling keep running through it)."""

    delta_us: float = bounded(ge=0)


#: what a pattern stream yields: data records plus the two control records
PatternRecord = Union[TraceRecord, Barrier, Pause]


@dataclass(frozen=True)
class PatternConfig(Checked):
    """Shared knobs of the pattern generators (sizes in bytes, times in µs).

    ``arrival_process``: ``"uniform"`` draws inter-arrivals from
    ``U(0, interarrival_max_us)`` (the paper's Figure 3 process),
    ``"poisson"`` is exponential with the same mean, and ``"fixed"`` spaces
    records exactly ``interarrival_max_us / 2`` apart — the same offered
    load as the other two, jitter-free.  ``interarrival_max_us=0`` packs
    every record at t=0 (a pure burst); a negative or non-finite value is
    refused.

    ``lba_base_bytes`` shifts the whole pattern to a namespaced window
    ``[lba_base_bytes, lba_base_bytes + region_bytes)`` of the device's
    address space — the multi-tenant hook (:mod:`repro.fleet` gives each
    tenant a disjoint base inside one device).  It must be slot-aligned (a
    multiple of ``request_bytes``); the default 0 leaves every existing
    pattern byte-identical, and the base never feeds the RNG streams, so a
    tenant's *relative* trace is invariant under relocation.
    """

    count: int = bounded(1000, ge=1)
    region_bytes: int = bounded(64 << 20, ge=512)
    request_bytes: int = bounded(4096, ge=512)
    read_fraction: float = bounded(0.0, ge=0, le=1)
    interarrival_max_us: float = bounded(100.0, ge=0)
    arrival_process: str = "uniform"
    priority_fraction: float = bounded(0.0, ge=0, le=1)
    seed: int = bounded(42)
    lba_base_bytes: int = bounded(0, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.arrival_process not in ("uniform", "poisson", "fixed"):
            raise ValueError(
                f"arrival_process must be 'uniform', 'poisson', or 'fixed', "
                f"got {self.arrival_process!r}"
            )
        if self.request_bytes % 512:
            raise ValueError("request_bytes must be a multiple of 512")
        if self.region_bytes < self.request_bytes:
            raise ValueError("region must hold at least one request")
        if self.lba_base_bytes % self.request_bytes:
            raise ValueError(
                f"lba_base_bytes ({self.lba_base_bytes}) must be a "
                f"multiple of request_bytes ({self.request_bytes})"
            )

    @property
    def slots(self) -> int:
        """Request-sized slots the region holds."""
        return self.region_bytes // self.request_bytes


#: a generator's (mix, arrivals, priority) random streams
Streams = Tuple[Random, Random, Random]


def _streams(config: PatternConfig, name: str) -> Streams:
    """Pattern *name*'s (mix, arrivals, priority) streams, namespaced
    ``pattern.<name>.<purpose>``."""
    seed = config.seed
    return (stream(seed, f"pattern.{name}.mix"),
            stream(seed, f"pattern.{name}.arrivals"),
            stream(seed, f"pattern.{name}.priority"))


def _emit(config: PatternConfig, streams: Streams,
          slot_stream: Iterable[int]) -> Iterator[TraceRecord]:
    """The one emission loop: arrivals, read/write mix, and priority
    tagging around a generator-specific stream of address slots (record
    *i* lands on the *i*-th slot; it is pulled once per record, so a lazy
    stream draws exactly as an inline loop would).  A write-only config
    (``read_fraction=0``) draws no mix."""
    mix_rng, arrival_rng, priority_rng = streams
    request_bytes = config.request_bytes
    base = config.lba_base_bytes
    read_fraction = config.read_fraction
    priority_fraction = config.priority_fraction
    gap = config.interarrival_max_us
    poisson = config.arrival_process == "poisson"
    fixed = config.arrival_process == "fixed"
    rate = 2.0 / gap if poisson and gap > 0 else 0.0
    fixed_gap = gap / 2.0
    mix_random = mix_rng.random
    priority_random = priority_rng.random
    arrival_random = arrival_rng.random  # gap * random(): uniform(0.0, gap) exactly
    arrival_expovariate = arrival_rng.expovariate
    read_op, write_op = OpType.READ, OpType.WRITE

    now = 0.0
    for slot in islice(slot_stream, config.count):
        if gap > 0:
            if poisson:
                now += arrival_expovariate(rate)
            elif fixed:
                now += fixed_gap
            else:
                now += gap * arrival_random()
        op = (read_op if read_fraction and mix_random() < read_fraction
              else write_op)
        priority = (
            1
            if priority_fraction > 0 and priority_random() < priority_fraction
            else 0
        )
        yield TraceRecord(now, op, base + slot * request_bytes,
                          request_bytes, priority)


def iter_sequential(config: PatternConfig,
                    start_slot: int = 0) -> Iterator[TraceRecord]:
    """Ascending sweep from ``start_slot``, wrapping at the region end."""
    slots = config.slots
    if not 0 <= start_slot < slots:
        raise ValueError(f"start_slot must be in [0, {slots}), got {start_slot}")
    return _emit(config, _streams(config, "sequential"),
                 ((start_slot + i) % slots for i in count()))


def iter_random(config: PatternConfig) -> Iterator[TraceRecord]:
    """Uniform-random slot per record."""
    randrange = stream(config.seed, "pattern.random.addresses").randrange
    slots = config.slots
    return _emit(config, _streams(config, "random"),
                 map(randrange, repeat(slots)))


def strided_period(config: PatternConfig, stride_bytes: int) -> int:
    """Records until a strided pattern revisits its start slot:
    ``slots / gcd(stride_slots, slots)``."""
    slots = config.slots
    step = stride_bytes // config.request_bytes
    return slots // gcd(step % slots or slots, slots)


def iter_strided(config: PatternConfig, stride_bytes: int,
                 start_slot: int = 0) -> Iterator[TraceRecord]:
    """Arithmetic slot progression: record *i* lands on
    ``(start + i * stride_slots) % slots``.  ``stride_bytes`` must be a
    positive multiple of ``request_bytes``; the pattern cycles with period
    :func:`strided_period`."""
    if stride_bytes <= 0 or stride_bytes % config.request_bytes:
        raise ValueError(
            f"stride ({stride_bytes}) must be a positive multiple of the "
            f"request size ({config.request_bytes})"
        )
    slots = config.slots
    step = stride_bytes // config.request_bytes
    if not 0 <= start_slot < slots:
        raise ValueError(f"start_slot must be in [0, {slots}), got {start_slot}")
    return _emit(config, _streams(config, "strided"),
                 ((start_slot + i * step) % slots for i in count()))


def iter_snake(config: PatternConfig,
               window_bytes: int) -> Iterator[TraceRecord]:
    """A creeping window of live data (pure write + trim; ``read_fraction``
    must be 0): record *i* writes slot ``i % slots``, and once the window is
    full each write is followed — at the same timestamp — by a FREE of the
    slot ``window`` behind it.  Live data therefore stays exactly
    ``window_bytes`` while the pattern snakes through the whole region; on a
    trim-processing device the freed slots never cost a cleaning copy (the
    paper's informed cleaning, §3.5).

    Yields ``count`` WRITE records plus ``max(0, count - window_slots)``
    interleaved FREE records.
    """
    if config.read_fraction != 0.0:
        raise ValueError("snake is a write+trim pattern; read_fraction must be 0")
    slots = config.slots
    window_slots = window_bytes // config.request_bytes
    if window_slots <= 0 or window_bytes % config.request_bytes:
        raise ValueError(
            f"window ({window_bytes}) must be a positive multiple of the "
            f"request size ({config.request_bytes})"
        )
    if window_slots >= slots:
        raise ValueError(
            f"window ({window_slots} slots) must be smaller than the region "
            f"({slots} slots)"
        )

    def trail(writes: Iterator[TraceRecord]) -> Iterator[TraceRecord]:
        # the first window of writes frees nothing; after it, write i
        # frees slot ``(i - window_slots) % slots`` at its own timestamp
        request_bytes = config.request_bytes
        base = config.lba_base_bytes
        free_op = OpType.FREE
        yield from islice(writes, window_slots)
        for tail, record in enumerate(writes):
            yield record
            yield TraceRecord(record.time_us, free_op,
                              base + tail % slots * request_bytes,
                              request_bytes, 0)

    return trail(_emit(config, _streams(config, "snake"),
                       (i % slots for i in count())))


def iter_zipf(config: PatternConfig, theta: float = 1.0,
              scramble: bool = True) -> Iterator[TraceRecord]:
    """Zipf-popular slots: the rank-*r* slot is drawn with probability
    proportional to ``1 / r**theta``.  ``scramble`` (default) maps ranks
    onto the region through a seeded permutation so the hot slots scatter
    instead of clustering at offset 0.  The rank table is O(region slots),
    built once; each draw is one bisect."""
    Bound(gt=0).check("theta", theta)
    slots = config.slots
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, slots + 1):
        total += 1.0 / rank ** theta
        cumulative.append(total)
    rank_to_slot = list(range(slots))
    if scramble:
        stream(config.seed, "pattern.zipf.permute").shuffle(rank_to_slot)
    draw = stream(config.seed, "pattern.zipf.addresses").random

    def slot_stream() -> Iterator[int]:
        while True:
            rank = bisect_right(cumulative, draw() * total)
            if rank >= slots:  # guard the floating-point top edge
                rank = slots - 1
            yield rank_to_slot[rank]

    return _emit(config, _streams(config, "zipf"), slot_stream())


def iter_hot_cold(config: PatternConfig, hot_space_fraction: float = 0.2,
                  hot_access_fraction: float = 0.8) -> Iterator[TraceRecord]:
    """Skewed split: the first ``hot_space_fraction`` of the region's slots
    (the hot set) receives ``hot_access_fraction`` of the accesses; both
    halves are uniform internally.  The textbook 20/80 skew is the
    default."""
    for name, value in (("hot_space_fraction", hot_space_fraction),
                        ("hot_access_fraction", hot_access_fraction)):
        Bound(gt=0, lt=1).check(name, value)
    slots = config.slots
    hot_slots = max(1, int(slots * hot_space_fraction))
    cold_slots = slots - hot_slots
    if cold_slots <= 0:
        raise ValueError(
            f"hot set ({hot_slots} slots) leaves no cold slots in a "
            f"{slots}-slot region"
        )
    rng = stream(config.seed, "pattern.hot_cold.addresses")
    random_, randrange = rng.random, rng.randrange

    def slot_stream() -> Iterator[int]:
        while True:
            if random_() < hot_access_fraction:
                yield randrange(hot_slots)
            else:
                yield hot_slots + randrange(cold_slots)

    return _emit(config, _streams(config, "hot_cold"), slot_stream())


def compose(*phases: Iterable[PatternRecord],
            pause_us: float = 0.0) -> Iterator[PatternRecord]:
    """Chain pattern streams into one suite.

    Between consecutive phases a :class:`Barrier` is emitted and then a
    :class:`Pause` of ``pause_us`` (when positive).  Each phase keeps its
    own relative timestamps — :func:`repro.workloads.driver.replay_pattern`
    restarts the clock at every barrier, so phases compose without any
    re-stamping.  Streams meant to overlap in time are merged into one
    sorted stream instead (as :func:`repro.fleet.router.device_stream`
    does), since replay requires sorted timestamps.

    Phases may themselves contain control records, so suites nest:
    ``compose(compose(a, b), c)`` behaves exactly like
    ``compose(a, b, c)``.
    """
    Bound(ge=0).check("pause_us", pause_us)
    last = len(phases) - 1
    for index, phase in enumerate(phases):
        yield from phase
        if index != last:
            yield Barrier(label=f"phase-{index}")
            if pause_us > 0:
                yield Pause(pause_us)
