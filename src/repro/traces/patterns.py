"""Composable access-pattern suite: the synthetic half of the workload zoo.

Real device studies need a *zoo* of access shapes, and the classic suites
(wiscsee's ``patternsuite``/``lbabench`` family) build them from a handful
of composable primitives.  This module ports that idea onto the repo's
streaming replay:

* every pattern is a **lazy, seeded iterator** of
  :class:`~repro.traces.record.TraceRecord`, materialized in chunks of
  :data:`CHUNK` records, so a pattern can feed
  :func:`repro.workloads.driver.replay_trace`'s one-record-ahead feeder at
  O(CHUNK) memory regardless of ``count`` (the zipf table is O(region
  slots), the same order as the FTL map itself).  Nothing is drawn until
  the first record is asked for;
* patterns share one :class:`PatternConfig` (count, region, request size,
  read/write mix, arrival process, priority tagging, seed), so "the same
  traffic, different address shape" is a one-argument change;
* patterns share one emission loop, :func:`_emit`: arrivals, the
  read/write mix and priority tagging are drawn there, and a pattern only
  supplies its address slots, one array per chunk.  The paper's own
  generator (:mod:`repro.traces.synthetic`) is one more pattern on that
  loop;
* phases compose: :func:`compose` chains pattern streams and emits
  **control records** between them — :class:`Barrier` (drain the device
  before the next phase; phase timestamps restart at the drain instant) and
  :class:`Pause` (inject idle time, e.g. to let background cleaning run).
  :func:`repro.workloads.driver.replay_trace`, the one open-loop feeder,
  reads them as they arrive (:func:`~repro.workloads.driver.replay_pattern`
  is it with a streaming sink).

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

Chunks: each stream serves one chunk's draws at once
(:func:`repro.sim.rng.random_floats` and
:func:`~repro.sim.rng.randrange_ints` replay per-call ``random()`` and
``randrange`` draws in bulk, values and generator state alike), arrival
times accumulate with ``np.add.accumulate`` (sequential, so each sum is
the one a ``now += gap`` loop makes), and the records are built in C
(:func:`repro.traces.record.build_records`).  The streams are independent,
so drawing one stream's chunk ahead of another's changes no value: every
trace is the one a record-at-a-time loop over the same per-call draws
yields.  The hot/cold and synthetic-walk address streams interleave draws
whose kind depends on earlier values on one generator, so they draw per
record inside the chunk loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd, log
from operator import itemgetter
from random import Random
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.checks import Bound, Checked, bounded
from repro.device.interface import OpType
from repro.sim.rng import random_floats, randrange_ints, stream
from repro.traces.record import TraceRecord, build_records

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


#: records per chunk: each stream draws a chunk's values at once and the
#: chunk's records are built together.  A chunk's records stay alive until
#: replayed, so a larger chunk costs garbage-collector passes over records
#: that survive them (at 1024, swtf_burst ran one extra full collection
#: and spent about 60 % more time in the collector than at 512), and a
#: smaller one pays its fixed numpy calls more often
CHUNK = 512

#: a generator's (mix, arrivals, priority) random streams
Streams = Tuple[Random, Random, Random]

#: a pattern's address slots, one array (or list) per chunk of _spans()
SlotChunks = Iterable[Union[np.ndarray, Sequence[int]]]

#: op per mix outcome: index 0 = write, 1 = read
_OPS = np.array([OpType.WRITE, OpType.READ], dtype=object)


def _streams(config: PatternConfig, name: str) -> Streams:
    """Pattern *name*'s (mix, arrivals, priority) streams, namespaced
    ``pattern.<name>.<purpose>``."""
    seed = config.seed
    return (stream(seed, f"pattern.{name}.mix"),
            stream(seed, f"pattern.{name}.arrivals"),
            stream(seed, f"pattern.{name}.priority"))


def _spans(config: PatternConfig) -> Iterator[Tuple[int, int]]:
    """``(first record index, records)`` of each chunk, in order."""
    total = config.count
    return ((first, min(CHUNK, total - first))
            for first in range(0, total, CHUNK))


def _chunks(config: PatternConfig, streams: Streams,
            slot_chunks: SlotChunks) -> Iterator[List[TraceRecord]]:
    """The one emission loop, a chunk at a time: arrivals, read/write mix
    and priority tagging around a generator-specific stream of address
    slots (record *i* lands on the *i*-th slot; the slot stream yields one
    array per chunk of :func:`_spans`).  Each stream draws what a
    record-at-a-time loop draws for the chunk's records, in order: one
    ``random()`` per record for arrivals (none for ``fixed`` spacing or a
    zero gap), for the mix (none when ``read_fraction=0``) and for
    priority (none when ``priority_fraction=0``)."""
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
    write_op = OpType.WRITE

    now = 0.0
    for (_first, n), slots in zip(_spans(config), slot_chunks):
        if gap > 0:
            if poisson:
                # expovariate(rate), per value: -log(1 - random()) / rate
                times = np.array([-log(1.0 - r) / rate for r in
                                  random_floats(arrival_rng, n).tolist()])
            elif fixed:
                times = np.full(n, fixed_gap)
            else:
                # gap * random(): uniform(0.0, gap) exactly
                times = gap * random_floats(arrival_rng, n)
            times[0] += now
            np.add.accumulate(times, out=times)
            now = float(times[-1])
        else:
            times = np.zeros(n)
        ops: Iterable[OpType] = (
            _OPS[(random_floats(mix_rng, n) < read_fraction).view(np.int8)]
            .tolist() if read_fraction else repeat(write_op))
        priorities: Iterable[int] = (
            (random_floats(priority_rng, n) < priority_fraction)
            .astype(np.int64).tolist() if priority_fraction > 0
            else repeat(0))
        offsets = np.asarray(slots, dtype=np.int64) * request_bytes + base
        yield build_records(times, ops, offsets, request_bytes, priorities)


def _emit(config: PatternConfig, streams: Streams,
          slot_chunks: SlotChunks) -> Iterator[TraceRecord]:
    """:func:`_chunks`' records one by one (a C-level chain over the chunk
    lists, so a record costs no generator resumption)."""
    return chain.from_iterable(_chunks(config, streams, slot_chunks))


def _record_indices(first: int, n: int) -> np.ndarray:
    return np.arange(first, first + n, dtype=np.int64)


def iter_sequential(config: PatternConfig,
                    start_slot: int = 0) -> Iterator[TraceRecord]:
    """Ascending sweep from ``start_slot``, wrapping at the region end."""
    slots = config.slots
    if not 0 <= start_slot < slots:
        raise ValueError(f"start_slot must be in [0, {slots}), got {start_slot}")
    return _emit(config, _streams(config, "sequential"),
                 ((start_slot + _record_indices(first, n)) % slots
                  for first, n in _spans(config)))


def iter_random(config: PatternConfig) -> Iterator[TraceRecord]:
    """Uniform-random slot per record."""
    rng = stream(config.seed, "pattern.random.addresses")
    slots = config.slots
    return _emit(config, _streams(config, "random"),
                 (randrange_ints(rng, slots, n) for _first, n in _spans(config)))


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
    # both factors reduced mod slots first, so the int64 product stays
    # below slots**2
    step %= slots
    return _emit(config, _streams(config, "strided"),
                 ((start_slot + _record_indices(first, n) % slots * step)
                  % slots for first, n in _spans(config)))


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
    request_bytes = config.request_bytes
    base = config.lba_base_bytes
    free_op = OpType.FREE
    time_of = itemgetter(0)

    def trail(chunks: Iterator[List[TraceRecord]]
              ) -> Iterator[List[TraceRecord]]:
        # the first window of writes frees nothing; after it, write i
        # frees slot ``(i - window_slots) % slots`` at its own timestamp
        first = 0  # index of the chunk's first write
        for writes in chunks:
            lead = min(len(writes), max(0, window_slots - first))
            trailing = writes[lead:]
            tails = _record_indices(first + lead - window_slots,
                                    len(trailing))
            first += len(writes)
            if not trailing:
                yield writes
                continue
            frees = build_records(
                np.fromiter(map(time_of, trailing), dtype=np.float64,
                            count=len(trailing)),
                repeat(free_op), tails % slots * request_bytes + base,
                request_bytes, repeat(0))
            paired: list = [None] * (2 * len(trailing))
            paired[0::2] = trailing
            paired[1::2] = frees
            yield writes[:lead] + paired

    return chain.from_iterable(trail(_chunks(
        config, _streams(config, "snake"),
        (_record_indices(first, n) % slots for first, n in _spans(config)))))


def iter_zipf(config: PatternConfig, theta: float = 1.0,
              scramble: bool = True) -> Iterator[TraceRecord]:
    """Zipf-popular slots: the rank-*r* slot is drawn with probability
    proportional to ``1 / r**theta``.  ``scramble`` (default) maps ranks
    onto the region through a seeded permutation so the hot slots scatter
    instead of clustering at offset 0.  The rank table is O(region slots),
    built with the first chunk; each draw is one ``searchsorted`` on it
    (``side="right"``, the same rank ``bisect_right`` finds)."""
    Bound(gt=0).check("theta", theta)
    slots = config.slots

    def slot_chunks() -> Iterator[np.ndarray]:
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, slots + 1):
            total += 1.0 / rank ** theta
            cumulative.append(total)
        table = np.array(cumulative)
        rank_to_slot = list(range(slots))
        if scramble:
            stream(config.seed, "pattern.zipf.permute").shuffle(rank_to_slot)
        ranked = np.array(rank_to_slot, dtype=np.int64)
        rng = stream(config.seed, "pattern.zipf.addresses")
        for _first, n in _spans(config):
            ranks = np.searchsorted(table, random_floats(rng, n) * total,
                                    side="right")
            # guard the floating-point top edge
            np.minimum(ranks, slots - 1, out=ranks)
            yield ranked[ranks]

    return _emit(config, _streams(config, "zipf"), slot_chunks())


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

    def slot_chunks() -> Iterator[List[int]]:
        # the coin decides which range the next draw comes from, so the
        # draws stay per record
        for _first, n in _spans(config):
            yield [randrange(hot_slots) if random_() < hot_access_fraction
                   else hot_slots + randrange(cold_slots)
                   for _ in range(n)]

    return _emit(config, _streams(config, "hot_cold"), slot_chunks())


def compose(*phases: Iterable[PatternRecord],
            pause_us: float = 0.0) -> Iterator[PatternRecord]:
    """Chain pattern streams into one suite.

    Between consecutive phases a :class:`Barrier` is emitted and then a
    :class:`Pause` of ``pause_us`` (when positive).  Each phase keeps its
    own relative timestamps: :func:`repro.workloads.driver.replay_trace`
    restarts the timeline at each barrier's drain and delays later stamps
    by each pause, rebuilding no record.  Streams meant to overlap in time
    are merged into one sorted stream instead (as
    :func:`repro.fleet.router.device_stream` does).

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
