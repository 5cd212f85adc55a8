"""Bulk-drawn pattern streams against record-at-a-time references.

Three contracts:

1. **Kernel equivalence** -- :func:`repro.sim.rng.random_floats` and
   :func:`~repro.sim.rng.randrange_ints` return the values, and leave the
   generator state, of the same number of per-call ``random()`` and
   ``randrange`` draws.
2. **Per-pattern equality** -- every ``iter_*`` generator and
   ``iter_synthetic`` yields, record for record, what
   :func:`reference_emit` (the per-call emission loop the chunked one
   replaced, kept here as the oracle) yields around the same per-call slot
   streams, across chunk boundaries, every arrival process, a write-only
   mix, no priority tagging, a zero gap and a non-zero LBA base.
3. **Laziness** -- building a generator draws nothing from any of its
   streams; the first ``next()`` does.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import count, islice, repeat

import pytest

from repro.device.interface import OpType
from repro.sim import rng as rng_module
from repro.sim.rng import random_floats, randrange_ints, stream
from repro.traces import patterns, synthetic
from repro.traces.patterns import (CHUNK, PatternConfig, iter_hot_cold,
                                   iter_random, iter_sequential, iter_snake,
                                   iter_strided, iter_zipf)
from repro.traces.record import TraceRecord
from repro.traces.synthetic import SyntheticConfig, iter_synthetic

# ---------------------------------------------------------------------------
# 1. kernel equivalence
# ---------------------------------------------------------------------------


class TestKernels:
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 100_000])
    def test_random_floats_match_per_call(self, n):
        bulk, scalar = random.Random(n + 1), random.Random(n + 1)
        values = random_floats(bulk, n)
        assert values.tolist() == [scalar.random() for _ in range(n)]
        assert bulk.getstate() == scalar.getstate()

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 100_000])
    def test_randrange_ints_match_per_call(self, n):
        bulk, scalar = random.Random(n + 2), random.Random(n + 2)
        values = randrange_ints(bulk, 1000, n)
        assert values.tolist() == [scalar.randrange(1000) for _ in range(n)]
        assert bulk.getstate() == scalar.getstate()

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_every_bit_length(self, bits):
        # the smallest stop of this bit length rejects almost half the
        # tries; the largest almost none
        for stop in {1 << (bits - 1), (1 << bits) - 1}:
            bulk, scalar = random.Random(bits), random.Random(bits)
            values = randrange_ints(bulk, stop, 4097)
            assert values.tolist() == [scalar.randrange(stop)
                                       for _ in range(4097)]
            assert bulk.getstate() == scalar.getstate()

    @pytest.mark.parametrize("stop", [2**32, 2**40 + 3])
    def test_wider_than_32_bits_draws_per_call(self, stop):
        bulk, scalar = random.Random(5), random.Random(5)
        values = randrange_ints(bulk, stop, 300)
        assert values.tolist() == [scalar.randrange(stop) for _ in range(300)]
        assert bulk.getstate() == scalar.getstate()

    def test_draws_continue_a_used_stream(self):
        bulk, scalar = random.Random(9), random.Random(9)
        for rng in (bulk, scalar):
            rng.random()
            rng.randrange(7)
        assert (random_floats(bulk, 3).tolist()
                == [scalar.random() for _ in range(3)])
        assert (randrange_ints(bulk, 10, 3).tolist()
                == [scalar.randrange(10) for _ in range(3)])
        assert bulk.getstate() == scalar.getstate()


# ---------------------------------------------------------------------------
# 2. per-pattern equality with the per-call reference
# ---------------------------------------------------------------------------


def reference_emit(config, streams, slot_stream):
    """The record-at-a-time emission loop the chunked ``_emit`` replaced:
    per record, one slot from *slot_stream*, then one arrival, mix and
    priority draw each, and a checked ``TraceRecord``."""
    mix_rng, arrival_rng, priority_rng = streams
    request_bytes = config.request_bytes
    base = config.lba_base_bytes
    read_fraction = config.read_fraction
    priority_fraction = config.priority_fraction
    gap = config.interarrival_max_us
    poisson = config.arrival_process == "poisson"
    fixed = config.arrival_process == "fixed"
    rate = 2.0 / gap if poisson and gap > 0 else 0.0
    now = 0.0
    for slot in islice(slot_stream, config.count):
        if gap > 0:
            if poisson:
                now += arrival_rng.expovariate(rate)
            elif fixed:
                now += gap / 2.0
            else:
                now += gap * arrival_rng.random()
        op = (OpType.READ
              if read_fraction and mix_rng.random() < read_fraction
              else OpType.WRITE)
        priority = (1 if priority_fraction > 0
                    and priority_rng.random() < priority_fraction else 0)
        yield TraceRecord(now, op, base + slot * request_bytes,
                          request_bytes, priority)


def _streams(config, name):
    return tuple(stream(config.seed, f"pattern.{name}.{purpose}")
                 for purpose in ("mix", "arrivals", "priority"))


def ref_sequential(config, start_slot=0):
    slots = config.slots
    return reference_emit(config, _streams(config, "sequential"),
                          ((start_slot + i) % slots for i in count()))


def ref_random(config):
    randrange = stream(config.seed, "pattern.random.addresses").randrange
    return reference_emit(config, _streams(config, "random"),
                          map(randrange, repeat(config.slots)))


def ref_strided(config, stride_bytes, start_slot=0):
    slots = config.slots
    step = stride_bytes // config.request_bytes
    return reference_emit(config, _streams(config, "strided"),
                          ((start_slot + i * step) % slots for i in count()))


def ref_snake(config, window_bytes):
    slots = config.slots
    window = window_bytes // config.request_bytes
    writes = reference_emit(config, _streams(config, "snake"),
                            (i % slots for i in count()))
    yield from islice(writes, window)
    for tail, record in enumerate(writes):
        yield record
        yield TraceRecord(record.time_us, OpType.FREE,
                          config.lba_base_bytes
                          + tail % slots * config.request_bytes,
                          config.request_bytes, 0)


def ref_zipf(config, theta=1.0, scramble=True):
    slots = config.slots
    cumulative, total = [], 0.0
    for rank in range(1, slots + 1):
        total += 1.0 / rank ** theta
        cumulative.append(total)
    rank_to_slot = list(range(slots))
    if scramble:
        stream(config.seed, "pattern.zipf.permute").shuffle(rank_to_slot)
    draw = stream(config.seed, "pattern.zipf.addresses").random

    def slot_stream():
        while True:
            rank = bisect_right(cumulative, draw() * total)
            yield rank_to_slot[min(rank, slots - 1)]

    return reference_emit(config, _streams(config, "zipf"), slot_stream())


def ref_hot_cold(config, hot_space_fraction=0.2, hot_access_fraction=0.8):
    slots = config.slots
    hot = max(1, int(slots * hot_space_fraction))
    rng = stream(config.seed, "pattern.hot_cold.addresses")

    def slot_stream():
        while True:
            if rng.random() < hot_access_fraction:
                yield rng.randrange(hot)
            else:
                yield hot + rng.randrange(slots - hot)

    return reference_emit(config, _streams(config, "hot_cold"),
                          slot_stream())


def ref_synthetic(config):
    addr = stream(config.seed, "addresses")
    slots = config.slots

    def walk():
        last = addr.randrange(slots)
        while True:
            yield last
            if addr.random() < config.seq_probability:
                last = last + 1 if last + 1 < slots else 0
            else:
                last = addr.randrange(slots)

    return reference_emit(config, tuple(stream(config.seed, name) for name
                                        in ("mix", "arrivals", "priority")),
                          walk())


#: (generator, reference, pattern arguments)
PATTERNS = {
    "sequential": (iter_sequential, ref_sequential, {"start_slot": 7}),
    "random": (iter_random, ref_random, {}),
    "strided": (iter_strided, ref_strided,
                {"stride_bytes": 13 * 4096, "start_slot": 3}),
    "zipf": (iter_zipf, ref_zipf, {"theta": 1.1}),
    "zipf_unscrambled": (iter_zipf, ref_zipf,
                         {"theta": 0.8, "scramble": False}),
    "hot_cold": (iter_hot_cold, ref_hot_cold, {}),
}

#: every arrival process, a write-only mix, untagged priority, a zero gap
#: and a non-zero LBA base; counts cross chunk boundaries
CONFIGS = {
    "uniform": dict(count=2 * CHUNK + 5, read_fraction=0.4,
                    priority_fraction=0.1),
    "poisson": dict(count=CHUNK + 1, arrival_process="poisson",
                    read_fraction=0.5, priority_fraction=0.3),
    "fixed": dict(count=CHUNK, arrival_process="fixed", read_fraction=0.2),
    "write_only": dict(count=CHUNK + 17, read_fraction=0.0,
                       priority_fraction=0.2),
    "untagged": dict(count=CHUNK - 1, read_fraction=1.0,
                     priority_fraction=0.0),
    "zero_gap": dict(count=CHUNK + 3, interarrival_max_us=0.0,
                     read_fraction=0.3, priority_fraction=0.5),
    "based": dict(count=300, lba_base_bytes=4096 * 1000,
                  read_fraction=0.5, priority_fraction=0.1, seed=11),
}


def _config(cls, settings, **extra):
    values = dict(region_bytes=4096 * 1531, request_bytes=4096,
                  interarrival_max_us=40.0, seed=7)
    values.update(settings)
    values.update(extra)
    return cls(**values)


def _same(records, reference):
    records, reference = list(records), list(reference)
    assert records == reference
    for record in records[:5] + records[-5:]:
        assert [type(value) for value in record] == \
            [float, OpType, int, int, int]


@pytest.mark.parametrize("setting", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_pattern_matches_per_call_reference(name, setting):
    generator, reference, arguments = PATTERNS[name]
    config = _config(PatternConfig, CONFIGS[setting])
    _same(generator(config, **arguments), reference(config, **arguments))


@pytest.mark.parametrize("setting", sorted(CONFIGS))
def test_synthetic_matches_per_call_reference(setting):
    config = _config(SyntheticConfig, CONFIGS[setting], seq_probability=0.3)
    _same(iter_synthetic(config), ref_synthetic(config))


@pytest.mark.parametrize("window_slots", [1, 50, CHUNK + 3])
@pytest.mark.parametrize("setting", ["uniform", "zero_gap", "based"])
def test_snake_matches_per_call_reference(setting, window_slots):
    config = _config(PatternConfig,
                     dict(CONFIGS[setting], read_fraction=0.0))
    _same(iter_snake(config, window_slots * 4096),
          ref_snake(config, window_slots * 4096))


# ---------------------------------------------------------------------------
# 3. laziness
# ---------------------------------------------------------------------------


GENERATORS = {
    **{name: (lambda config, g=generator, a=arguments: g(config, **a))
       for name, (generator, _ref, arguments) in PATTERNS.items()},
    "snake": lambda config: iter_snake(config, 50 * 4096),
    "synthetic": lambda config: iter_synthetic(
        SyntheticConfig(**{field: getattr(config, field) for field in (
            "count", "region_bytes", "request_bytes", "read_fraction",
            "interarrival_max_us", "priority_fraction", "seed")},
            seq_probability=0.3)),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_building_a_generator_draws_nothing(name, monkeypatch):
    made = []

    def recording_stream(seed, purpose):
        rng = rng_module.stream(seed, purpose)
        made.append((rng, rng.getstate()))
        return rng

    for module in (patterns, synthetic):
        monkeypatch.setattr(module, "stream", recording_stream)
    config = _config(PatternConfig, CONFIGS["uniform"], read_fraction=0.0
                     if name == "snake" else 0.4)
    records = GENERATORS[name](config)
    assert all(rng.getstate() == state for rng, state in made)
    next(records)
    assert made
    assert any(rng.getstate() != state for rng, state in made)
