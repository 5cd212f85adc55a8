"""Statistical and structural tests for the composable pattern suite.

The pattern generators are the synthetic half of the workload zoo; their
value is that each shape has a *checkable* signature.  These tests pin
those signatures on large seeded samples:

* zipf — rank-frequency slope on a log-log fit tracks ``-theta``;
* hot/cold — the hot set's access share matches the configured skew;
* strided — the slot sequence cycles with exactly :func:`strided_period`;
* snake — live data is a sliding window: every FREE trails its WRITE by
  exactly the window, and the live set never exceeds it;
* compose/replay_pattern — barriers drain and restart phase clocks,
  pauses inject idle time, and a control-free stream replays identically
  to plain :func:`replay_trace`;
* control records — :func:`replay_trace` reading a suite's barriers and
  pauses itself matches replaying each segment on its own, re-stamped by
  hand, bit for bit.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice
from math import log

import numpy as np
import pytest

from repro.device.interface import OpType
from repro.device.presets import s4slc_sim
from repro.sim.engine import Simulator
from repro.traces.patterns import (Barrier, PatternConfig, Pause, compose,
                                   iter_hot_cold, iter_random,
                                   iter_sequential, iter_snake, iter_strided,
                                   iter_zipf, strided_period)
from repro.traces.record import TraceRecord
from repro.traces.synthetic import SyntheticConfig
from repro.workloads.driver import (ShardedResult, StreamingResult,
                                    replay_pattern, replay_trace)

KB4 = 4096
MIB = 1 << 20


def _slots(records):
    return [r.offset // KB4 for r in records]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PatternConfig(count=0)
        with pytest.raises(ValueError):
            PatternConfig(request_bytes=1000)
        with pytest.raises(ValueError):
            PatternConfig(request_bytes=-4096)
        with pytest.raises(ValueError):
            PatternConfig(region_bytes=KB4, request_bytes=2 * KB4)
        with pytest.raises(ValueError):
            PatternConfig(read_fraction=1.2)
        with pytest.raises(ValueError):
            PatternConfig(priority_fraction=-0.1)
        with pytest.raises(ValueError):
            PatternConfig(arrival_process="bursty")

    def test_slots(self):
        assert PatternConfig(region_bytes=MIB, request_bytes=KB4).slots == 256

    @pytest.mark.parametrize("config_type", [PatternConfig, SyntheticConfig])
    @pytest.mark.parametrize("gap", [float("nan"), -1.0, float("inf")])
    def test_bad_interarrival_rejected(self, config_type, gap):
        """NaN and negative gaps failed the loop's ``gap > 0`` and emitted
        a silent burst at t=0; +inf stamped every record inf."""
        with pytest.raises(ValueError, match="interarrival_max_us"):
            config_type(count=5, interarrival_max_us=gap)


class TestEmission:
    """The shared emission loop: arrivals, mix, priority — same contract
    for every address shape (sampled here through iter_random)."""

    def test_deterministic_per_seed(self):
        config = PatternConfig(count=500, seed=9)
        assert list(iter_random(config)) == list(iter_random(config))
        assert (list(iter_random(config))
                != list(iter_random(PatternConfig(count=500, seed=10))))

    def test_patterns_draw_independent_streams(self):
        """Same seed, different pattern => different address stream (the
        namespacing keeps a new pattern from perturbing existing ones)."""
        config = PatternConfig(count=200, seed=4)
        assert _slots(iter_random(config)) != _slots(iter_zipf(config))

    def test_timestamps_monotone_nondecreasing(self):
        for maker in (iter_sequential, iter_random,
                      lambda c: iter_zipf(c, theta=1.2), iter_hot_cold):
            times = [r.time_us for r in maker(PatternConfig(count=300))]
            assert times == sorted(times), maker

    def test_read_and_priority_fractions(self):
        config = PatternConfig(count=5000, read_fraction=0.3,
                               priority_fraction=0.1, seed=2)
        records = list(iter_random(config))
        reads = sum(1 for r in records if r.op is OpType.READ)
        tagged = sum(1 for r in records if r.priority > 0)
        assert 0.27 < reads / 5000 < 0.33
        assert 0.08 < tagged / 5000 < 0.12

    def test_arrival_processes(self):
        fixed = list(iter_random(PatternConfig(
            count=100, interarrival_max_us=80.0, arrival_process="fixed")))
        gaps = {round(b.time_us - a.time_us, 9)
                for a, b in zip(fixed, fixed[1:])}
        assert gaps == {40.0}

        for process in ("uniform", "poisson"):
            records = list(iter_random(PatternConfig(
                count=8000, interarrival_max_us=80.0,
                arrival_process=process)))
            mean_gap = records[-1].time_us / len(records)
            assert 36.0 < mean_gap < 44.0, process

    def test_burst_mode_packs_at_zero(self):
        records = list(iter_random(PatternConfig(
            count=50, interarrival_max_us=0.0)))
        assert all(r.time_us == 0.0 for r in records)

    def test_lazy_o1_materialization(self):
        """Generators yield incrementally: taking 10 of a million-record
        pattern must not build the million."""
        config = PatternConfig(count=1_000_000, region_bytes=4 * MIB)
        head = list(islice(iter_sequential(config), 10))
        assert len(head) == 10
        assert _slots(head) == list(range(10))


class TestSequentialAndStrided:
    def test_sequential_wraps(self):
        config = PatternConfig(count=600, region_bytes=MIB)  # 256 slots
        assert _slots(iter_sequential(config)) == [
            i % 256 for i in range(600)]

    def test_sequential_start_slot(self):
        config = PatternConfig(count=10, region_bytes=MIB)
        assert _slots(iter_sequential(config, start_slot=250)) == [
            (250 + i) % 256 for i in range(10)]
        with pytest.raises(ValueError):
            iter_sequential(config, start_slot=256)

    def test_strided_progression_and_period(self):
        config = PatternConfig(count=2048, region_bytes=8 * MIB)  # 2048 slots
        stride = 64 * KB4  # 64 slots -> period 2048/gcd(64,2048) = 32
        period = strided_period(config, stride)
        assert period == 32
        slots = _slots(iter_strided(config, stride))
        assert slots[:period] == [(i * 64) % 2048 for i in range(period)]
        assert len(set(slots[:period])) == period  # no revisit inside a cycle
        assert slots[period] == slots[0]  # exact cycle
        assert slots == slots[:period] * (2048 // period)

    def test_strided_coprime_covers_region(self):
        config = PatternConfig(count=256, region_bytes=MIB)  # 256 slots
        stride = 3 * KB4  # 3 slots, coprime with 256 -> full coverage
        assert strided_period(config, stride) == 256
        assert set(_slots(iter_strided(config, stride))) == set(range(256))

    def test_strided_validation(self):
        config = PatternConfig(count=10)
        with pytest.raises(ValueError):
            iter_strided(config, stride_bytes=KB4 + 512)
        with pytest.raises(ValueError):
            iter_strided(config, stride_bytes=0)
        with pytest.raises(ValueError):
            iter_strided(config, KB4, start_slot=-1)


class TestRandom:
    def test_bounds_and_coverage(self):
        config = PatternConfig(count=20_000, region_bytes=MIB, seed=6)
        slots = _slots(iter_random(config))
        assert 0 <= min(slots) and max(slots) < 256
        # uniform: each half of the region takes about half the accesses
        low = sum(1 for s in slots if s < 128) / len(slots)
        assert 0.47 < low < 0.53
        # and a 20k sample touches essentially every one of the 256 slots
        assert len(set(slots)) >= 250


class TestSnake:
    def _records(self, count=3000, region=4 * MIB, window=MIB, **kwargs):
        config = PatternConfig(count=count, region_bytes=region,
                               interarrival_max_us=10.0, **kwargs)
        return config, list(iter_snake(config, window_bytes=window))

    def test_structure_counts(self):
        config, records = self._records()
        window_slots = MIB // KB4  # 256
        writes = [r for r in records if r.op is OpType.WRITE]
        frees = [r for r in records if r.op is OpType.FREE]
        assert len(writes) == 3000
        assert len(frees) == 3000 - window_slots
        assert len(records) == len(writes) + len(frees)

    def test_free_trails_write_by_exactly_the_window(self):
        config, records = self._records()
        slots = config.slots
        window_slots = MIB // KB4
        head = -1
        for record in records:
            slot = record.offset // KB4
            if record.op is OpType.WRITE:
                head += 1
                assert slot == head % slots
            else:
                assert slot == (head - window_slots) % slots

    def test_free_shares_timestamp_with_its_write(self):
        _, records = self._records(count=600)
        for prev, cur in zip(records, records[1:]):
            if cur.op is OpType.FREE:
                assert prev.op is OpType.WRITE
                assert cur.time_us == prev.time_us

    def test_live_set_bounded_by_window(self):
        config, records = self._records(count=5000, region=2 * MIB,
                                        window=MIB // 2)
        live = set()
        high_water = 0
        for record in records:
            slot = record.offset // KB4
            if record.op is OpType.WRITE:
                live.add(slot)
            else:
                assert slot in live, "free of a non-live slot"
                live.discard(slot)
            high_water = max(high_water, len(live))
        window_slots = (MIB // 2) // KB4
        assert high_water == window_slots + 1  # head written before tail freed

    def test_validation(self):
        config = PatternConfig(count=10, region_bytes=MIB)
        with pytest.raises(ValueError):
            iter_snake(PatternConfig(count=10, read_fraction=0.5), MIB)
        with pytest.raises(ValueError):
            iter_snake(config, window_bytes=0)
        with pytest.raises(ValueError):
            iter_snake(config, window_bytes=MIB)  # window == region
        with pytest.raises(ValueError):
            iter_snake(config, window_bytes=KB4 + 512)


class TestZipf:
    def test_rank_frequency_slope(self):
        """log(count) vs log(rank) is a line of slope ~ -theta.  With
        ``scramble=False`` slot index == rank-1, so the counts read off
        directly."""
        for theta in (0.8, 1.2):
            config = PatternConfig(count=60_000, region_bytes=4 * MIB, seed=3)
            counts = Counter(_slots(iter_zipf(config, theta=theta,
                                              scramble=False)))
            ranks = np.arange(1, 21)
            freqs = np.array([counts[r - 1] for r in ranks], dtype=float)
            assert freqs.min() > 50  # enough mass for a stable fit
            slope = np.polyfit(np.log(ranks), np.log(freqs), 1)[0]
            assert abs(slope + theta) < 0.12, (theta, slope)

    def test_scramble_permutes_labels_not_popularity(self):
        config = PatternConfig(count=30_000, region_bytes=MIB, seed=8)
        plain = Counter(_slots(iter_zipf(config, scramble=False)))
        scrambled = Counter(_slots(iter_zipf(config, scramble=True)))
        # same draws, relabeled slots: the popularity multiset is identical
        assert sorted(plain.values()) == sorted(scrambled.values())
        assert plain != scrambled  # but the hot slot moved

    def test_covers_whole_region(self):
        config = PatternConfig(count=50_000, region_bytes=MIB, seed=1)
        assert max(_slots(iter_zipf(config, theta=0.5))) == 255

    def test_validation(self):
        # a NaN or infinite theta put every record on one slot
        for theta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="theta"):
                iter_zipf(PatternConfig(count=10), theta=theta)


class TestHotCold:
    def test_access_share(self):
        config = PatternConfig(count=20_000, region_bytes=4 * MIB, seed=5)
        slots = _slots(iter_hot_cold(config, hot_space_fraction=0.2,
                                     hot_access_fraction=0.8))
        hot_slots = int((4 * MIB // KB4) * 0.2)
        hot = sum(1 for s in slots if s < hot_slots) / len(slots)
        assert 0.78 < hot < 0.82
        # cold half still sees traffic, uniformly over its own span
        cold = [s for s in slots if s >= hot_slots]
        assert len(set(cold)) > 0.9 * (4 * MIB // KB4 - hot_slots)

    def test_skew_knob(self):
        config = PatternConfig(count=20_000, region_bytes=4 * MIB, seed=5)
        slots = _slots(iter_hot_cold(config, hot_space_fraction=0.1,
                                     hot_access_fraction=0.95))
        hot_slots = int((4 * MIB // KB4) * 0.1)
        hot = sum(1 for s in slots if s < hot_slots) / len(slots)
        assert 0.93 < hot < 0.97

    def test_validation(self):
        config = PatternConfig(count=10)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                iter_hot_cold(config, hot_space_fraction=bad)
            with pytest.raises(ValueError):
                iter_hot_cold(config, hot_access_fraction=bad)


class TestCompose:
    def _phase(self, count, seed):
        return list(iter_sequential(PatternConfig(count=count, seed=seed)))

    def test_barriers_between_phases(self):
        a, b, c = self._phase(5, 1), self._phase(5, 2), self._phase(5, 3)
        out = list(compose(a, b, c))
        barriers = [x for x in out if isinstance(x, Barrier)]
        assert [x.label for x in barriers] == ["phase-0", "phase-1"]
        data = [x for x in out if not isinstance(x, Barrier)]
        assert data == a + b + c

    def test_pause_after_barrier(self):
        a, b = self._phase(3, 1), self._phase(3, 2)
        out = list(compose(a, b, pause_us=500.0))
        assert isinstance(out[3], Barrier) and isinstance(out[4], Pause)
        assert out[4].delta_us == 500.0

    def test_barrier_always_separates_phases(self):
        a, b = self._phase(3, 1), self._phase(3, 2)
        out = list(compose(a, b))
        assert out[:3] == a and out[4:] == b
        assert isinstance(out[3], Barrier)

    def test_nesting_flattens(self):
        a, b, c = self._phase(4, 1), self._phase(4, 2), self._phase(4, 3)
        nested = list(compose(compose(a, b), c))
        flat = list(compose(a, b, c))
        # nested keeps a's/b's records and controls in the same order;
        # only barrier labels differ (position within their compose call)
        assert ([type(x) for x in nested] == [type(x) for x in flat])
        assert ([x for x in nested if not isinstance(x, (Barrier, Pause))]
                == [x for x in flat if not isinstance(x, (Barrier, Pause))])

    def test_validation(self):
        for pause_us in (-1.0, float("nan")):  # NaN skipped the pause
            with pytest.raises(ValueError, match="pause_us"):
                list(compose([], [], pause_us=pause_us))
        with pytest.raises(ValueError):
            Pause(-5.0)


class TestReplayPattern:
    def _device(self, trim=False):
        sim = Simulator()
        device = s4slc_sim(sim, element_mb=8, trim_enabled=trim)
        return sim, device

    def test_control_free_stream_matches_replay_trace(self):
        config = PatternConfig(count=800, region_bytes=4 * MIB,
                               read_fraction=0.3, interarrival_max_us=50.0,
                               seed=12)
        sim_a, dev_a = self._device()
        plain = replay_trace(sim_a, dev_a, iter_random(config),
                             sink=StreamingResult())
        sim_b, dev_b = self._device()
        patterned = replay_pattern(sim_b, dev_b, iter_random(config))
        assert sim_a.now == sim_b.now
        assert sim_a.events_run == sim_b.events_run
        assert dev_a.ftl.stats.as_dict() == dev_b.ftl.stats.as_dict()
        assert patterned.count == plain.count
        assert patterned.elapsed_us == plain.elapsed_us

    def test_barrier_restarts_phase_clock(self):
        """Two composed phases take about as long as the two replayed
        back-to-back — the barrier restarts the relative timeline instead
        of stacking phase 2 on phase 1's absolute timestamps."""
        def phase(seed):
            # fixed 500us gaps keep the replay arrival-dominated (device
            # service is ~160us/request), so phase span ~= arrival span
            return iter_random(PatternConfig(
                count=100, region_bytes=4 * MIB,
                interarrival_max_us=1000.0, arrival_process="fixed",
                seed=seed))

        sim, device = self._device()
        result = replay_pattern(sim, device, compose(phase(1), phase(2)))
        assert result.count == 200
        assert not result.errors
        # each phase spans ~100*500us again after its barrier; had phase 2
        # kept phase 1's absolute clock its records would all be stamped in
        # the past at the drain instant and fire immediately, ending the
        # replay just past one phase span
        assert 2 * 100 * 500.0 < sim.now < 2.1 * 100 * 500.0

    def test_pause_injects_idle_time(self):
        def phases():
            def phase(seed):
                return iter_random(PatternConfig(
                    count=50, region_bytes=4 * MIB,
                    interarrival_max_us=1000.0, arrival_process="fixed",
                    seed=seed))
            return phase(1), phase(2)

        sim_a, dev_a = self._device()
        replay_pattern(sim_a, dev_a, compose(*phases()))
        sim_b, dev_b = self._device()
        replay_pattern(sim_b, dev_b, compose(*phases(), pause_us=25_000.0))
        assert sim_b.now == pytest.approx(sim_a.now + 25_000.0)

    def test_snake_on_informed_device_trims(self):
        config = PatternConfig(count=1500, region_bytes=2 * MIB,
                               interarrival_max_us=20.0, seed=7)
        sim, device = self._device(trim=True)
        result = replay_pattern(sim, device,
                                iter_snake(config, window_bytes=MIB // 2))
        assert not result.errors
        stats = device.ftl.stats
        assert stats.trims == 1500 - (MIB // 2) // KB4
        assert stats.trimmed_pages > 0
        device.ftl.check_consistency()

    def test_empty_stream(self):
        sim, device = self._device()
        result = replay_pattern(sim, device, iter(()))
        assert result.count == 0

    def test_sharded_children_share_the_suite_span(self):
        """Every child of a sharded sink spans the whole suite, pauses and
        drains included, as the parent does."""
        def phase(seed):
            return iter_random(PatternConfig(
                count=200, region_bytes=4 * MIB, priority_fraction=0.3,
                interarrival_max_us=200.0, seed=seed))

        sim, device = self._device()
        children = [StreamingResult(), StreamingResult()]
        sink = ShardedResult(children, lambda request: request.priority)
        replay_pattern(sim, device, compose(phase(1), phase(2),
                                            pause_us=5_000.0), sink=sink)
        assert sink.elapsed_us == sim.now > 5_000.0
        assert all(child.count for child in children)
        assert [child.elapsed_us for child in children] == [sim.now] * 2

    def test_unsorted_after_pause_quotes_the_records_own_times(self):
        def write(time_us):
            return TraceRecord(time_us, OpType.WRITE, 0, KB4)

        sim, device = self._device()
        stream = [write(0.0), Pause(10.0), write(5.0), write(1.0)]
        with pytest.raises(ValueError,
                           match=r"a record at 1\.0 us follows one at 5\.0 us"):
            replay_pattern(sim, device, stream)


def _phase(seed, count=300):
    return iter_random(PatternConfig(
        count=count, region_bytes=4 * MIB, read_fraction=0.4,
        priority_fraction=0.2, interarrival_max_us=120.0, seed=seed))


def _paused_mid_phase():
    phase = _phase(31)
    return chain(islice(phase, 120), [Pause(700.0)], phase)


#: (suite factory, time_scale): suites whose control records sit where a
#: segment-at-a-time replay is easiest to get wrong
_SUITES = {
    "nested": (lambda: compose(
        _phase(1), compose(_phase(2), _phase(3), pause_us=900.0), _phase(4)),
        1.0),
    "nested_half_scale": (lambda: compose(
        compose(_phase(5), _phase(6)), _phase(7), pause_us=400.0), 0.5),
    "edge_barriers": (lambda: chain(
        [Barrier()], _phase(11), [Barrier(), Barrier()], _phase(12),
        [Barrier()]), 1.0),
    "pause_mid_phase": (_paused_mid_phase, 1.0),
    "pause_mid_phase_half_scale": (_paused_mid_phase, 0.5),
}


def _segments_replayed_one_by_one(sim, device, suite, time_scale, sink):
    """The reference: split ``suite`` at its barriers, re-stamp each record
    by its segment's summed pauses, replay each segment as a control-free
    stream and finalize the sink after each drain."""
    begin = sim.now
    segments, offset = [[]], 0.0
    for item in suite:
        if type(item) is Barrier:
            segments.append([])
            offset = 0.0
        elif type(item) is Pause:
            offset += item.delta_us
        else:
            segments[-1].append(item._replace(time_us=item.time_us + offset))
    for segment in segments:
        replay_trace(sim, device, segment, time_scale=time_scale, sink=sink)
        sink.finalize()
    sink.elapsed_us = sim.now - begin


def _sink_state(sink):
    """A streaming sink's canonical state, floats exact."""
    rows = []
    for key, aggregate in sink.class_items():
        recorder = aggregate.latencies
        sketch, reservoir = recorder.sketch, recorder.reservoir
        rows.append((key, aggregate.bytes, list(recorder.buffer),
                     sketch.count, sketch.bucket_items(), sketch.sum.hex(),
                     sketch.min.hex(), sketch.max.hex(), reservoir.seen,
                     [value.hex() for value in reservoir.samples]))
    return rows, sink.errors, sink.elapsed_us.hex()


@pytest.mark.parametrize("name", sorted(_SUITES))
def test_replay_trace_reads_control_records(name):
    """``replay_trace`` fed a suite straight matches the suite replayed
    one segment at a time: clock, events, FTL stats and the sink's
    canonical state (the sketch ``sum`` included, which only matches when
    the sink is finalized at every drain)."""
    make_suite, time_scale = _SUITES[name]
    runs = []
    for replay in (replay_trace, _segments_replayed_one_by_one):
        sim = Simulator()
        device = s4slc_sim(sim, element_mb=8)
        sink = StreamingResult()
        replay(sim, device, make_suite(), time_scale, sink)
        runs.append((sim.now.hex(), sim.events_run,
                     device.ftl.stats.as_dict(), _sink_state(sink)))
        assert sink.count > 0 and not sink.errors
    assert runs[0] == runs[1]
