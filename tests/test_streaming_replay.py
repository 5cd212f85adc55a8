"""Streaming (bounded-memory) replay results: sketch, reservoir, sink.

Pins the PR 3 contracts:

1. **Sketch accuracy** — :class:`QuantileSketch` quantiles stay within the
   configured relative error of exact percentiles, with exact count, mean,
   and max; merging sketches is exact.
2. **Reservoir** — bounded size, deterministic per seed.
3. **Sink equivalence** — replaying through a :class:`StreamingResult`
   leaves the *simulation* bit-identical to list mode (clock, event count,
   FTL stats) and answers the same queries within sketch tolerance; the
   100k-record cross-check is the acceptance gate for the 10M pipeline.
4. **Bounded memory** — the streaming result's footprint is a handful of
   per-class aggregates no matter how many records flow through.
"""

from __future__ import annotations

import math
import random
import signal

import numpy as np
import pytest

from repro.device.interface import OpType
from repro.device.presets import s4slc_sim
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.ftl.prefill import prefill_pagemap
from repro.sim.engine import Simulator
from repro.sim.stats import (LatencySummary, QuantileSketch,
                             ReservoirSampler, StreamingLatencyRecorder,
                             percentile)
from repro.traces.record import TraceRecord
from repro.traces.synthetic import (SyntheticConfig, generate_synthetic,
                                    iter_synthetic)
from repro.units import mb_per_s
from repro.workloads.driver import (StreamingResult, WorkloadResult,
                                    replay_trace)
from tests.conftest import small_geometry

KB4 = 4096


class TestQuantileSketch:
    def _exact(self, values, q):
        return percentile(sorted(values), q)

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_quantiles_within_relative_error(self, alpha):
        rng = random.Random(42)
        values = [rng.lognormvariate(5.0, 1.5) for _ in range(50_000)]
        sketch = QuantileSketch(alpha)
        for value in values:
            sketch.add(value)
        for q in (0.01, 0.25, 0.50, 0.90, 0.95, 0.99):
            exact = self._exact(values, q)
            estimate = sketch.quantile(q)
            # α bounds the distance to the true order statistic; allow a
            # hair more for the exact side's interpolation between ranks
            assert abs(estimate - exact) / exact < 2 * alpha + 0.005, q

    def test_count_mean_max_are_exact(self):
        values = [3.5, 1.25, 100.0, 42.0, 0.75]
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)
        assert sketch.count == 5
        assert sketch.mean == pytest.approx(sum(values) / 5, rel=1e-12)
        assert sketch.max == 100.0
        assert sketch.min == 0.75
        assert sketch.quantile(1.0) == 100.0

    def test_empty_sketch_raises_like_percentile(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(0.5)

    def test_sub_floor_values_collapse_to_zero_bucket(self):
        sketch = QuantileSketch(floor=1.0)
        for _ in range(10):
            sketch.add(1e-6)
        sketch.add(100.0)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == 100.0

    def test_merge_equals_feeding_one_sketch(self):
        rng = random.Random(7)
        values = [rng.expovariate(0.01) for _ in range(5000)]
        combined = QuantileSketch()
        half_a, half_b = QuantileSketch(), QuantileSketch()
        for i, value in enumerate(values):
            combined.add(value)
            (half_a if i % 2 else half_b).add(value)
        half_a.merge(half_b)
        assert half_a.count == combined.count
        assert half_a.sum == pytest.approx(combined.sum, rel=1e-12)
        for q in (0.1, 0.5, 0.99):
            assert half_a.quantile(q) == combined.quantile(q)

    def test_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_memory_bounded_by_dynamic_range_not_count(self):
        sketch = QuantileSketch()
        rng = random.Random(3)
        for _ in range(200_000):
            sketch.add(rng.uniform(1.0, 1e7))
        # log_gamma(1e7) ≈ 810 buckets at alpha=1% — count-independent
        assert len(sketch.bucket_items()) < 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(floor=0.0)
        with pytest.raises(ValueError):
            QuantileSketch().add(-1.0)
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    @pytest.mark.parametrize("floor, shown", [(math.inf, "inf"),
                                              (math.nan, "NaN")])
    def test_non_finite_floor_refused(self, floor, shown):
        """An infinite floor sent every sample to the zero bucket, so
        p50/p95/p99 all read 0.0; a NaN floor failed at the first add."""
        with pytest.raises(ValueError, match=f"^floor must be .*got {shown}$"):
            QuantileSketch(floor=floor)


class TestReservoirSampler:
    def test_size_bounded_and_deterministic(self):
        def fill(seed):
            reservoir = ReservoirSampler(capacity=64, seed=seed)
            for i in range(10_000):
                reservoir.add(float(i))
            return list(reservoir.samples)

        assert len(fill(1)) == 64
        assert fill(1) == fill(1)
        assert fill(1) != fill(2)

    def test_short_stream_kept_verbatim(self):
        reservoir = ReservoirSampler(capacity=8)
        for i in range(5):
            reservoir.add(float(i))
        assert reservoir.samples == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert reservoir.seen == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirSampler(capacity=0)


class TestStreamingLatencyRecorder:
    def test_summary_matches_exact_recorder_within_alpha(self):
        rng = random.Random(11)
        samples = []
        streaming = StreamingLatencyRecorder(alpha=0.01)
        for _ in range(30_000):
            latency = rng.lognormvariate(6.0, 1.0)
            samples.append(latency)
            streaming.record(latency)
        a, b = LatencySummary.exact(samples), streaming.summary()
        assert b.count == a.count
        assert b.mean_us == pytest.approx(a.mean_us, rel=1e-9)
        assert b.max_us == a.max_us
        for field in ("p50_us", "p95_us", "p99_us"):
            assert getattr(b, field) == pytest.approx(
                getattr(a, field), rel=0.025
            ), field

    def test_empty_summary_is_zeros(self):
        summary = StreamingLatencyRecorder().summary()
        assert summary.count == 0 and summary.mean_us == 0.0


class TestQuantileSketchBatch:
    """The numpy batch kernel must be *bit-identical* to scalar adds:
    the perf-report fingerprints hash bucket contents, so an off-by-one-ULP
    boundary would read as a behaviour change."""

    def _values(self, n=20_000):
        rng = random.Random(1234)
        values = [rng.lognormvariate(4.0, 2.0) for _ in range(n)]
        # adversarial points: zeros, sub-floor, exact powers of gamma
        # (bucket edges), and huge outliers that force boundary regrowth
        sketch = QuantileSketch()
        gamma = sketch._gamma
        values += [0.0, 1e-12, 5e-7, 1e9, 3.7e8]
        values += [gamma ** k for k in range(0, 400, 17)]
        rng.shuffle(values)
        return values

    def test_add_many_buckets_bit_identical_to_scalar(self):
        values = self._values()
        scalar, batched = QuantileSketch(), QuantileSketch()
        for value in values:
            scalar.add(value)
        # uneven chunk sizes, including size-1 and empty
        i, sizes = 0, [1, 0, 4096, 7, 1000, 3, len(values)]
        for size in sizes:
            batched.add_many(np.asarray(values[i:i + size], dtype=np.float64))
            i += size
        assert batched._buckets == scalar._buckets
        assert batched._zero_count == scalar._zero_count
        assert batched.count == scalar.count
        assert batched.min == scalar.min
        assert batched.max == scalar.max
        assert batched.sum == pytest.approx(scalar.sum, rel=1e-12)
        for q in (0.01, 0.5, 0.95, 0.999, 1.0):
            assert batched.quantile(q) == scalar.quantile(q)

    def test_add_many_interleaves_with_scalar_adds(self):
        values = self._values(5000)
        scalar, mixed = QuantileSketch(), QuantileSketch()
        for value in values:
            scalar.add(value)
        mixed.add_many(np.asarray(values[:2000]))
        for value in values[2000:2500]:
            mixed.add(value)
        mixed.add_many(np.asarray(values[2500:]))
        assert mixed._buckets == scalar._buckets
        assert mixed.count == scalar.count

    def test_add_many_rejects_negative(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add_many(np.asarray([1.0, -0.5, 2.0]))
        # the failed batch must not have been partially folded
        assert sketch.count == 0

    def test_add_many_empty_is_noop(self):
        sketch = QuantileSketch()
        sketch.add_many(np.asarray([], dtype=np.float64))
        assert sketch.count == 0

    def test_shared_edge_table_equals_fresh_build(self, monkeypatch):
        from repro.sim import stats

        shared = QuantileSketch()
        shared.add_many(np.asarray([3e6]))
        table = shared._boundaries
        # a private, empty table forces this sketch to build its own
        monkeypatch.setattr(stats, "_EDGES", {})
        fresh = QuantileSketch()
        fresh.add_many(np.asarray([table[-1]]))
        assert fresh._boundaries.tobytes() == table.tobytes()

    def test_growing_one_sketch_never_changes_another(self, monkeypatch):
        from repro.sim import stats

        monkeypatch.setattr(stats, "_EDGES", {})
        values = self._values(3000)
        small, big = QuantileSketch(), QuantileSketch()
        small.add_many(np.asarray([v for v in values if v < 100.0]))
        table = small._boundaries.copy()
        buckets = dict(small._buckets)
        big.add_many(np.asarray(values + [1e9]))  # grows the shared table
        assert len(big._boundaries) > len(table)
        assert small._boundaries.tobytes() == table.tobytes()
        assert dict(small._buckets) == buckets
        # and both still bucket exactly like the scalar path
        for sketch, batch in ((small, [v for v in values if v < 100.0]),
                              (big, values + [1e9])):
            scalar = QuantileSketch()
            for value in batch:
                scalar.add(value)
            assert sketch._buckets == scalar._buckets


class TestReservoirSamplerBatch:
    def test_add_many_state_and_rng_identical_to_scalar(self):
        rng = random.Random(77)
        values = [rng.uniform(0.0, 1e6) for _ in range(30_000)]
        scalar = ReservoirSampler(capacity=256, seed=9)
        batched = ReservoirSampler(capacity=256, seed=9)
        for value in values:
            scalar.add(value)
        i, sizes = 0, [100, 1, 156, 4096, 0, 5000, len(values)]
        for size in sizes:
            batched.add_many(np.asarray(values[i:i + size]))
            i += size
        assert batched.samples == scalar.samples
        assert batched.seen == scalar.seen
        # RNG call sequences were identical iff the continuations agree
        for value in (1.5, 2.5, 3.5):
            for _ in range(2000):
                scalar.add(value)
                batched.add(value)
        assert batched.samples == scalar.samples

    def test_add_many_fill_phase_is_verbatim(self):
        reservoir = ReservoirSampler(capacity=16, seed=3)
        reservoir.add_many(np.asarray([float(i) for i in range(10)]))
        assert reservoir.samples == [float(i) for i in range(10)]
        assert reservoir.seen == 10


class TestReservoirSamplerMerge:
    def test_merge_is_uniform_over_concatenation(self):
        # merged sample's mean must track the combined stream's mean
        # within reservoir sampling error (capacity 1024 => stderr ~ 1/32
        # of the stream stddev); seeds make the check deterministic
        rng = random.Random(5)
        stream_a = [rng.gauss(100.0, 10.0) for _ in range(40_000)]
        stream_b = [rng.gauss(300.0, 10.0) for _ in range(10_000)]
        a = ReservoirSampler(capacity=1024, seed=1)
        b = ReservoirSampler(capacity=1024, seed=2)
        a.add_many(np.asarray(stream_a))
        b.add_many(np.asarray(stream_b))
        a.merge(b)
        assert a.seen == 50_000
        assert len(a.samples) == 1024
        combined_mean = (sum(stream_a) + sum(stream_b)) / 50_000
        sample_mean = sum(a.samples) / len(a.samples)
        # stream stddev is ~87 (bimodal); 5 sigma of the sample mean
        assert abs(sample_mean - combined_mean) < 5 * 87 / math.sqrt(1024)
        # roughly 4/5 of the sample should come from the 4/5-weight side
        from_a = sum(1 for s in a.samples if s < 200.0)
        assert 0.7 < from_a / 1024 < 0.9

    def test_merge_exhaustive_sides_concatenate(self):
        a = ReservoirSampler(capacity=64, seed=1)
        b = ReservoirSampler(capacity=64, seed=2)
        for i in range(10):
            a.add(float(i))
        for i in range(20):
            b.add(float(100 + i))
        a.merge(b)
        assert a.seen == 30
        assert a.samples == ([float(i) for i in range(10)]
                             + [float(100 + i) for i in range(20)])

    def test_merge_deterministic_and_keeps_accepting(self):
        def build():
            a = ReservoirSampler(capacity=32, seed=11)
            b = ReservoirSampler(capacity=32, seed=22)
            a.add_many(np.asarray([float(i) for i in range(1000)]))
            b.add_many(np.asarray([float(1000 + i) for i in range(1000)]))
            a.merge(b)
            for i in range(500):
                a.add(float(2000 + i))
            return a

        x, y = build(), build()
        assert x.samples == y.samples
        assert x.seen == y.seen == 2500

    def test_merge_empty_other_is_noop(self):
        a = ReservoirSampler(capacity=8, seed=1)
        a.add(1.0)
        a.merge(ReservoirSampler(capacity=8, seed=2))
        assert a.samples == [1.0] and a.seen == 1

    def test_merge_rejects_capacity_mismatch(self):
        with pytest.raises(ValueError):
            ReservoirSampler(capacity=8).merge(ReservoirSampler(capacity=16))


class TestBufferedRecorder:
    def test_buffered_recorder_matches_scalar_bit_for_bit(self):
        rng = random.Random(21)
        values = [rng.lognormvariate(5.0, 1.5) for _ in range(20_000)]
        values += [0.0] * 37
        sketch = QuantileSketch()
        reservoir = ReservoirSampler(capacity=1024, seed=4)
        recorder = StreamingLatencyRecorder(seed=4)
        for value in values:
            sketch.add(value)
            reservoir.add(value)
            recorder.record(value)
        # count must see unflushed samples
        assert recorder.count == sketch.count == len(values)
        assert recorder.samples == reservoir.samples
        assert recorder.sketch._buckets == sketch._buckets
        a, b = sketch.summary(), recorder.summary()
        assert (a.count, a.max_us) == (b.count, b.max_us)
        assert b.mean_us == pytest.approx(a.mean_us, rel=1e-9)
        assert (a.p50_us, a.p95_us, a.p99_us) == (b.p50_us, b.p95_us, b.p99_us)

    def test_flush_is_idempotent_and_buffer_drains(self):
        recorder = StreamingLatencyRecorder()
        recorder.record(5.0)
        assert len(recorder.buffer) == 1
        recorder.flush()
        assert recorder.buffer == []
        recorder.flush()
        assert recorder.count == 1


class _QueueHighWater:
    """Wraps a device's submit to record the deepest host queue seen."""

    def __init__(self, device):
        self.device = device
        self.max_queued = 0
        self._submit = device.submit

    def __call__(self, request):
        self._submit(request)
        if self.device.queued > self.max_queued:
            self.max_queued = self.device.queued


class TestStreamingResultSink:
    def _replay(self, sink, count=3000, seed=5):
        sim = Simulator()
        device = SSD(sim, SSDConfig(
            n_elements=4, geometry=small_geometry(), scheduler="swtf",
            controller_overhead_us=5.0, max_inflight=8,
        ))
        trace = generate_synthetic(SyntheticConfig(
            count=count,
            region_bytes=int(device.capacity_bytes * 0.6),
            request_bytes=KB4,
            read_fraction=0.5,
            priority_fraction=0.2,
            interarrival_max_us=120.0,
            seed=seed,
        ))
        result = replay_trace(sim, device, trace, sink=sink)
        return result, sim, device

    def test_simulation_identical_to_list_mode(self):
        streaming, sim_s, dev_s = self._replay(StreamingResult())
        listed, sim_l, dev_l = self._replay(None)
        assert sim_s.now == sim_l.now
        assert sim_s.events_run == sim_l.events_run
        assert dev_s.ftl.stats.as_dict() == dev_l.ftl.stats.as_dict()
        assert streaming.elapsed_us == listed.elapsed_us
        assert streaming.count == listed.count

    def test_workload_result_is_a_sink(self):
        """Passing the list-mode result as the sink is the default call:
        both go through ``WorkloadResult.record``."""
        explicit, sim_e, _ = self._replay(WorkloadResult())
        default, sim_d, _ = self._replay(None)
        assert sim_e.now == sim_d.now
        assert explicit.elapsed_us == default.elapsed_us
        assert explicit.completions == default.completions
        for op in (None, OpType.READ, OpType.WRITE):
            assert explicit.latency(op=op) == default.latency(op=op)
            assert explicit.bandwidth_mb_s(op) == default.bandwidth_mb_s(op)

    def test_query_api_parity(self):
        streaming, _, _ = self._replay(StreamingResult(seed=123))
        listed, _, _ = self._replay(None)
        for kwargs in (dict(), dict(op=OpType.READ), dict(op=OpType.WRITE),
                       dict(priority=True), dict(priority=False),
                       dict(op=OpType.WRITE, priority=False)):
            a = listed.latency(**kwargs)
            b = streaming.latency(**kwargs)
            assert b.count == a.count, kwargs
            assert b.mean_us == pytest.approx(a.mean_us, rel=1e-9), kwargs
            assert b.max_us == a.max_us, kwargs
            if a.count:
                for field in ("p50_us", "p95_us", "p99_us"):
                    assert getattr(b, field) == pytest.approx(
                        getattr(a, field), rel=0.03
                    ), (kwargs, field)
        for op in (None, OpType.READ, OpType.WRITE):
            assert streaming.bandwidth_mb_s(op) == pytest.approx(
                listed.bandwidth_mb_s(op), rel=1e-9
            )

    def test_result_memory_is_class_bounded(self):
        streaming, _, _ = self._replay(StreamingResult(reservoir_k=32))
        assert len(streaming._classes) <= 8
        for aggregate in streaming._classes.values():
            assert len(aggregate.latencies.reservoir.samples) <= 32
            assert len(aggregate.latencies.sketch.bucket_items()) < 1000

    def test_device_holds_no_per_record_state(self):
        """Latency is the sink's to record: the device only counts, so
        every ``DeviceStats`` slot is a number, and its completion counters
        agree with the sink's per-class success counts."""
        sim = Simulator()
        device = SSD(sim, SSDConfig(
            n_elements=4, geometry=small_geometry(),
            controller_overhead_us=5.0,
        ))
        trace = generate_synthetic(SyntheticConfig(
            count=3000, region_bytes=int(device.capacity_bytes * 0.5),
            request_bytes=KB4, read_fraction=0.5, priority_fraction=0.2,
            interarrival_max_us=100.0, seed=4,
        ))
        sink = replay_trace(sim, device, trace, sink=StreamingResult())
        stats = device.stats
        assert not hasattr(stats, "__dict__")
        for slot in type(stats).__slots__:
            assert type(getattr(stats, slot)) in (int, float), slot
        assert stats.reads + stats.writes == 3000 == sink.count
        assert stats.requests_failed == 0
        assert stats.reads == sink.latency(op=OpType.READ).count > 0
        assert stats.writes == sink.latency(op=OpType.WRITE).count > 0
        moved = {op: sum(aggregate.bytes
                         for (key_op, _), aggregate in sink.class_items()
                         if key_op is op)
                 for op in (OpType.READ, OpType.WRITE)}
        assert stats.bytes_read == moved[OpType.READ]
        assert stats.bytes_written == moved[OpType.WRITE]

    def test_empty_filters_return_zero_summary(self):
        streaming, _, _ = self._replay(StreamingResult())
        summary = streaming.latency(op=OpType.FREE)
        assert summary.count == 0 and summary.max_us == 0.0


def _faulty_write_replay(sink):
    """Ten 4 KiB writes, no host retries, every other FTL write failing
    with a transient error."""
    sim = Simulator()
    device = SSD(sim, SSDConfig(
        n_elements=2, geometry=small_geometry(),
        controller_overhead_us=2.0, host_retry_limit=0,
    ))
    ftl = device.ftl
    # the write error is scripted below, without a fault model
    ftl.faults_enabled = True
    write = ftl.write
    calls = [0]

    def every_other_fails(offset, size, done=None, tag=None, temp="hot"):
        calls[0] += 1
        write(offset, size, done=done, temp=temp)
        if calls[0] % 2 == 0:
            ftl.write_error = "transient"

    ftl.write = every_other_fails
    trace = [TraceRecord(100.0 * i, OpType.WRITE, i * KB4, KB4)
             for i in range(10)]
    return replay_trace(sim, device, trace, sink=sink)


class TestFailedRequestsMoveNoData:
    def test_both_sinks_agree_on_bandwidth(self):
        listed = _faulty_write_replay(WorkloadResult())
        streamed = _faulty_write_replay(StreamingResult())
        assert listed.errors == streamed.errors == {"transient": 5}
        assert listed.elapsed_us == streamed.elapsed_us
        # the two sinks count differently: every completion vs successes
        assert listed.count == 10 and streamed.count == 5
        for op in (None, OpType.WRITE):
            assert listed.bandwidth_mb_s(op) > 0.0
            assert listed.bandwidth_mb_s(op) == streamed.bandwidth_mb_s(op)
        expected = mb_per_s(5 * KB4, listed.elapsed_us)
        assert listed.bandwidth_mb_s() == pytest.approx(expected)


def _alarm(signum, frame):
    raise TimeoutError("replay did not return within the test's timeout")


class TestTimeScaleValidation:
    """A NaN scale stamped every record NaN, and the feeder re-armed at NaN
    forever; a negative one failed with a misleading "unsorted" error."""

    @pytest.mark.parametrize("time_scale",
                             [float("nan"), float("inf"), -1.0])
    def test_bad_time_scale_rejected_before_any_event(self, time_scale):
        sim = Simulator()
        device = SSD(sim, SSDConfig(n_elements=2))
        records = iter_synthetic(SyntheticConfig(count=50,
                                                 region_bytes=1 << 20))
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            with pytest.raises(ValueError, match="time_scale"):
                replay_trace(sim, device, records, time_scale=time_scale)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert sim.events_run == 0 and sim.now == 0.0

    def test_zero_time_scale_is_a_burst(self):
        sim = Simulator()
        device = SSD(sim, SSDConfig(n_elements=2))
        records = generate_synthetic(SyntheticConfig(count=50,
                                                     region_bytes=1 << 20))
        result = replay_trace(sim, device, records, time_scale=0.0)
        assert result.count == 50


class TestReplayAtScaleCrossCheck:
    """The acceptance gate: a 100k-record replay through the full device
    stack, streamed vs listed — identical simulation, quantiles within
    sketch tolerance, queue (and thus total memory) bounded."""

    COUNT = 100_000

    def _run(self, sink):
        sim = Simulator()
        device = s4slc_sim(sim, element_mb=32, scheduler="swtf",
                           max_inflight=32, controller_overhead_us=5.0)
        prefill_pagemap(device.ftl, 0.60, overwrite_fraction=0.15)
        high_water = _QueueHighWater(device)
        device.submit = high_water
        config = SyntheticConfig(
            count=self.COUNT,
            region_bytes=int(device.capacity_bytes * 0.6),
            request_bytes=KB4,
            read_fraction=0.5,
            seq_probability=0.3,
            interarrival_max_us=80.0,
            priority_fraction=0.1,
            seed=77,
        )
        result = replay_trace(sim, device, iter_synthetic(config), sink=sink)
        device.ftl.check_consistency()
        return result, sim, device, high_water

    def test_streamed_100k_matches_list_mode(self):
        streaming, sim_s, dev_s, water_s = self._run(StreamingResult())
        listed, sim_l, dev_l, water_l = self._run(None)
        # the simulation itself is bit-identical
        assert sim_s.now == sim_l.now
        assert sim_s.events_run == sim_l.events_run
        assert dev_s.ftl.stats.as_dict() == dev_l.ftl.stats.as_dict()
        assert water_s.max_queued == water_l.max_queued
        # device kept up: bounded queue, so replay memory is O(window)
        assert water_s.max_queued < 2000
        # result queries agree within sketch tolerance
        assert streaming.count == listed.count == self.COUNT
        for op in (None, OpType.READ, OpType.WRITE):
            a, b = listed.latency(op=op), streaming.latency(op=op)
            assert b.count == a.count
            assert b.mean_us == pytest.approx(a.mean_us, rel=1e-9)
            assert b.max_us == a.max_us
            for field in ("p50_us", "p95_us", "p99_us"):
                assert getattr(b, field) == pytest.approx(
                    getattr(a, field), rel=0.025
                ), (op, field)
        # and the streaming side held O(1) state
        assert len(streaming._classes) <= 8

    def test_iter_synthetic_is_generate_synthetic(self):
        config = SyntheticConfig(count=500, region_bytes=1 << 20,
                                 seq_probability=0.4, read_fraction=0.3,
                                 priority_fraction=0.1, seed=9)
        assert list(iter_synthetic(config)) == generate_synthetic(config)
