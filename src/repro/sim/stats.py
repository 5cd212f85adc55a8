"""Latency measurement: exact summaries, and the streaming recorder.

Latency is recorded in one place, the driver's result sink
(:mod:`repro.workloads.driver`).  Devices only *count* completions and
bytes (:class:`repro.device.interface.DeviceStats`); nothing below the
sink keeps a per-request sample.  The sink comes in two forms, and this
module holds what each one summarizes with:

* the list sink (``WorkloadResult``) keeps every completion and reduces
  the matching response times with :meth:`LatencySummary.exact`: exact
  percentiles, what every paper table is built on;
* the streaming sink (``StreamingResult``) keeps one
  :class:`ClassAggregate` per traffic class, whose
  :class:`StreamingLatencyRecorder` is the constant-memory path for
  replay at scale (10M+ records): a log-bucketed :class:`QuantileSketch`
  with bounded *relative* quantile error, an exact running
  count/mean/min/max, and a seeded :class:`ReservoirSampler` holding a
  uniform sample of the stream for inspection.

Both emit the same :class:`LatencySummary` shape, so readers cannot tell
which sink produced a table.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.checks import Bound

#: bound once — the sketch/reservoir adds run once per replayed record
_ceil = math.ceil
_log = math.log
_nextafter = math.nextafter

#: buffered recorders flush through the numpy batch kernels at this many
#: samples (a few replay windows' worth: big enough to amortize the numpy
#: call overhead, small enough to keep buffers trivially bounded)
FLUSH_THRESHOLD = 4096

#: bucket upper edges per ``(floor, gamma)``, shared by every sketch; edge
#: *k* is a pure function of the key and *k*, so a table only grows
_EDGES: Dict[Tuple[float, float], List[float]] = {}

__all__ = [
    "LatencySummary",
    "StreamingLatencyRecorder",
    "QuantileSketch",
    "ReservoirSampler",
    "ClassAggregate",
    "FLUSH_THRESHOLD",
    "percentile",
]


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted list.

    ``fraction`` is in [0, 1].  Raises ``ValueError`` on empty input so a
    missing measurement can't silently read as zero.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = fraction * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return sorted_values[lo]
    weight = pos - lo
    return sorted_values[lo] * (1.0 - weight) + sorted_values[hi] * weight


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Immutable latency summary (µs): count, mean, p50/p95/p99, max.

    :meth:`exact` builds one from raw samples; :meth:`QuantileSketch.summary`
    builds one from a sketch."""

    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float

    @classmethod
    def exact(cls, samples: Iterable[float]) -> "LatencySummary":
        """Exact summary of *samples*: every percentile by :func:`percentile`
        over the sorted values.  All zeros when *samples* is empty."""
        ordered = sorted(samples)
        if not ordered:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(ordered),
            mean_us=sum(ordered) / len(ordered),
            p50_us=percentile(ordered, 0.50),
            p95_us=percentile(ordered, 0.95),
            p99_us=percentile(ordered, 0.99),
            max_us=ordered[-1],
        )


class QuantileSketch:
    """Streaming quantiles with bounded relative error in O(1) memory.

    DDSketch-style logarithmic buckets: a value *v* lands in bucket
    ``ceil(log_gamma(v / floor))`` with ``gamma = (1 + α) / (1 - α)``, so
    any quantile estimate is within relative error ``α`` of *some* sample
    at that rank.  Bucket storage is a sparse dict whose size is bounded by
    the dynamic range of the data (≈ 900 buckets for µs latencies spanning
    1e-3..1e7 at the default α = 1%), independent of sample count.

    Values below ``floor`` collapse into a zero bucket reported as 0.0 —
    latencies that small are below the simulator's meaningful resolution.
    Sketches with equal ``alpha`` merge exactly (bucket-wise addition).
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "_floor", "_buckets",
                 "count", "sum", "min", "max", "_zero_count", "_boundaries")

    def __init__(self, alpha: float = 0.01, floor: float = 1e-3) -> None:
        Bound(gt=0, lt=1).check("alpha", alpha)
        # an infinite floor would send every sample to the zero bucket
        Bound(gt=0).check("floor", floor)
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._floor = floor
        # defaultdict: the add() hot path increments without a .get() call
        self._buckets: Dict[int, int] = defaultdict(int)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zero_count = 0
        #: lazily-built bucket upper boundaries for the batch path (see
        #: :meth:`add_many`); ``_boundaries[k]`` is the largest double that
        #: the scalar formula maps to bucket ``k``
        self._boundaries: Optional[np.ndarray] = None

    def add(self, value: float) -> None:
        if value < 0.0:
            raise ValueError(f"negative sample {value}")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self._floor:
            self._zero_count += 1
            return
        self._buckets[_ceil(_log(value / self._floor) / self._log_gamma)] += 1

    # -- batch path --------------------------------------------------------

    def _scalar_index(self, value: float) -> int:
        """The scalar bucket formula, factored for the boundary builder."""
        return _ceil(_log(value / self._floor) / self._log_gamma)

    def _grow_boundaries(self, vmax: float) -> np.ndarray:
        """Take a copy of the bucket-boundary table out to at least *vmax*.

        ``np.log`` and ``math.log`` disagree by ULPs, so a vectorized
        replay of the scalar ``ceil(log(v/floor)/log_gamma)`` would put
        boundary-adjacent values in neighbouring buckets.  Instead the
        batch path bisects against *boundaries*: the scalar index is a
        monotone step function of the value (division, log, and ceil are
        all monotone), so bucket ``k``'s upper edge is a concrete double —
        seeded analytically at ``floor * gamma**k`` and corrected by a few
        ``nextafter`` steps against the scalar formula itself.  A
        ``searchsorted`` over the corrected edges then reproduces the
        scalar bucketing bit-for-bit for every input.

        Building ~900 edges costs milliseconds, so sketches share one table
        (:data:`_EDGES`); extra edges beyond *vmax* change no bucket, and
        each sketch searches its own array copy.
        """
        edges = _EDGES.setdefault((self._floor, self._gamma), [])
        index = self._scalar_index
        floor = self._floor
        gamma = self._gamma
        k = len(edges)
        while not edges or edges[-1] < vmax:
            edge = floor * gamma ** k
            while index(edge) > k:
                edge = _nextafter(edge, 0.0)
            while True:
                up = _nextafter(edge, math.inf)
                if index(up) <= k:
                    edge = up
                else:
                    break
            edges.append(edge)
            k += 1
        boundaries = np.asarray(edges, dtype=np.float64)
        self._boundaries = boundaries
        return boundaries

    def add_many(self, values: "np.ndarray") -> None:
        """Fold a batch of samples in — bit-identical buckets/min/max/count
        to per-value :meth:`add` calls (the summary ``sum`` is accumulated
        chunk-wise, so the mean can differ from the scalar path by float
        associativity — well inside the sketch's own error).

        Unlike :meth:`add`, a negative sample raises before *any* of the
        batch is folded in.
        """
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        if n == 0:
            return
        vmin = values.min()
        if vmin < 0.0:
            raise ValueError(f"negative sample {vmin}")
        vmax = values.max()
        self.count += n
        self.sum += float(values.sum())
        if vmin < self.min:
            self.min = float(vmin)
        if vmax > self.max:
            self.max = float(vmax)
        floor = self._floor
        if vmin < floor:
            nonzero = values[values >= floor]
            self._zero_count += n - nonzero.size
            if nonzero.size == 0:
                return
        else:
            nonzero = values
        boundaries = self._boundaries
        if boundaries is None or boundaries[-1] < vmax:
            boundaries = self._grow_boundaries(float(vmax))
        indices = np.searchsorted(boundaries, nonzero, side="left")
        hit, counts = np.unique(indices, return_counts=True)
        buckets = self._buckets
        for k, c in zip(hit.tolist(), counts.tolist()):
            buckets[k] += c

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Estimate the ``fraction`` quantile (same rank convention as
        :func:`percentile`: rank ``fraction * (n - 1)``, no interpolation —
        interpolating between adjacent order statistics moves the answer by
        less than the sketch's own error)."""
        if not self.count:
            raise ValueError("quantile of empty sketch")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        rank = int(fraction * (self.count - 1))
        if rank == 0:
            return self.min  # tracked exactly, like the max
        if rank == self.count - 1:
            return self.max
        if rank < self._zero_count:
            return 0.0
        cumulative = self._zero_count
        gamma = self._gamma
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative > rank:
                # midpoint of the bucket's value range, clamped to the
                # exactly-tracked extremes
                estimate = self._floor * gamma ** index * 2.0 / (1.0 + gamma)
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (exact: buckets align when alphas match).

        Merge-order contract (the fleet layer's determinism rests on it):
        bucket counts, ``count``, the zero-bucket tally, ``min``, and
        ``max`` are integer adds and float comparisons — **exactly**
        independent of shard count and merge order, so every quantile
        (which reads only those fields) is merge-order-invariant down to
        the bit.  ``sum`` (hence ``mean``) is the one exception: float
        addition is non-associative, so different merge orders can move it
        by ULPs.  Callers that pin merged results bit-for-bit must
        therefore merge in a canonical order — :mod:`repro.fleet` always
        folds shards in ascending device index, regardless of which worker
        finished first.
        """
        if other.alpha != self.alpha or other._floor != self._floor:
            raise ValueError("can only merge sketches with identical buckets")
        buckets = self._buckets
        for index, n in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + n
        self.count += other.count
        self.sum += other.sum
        self._zero_count += other._zero_count
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def summary(self) -> "LatencySummary":
        """The sketch's :class:`LatencySummary`: exact count/mean/max,
        sketched p50/p95/p99.  Shared by every streaming summary producer
        so single-class and merged-class summaries cannot drift."""
        if not self.count:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencySummary(
            count=self.count,
            mean_us=self.mean,
            p50_us=self.quantile(0.50),
            p95_us=self.quantile(0.95),
            p99_us=self.quantile(0.99),
            max_us=self.max,
        )

    @property
    def zero_count(self) -> int:
        """Samples below the floor (the collapsed zero bucket)."""
        return self._zero_count

    def bucket_items(self) -> List[Tuple[int, int]]:
        """Sorted ``(bucket index, count)`` pairs — the sketch's canonical
        mergeable state.  Two sketches with equal ``bucket_items()``,
        ``count``, ``zero_count``, ``min``, and ``max`` answer every
        quantile identically; the fleet fingerprint hashes exactly these."""
        return sorted(self._buckets.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QuantileSketch n={self.count} alpha={self.alpha} "
                f"buckets={len(self._buckets)}>")


class ReservoirSampler:
    """Uniform fixed-size sample of a stream (geometric-skip Algorithm L).

    Deterministic per seed: replays of the same stream keep the same
    sample.  Used by :class:`StreamingLatencyRecorder` so a bounded-memory
    replay still leaves raw latencies to inspect or plot.

    Li's Algorithm L draws the *gap* to the next accepted element instead
    of rolling a die per element (Vitter's Algorithm R, the seed
    implementation): once the reservoir is full, the expected number of
    random draws is O(k · log(n/k)) for the whole stream, so the per-record
    replay path pays one integer compare per sample instead of one
    ``randrange``.  The sample distribution is exactly uniform, as with R;
    the concrete sample for a given seed differs from R's, which nothing
    pins — summaries come from the quantile sketch, not the reservoir.
    """

    __slots__ = ("capacity", "seen", "_samples", "_rng", "_w", "_next")

    def __init__(self, capacity: int = 1024, seed: int = 0x5EED) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        self._samples: List[float] = []
        self._rng = random.Random(seed)
        #: Algorithm L state: current acceptance weight and the 1-indexed
        #: stream position of the next element to take
        self._w = 1.0
        self._next = 0

    def add(self, value: float) -> None:
        seen = self.seen + 1
        self.seen = seen
        nxt = self._next
        if nxt == 0:
            # still filling (the gap is first drawn when the reservoir
            # fills, so _next stays 0 until then)
            samples = self._samples
            samples.append(value)
            if len(samples) == self.capacity:
                self._draw_next_gap()
        elif seen == nxt:
            self._samples[self._rng.randrange(self.capacity)] = value
            self._draw_next_gap()

    def add_many(self, values: "np.ndarray") -> None:
        """Feed a batch through the reservoir — state- and RNG-identical
        to per-value :meth:`add` calls.

        Algorithm L's whole point is that most stream elements are never
        looked at: the geometric skip says which positions are accepted,
        so the batch path jumps straight to those indices.  The RNG call
        sequence (one ``randrange`` + two ``random`` per accepted element;
        nothing during fill) is exactly the scalar one, so a replay mixing
        scalar and batch feeding of the same stream keeps the same sample.
        """
        n = len(values)
        start = 0
        samples = self._samples
        capacity = self.capacity
        if self._next == 0:
            # filling: every element is taken verbatim, no draws
            take = capacity - len(samples)
            if take >= n:
                samples.extend(values.tolist() if isinstance(values, np.ndarray)
                               else values)
                self.seen += n
                if len(samples) == capacity:
                    self._draw_next_gap()
                return
            head = values[:take]
            samples.extend(head.tolist() if isinstance(head, np.ndarray)
                           else head)
            self.seen += take
            start = take
            self._draw_next_gap()
        base = self.seen          # stream position of values[start - 1]
        total = base + (n - start)
        nxt = self._next
        randrange = self._rng.randrange
        while nxt <= total:
            samples[randrange(capacity)] = float(values[start + nxt - base - 1])
            self.seen = nxt
            self._draw_next_gap()
            nxt = self._next
        self.seen = total

    def merge(self, other: "ReservoirSampler") -> None:
        """Fold another reservoir in, producing a uniform-ish sample of the
        concatenated streams (capacities must match).

        Each output slot draws its source side with probability
        proportional to how many stream elements that side represents and
        then takes a not-yet-used element of that side's sample — the
        standard mergeable-reservoir scheme (per-slot Bernoulli in place
        of the exact hypergeometric split; the difference is O(1/√k) on
        the side counts and nothing downstream is that sharp).  Uses
        *this* sampler's RNG, so a merge tree is deterministic per seed
        **and per merge order** — unlike :meth:`QuantileSketch.merge`,
        the concrete sample depends on the order shards are folded in
        (each merge consumes RNG draws), though every order yields a valid
        uniform-ish sample.  Callers pinning merged samples bit-for-bit
        must fix the order; :mod:`repro.fleet` merges into a fresh
        seed-derived sampler in ascending device index.  One exact case:
        while ``self.seen + other.seen <= capacity`` both sides are still
        exhaustive, so the merge is plain concatenation — identical to
        having sampled the concatenated stream serially, no RNG consumed.
        The merged sampler keeps accepting stream elements afterwards.
        """
        if other.capacity != self.capacity:
            raise ValueError(
                f"can only merge equal-capacity reservoirs "
                f"({self.capacity} != {other.capacity})")
        if other.seen == 0:
            return
        total = self.seen + other.seen
        if total <= self.capacity:
            # both sides are still exhaustive: so is the concatenation
            self._samples.extend(other._samples)
            self.seen = total
            if len(self._samples) == self.capacity:
                self._draw_next_gap()
            return
        rng = self._rng
        a, b = list(self._samples), list(other._samples)
        wa, wb = self.seen, other.seen
        na, nb = len(a), len(b)
        merged: List[float] = []
        for _ in range(self.capacity):
            if nb == 0 or (na > 0 and rng.random() * (wa + wb) < wa):
                j = rng.randrange(na)
                na -= 1
                merged.append(a[j])
                a[j] = a[na]
            else:
                j = rng.randrange(nb)
                nb -= 1
                merged.append(b[j])
                b[j] = b[nb]
        self._samples = merged
        self.seen = total
        self._draw_next_gap()

    def _draw_next_gap(self) -> None:
        """Draw the geometric gap to the next accepted stream element.

        ``1.0 - random()`` maps the rng's [0, 1) to (0, 1] so the logs are
        finite; two draws per accepted element (weight decay + gap), per
        Algorithm L."""
        rng = self._rng
        log = math.log
        w = self._w * math.exp(log(1.0 - rng.random()) / self.capacity)
        if w >= 1.0:
            # measure-zero corner: random() returned exactly 0.0 while w
            # was still 1.0; clamp just below 1 so log(1 - w) stays finite
            w = math.nextafter(1.0, 0.0)
        self._w = w
        gap = int(log(1.0 - rng.random()) / log(1.0 - w))
        self._next = self.seen + gap + 1

    @property
    def samples(self) -> List[float]:
        """The current sample (not a copy; treat as read-only)."""
        return self._samples


class StreamingLatencyRecorder:
    """Constant-memory latency recorder: the streaming sink's one
    recording path.

    ``record`` takes one response time; ``count``/``summary`` read it
    back.  The summary's mean and max are exact, the percentiles come
    from the quantile sketch (relative error ``alpha``), and a seeded
    reservoir keeps a uniform raw sample.

    Recording is buffered: ``record`` appends to a flat float buffer, and
    the buffer is flushed through the numpy batch kernels
    (:meth:`QuantileSketch.add_many` / :meth:`ReservoirSampler.add_many`)
    every :data:`FLUSH_THRESHOLD` samples and on any read.  Buckets,
    extremes, counts, and the reservoir's sample/RNG stream are identical
    to feeding :meth:`QuantileSketch.add` / :meth:`ReservoirSampler.add`
    one sample at a time — only the order in which the work is done
    changes.  The sketch's float ``sum`` is the one field that depends on
    where the flushes fall, because each batch is summed by numpy before
    it is added.  Reads (``count``/``summary``) see a consistent view: they
    fold the buffer first.
    """

    __slots__ = ("sketch", "reservoir", "buffer")

    def __init__(self, alpha: float = 0.01, reservoir_k: int = 1024,
                 seed: int = 0x5EED) -> None:
        self.sketch = QuantileSketch(alpha)
        self.reservoir = ReservoirSampler(reservoir_k, seed)
        #: pending raw samples, folded in by :meth:`flush`
        self.buffer: List[float] = []

    def record(self, latency_us: float) -> None:
        buffer = self.buffer
        buffer.append(latency_us)
        if len(buffer) >= FLUSH_THRESHOLD:
            self.flush()

    def flush(self) -> None:
        """Fold any buffered samples into the sketch and reservoir."""
        buffer = self.buffer
        if buffer:
            batch = np.asarray(buffer, dtype=np.float64)
            self.sketch.add_many(batch)
            self.reservoir.add_many(batch)
            buffer.clear()

    @property
    def count(self) -> int:
        buffer = self.buffer
        if buffer:
            return self.sketch.count + len(buffer)
        return self.sketch.count

    def summary(self) -> LatencySummary:
        if self.buffer:
            self.flush()
        return self.sketch.summary()


class ClassAggregate:
    """Per-(op, priority)-class roll-up a streaming result keeps: request
    count, bytes moved, and a :class:`StreamingLatencyRecorder`.

    The whole aggregate is O(1) memory; a result object holds one per
    traffic class (≤ 8: four ops × two priority levels).
    """

    __slots__ = ("bytes", "latencies")

    def __init__(self, alpha: float = 0.01, reservoir_k: int = 1024,
                 seed: int = 0x5EED) -> None:
        self.bytes = 0
        self.latencies = StreamingLatencyRecorder(alpha, reservoir_k, seed)

    @property
    def count(self) -> int:
        return self.latencies.count
