"""Drivers that push traces or generated streams through a device.

* :func:`replay_trace` — open-loop: every record is submitted at its
  timestamp regardless of completions (the device's queue absorbs bursts).
  This is how the paper's priority/cleaning experiments load the SSD.  It
  is the one open-loop feeder: it also reads the pattern suite's control
  records (:func:`replay_pattern` is it with a streaming sink).
* :class:`ClosedLoopDriver` — keeps a fixed number of requests outstanding,
  drawing the next operation from a generator; used by the
  microbenchmarks (Table 2) and the SWTF experiment.

Streaming replay
----------------
The seed ``replay_trace`` pre-scheduled one event per trace record, so a
million-record trace put a million events in the heap before the first one
ran.  The replay now *streams*: it holds exactly one upcoming record, and
exactly **one** reusable front-lane event stays armed at that record's
timestamp (:meth:`repro.sim.engine.Simulator.reschedule_at_front`).  Each
firing submits every record due at that instant, pulling the next record
from the iterator after each submission, and re-arms at the first later
one.  Replay state is O(1) regardless of trace length, and the simulator
heap carries a single replay entry.

Ordering is identical to pre-scheduling the whole trace: the front lane
wins every same-timestamp tie against simulation-internal events, arrivals
keep record order among themselves, and consecutive same-instant front-lane
events admit nothing between them — which is what makes folding a
same-timestamp group into one firing (one ``device.submit`` per record, in
record order) indistinguishable from the seed's one-event-per-record
scheme, apart from ``events_run``.  The one requirement streaming adds is
that record timestamps be sorted (every generator in :mod:`repro.traces`
emits sorted traces); the first record earlier than the one before it
raises :class:`ValueError`.  Streams meant to overlap in time are merged
before replay, as :func:`repro.fleet.router.device_stream` does.

Control records
---------------
The same feeder replays a :func:`~repro.traces.patterns.compose` suite,
reading its control records as the stream reaches them.  A
:class:`~repro.traces.patterns.Pause` adds its ``delta_us`` to the
segment's offset, and each record is armed at ``start + (time_us +
offset) * time_scale``; the offset is 0.0 until a pause, and adding 0.0
leaves a stamp unchanged, so a pause-free stream replays bit-identically.
A :class:`~repro.traces.patterns.Barrier` stops arming: the simulator runs
to idle, the sink is finalized, and the next segment's timeline starts at
the drain instant with a zero offset.  No record is rebuilt on the way.

Requests are plain :class:`~repro.device.interface.IORequest` objects,
one per record; every completion, in every driver and result mode, goes
through the result's ``record(request)`` (:class:`ResultSink`).

Streaming results
-----------------
A streamed *trace* still produced an O(trace) *result*: ``WorkloadResult``
keeps one :class:`~repro.device.interface.Completion` per record, which is
what the paper's tables want at experiment scale but caps replay length in
memory.  ``replay_trace(..., sink=...)`` is the constant-memory mode: pass
any :class:`ResultSink` — typically a :class:`StreamingResult`, which folds
each completion into per-(op, priority) aggregates
(:class:`repro.sim.stats.ClassAggregate`: count, bytes, exact mean/max, a
bounded-relative-error quantile sketch, and a seeded reservoir sample) and
answers the same ``latency``/``bandwidth_mb_s``/``count`` queries as
``WorkloadResult``.  The default remains the list-of-completions mode,
itself just another sink; the *simulation* is identical either way — only
what is retained about it changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Protocol, Tuple,
                    Union)

from repro.checks import Bound
from repro.device.interface import Completion, IORequest, OpType
from repro.sim.engine import Event, Simulator
from repro.sim.stats import ClassAggregate, LatencySummary, QuantileSketch
from repro.traces.patterns import Barrier, Pause, PatternRecord
from repro.traces.record import TraceRecord
from repro.units import mb_per_s

__all__ = ["WorkloadResult", "ResultSink", "StreamingResult", "ShardedResult",
           "replay_trace", "replay_pattern", "ClosedLoopDriver"]


@dataclass
class WorkloadResult:
    """Latency/bandwidth summary of one driven workload.

    The list-mode :class:`ResultSink`: ``record`` keeps one
    :class:`~repro.device.interface.Completion` per request, which is what
    the paper's tables want at experiment scale.
    """

    completions: List[Completion] = field(default_factory=list)
    elapsed_us: float = 0.0

    def record(self, request: IORequest) -> None:
        self.completions.append(Completion.of(request))

    @property
    def errors(self) -> Dict[str, int]:
        """Error completions by kind (empty when every request succeeded)."""
        counts: Dict[str, int] = {}
        for completion in self.completions:
            if completion.error is not None:
                counts[completion.error] = counts.get(completion.error, 0) + 1
        return counts

    def latency(
        self,
        op: Optional[OpType] = None,
        priority: Optional[bool] = None,
    ) -> LatencySummary:
        """Exact latency summary of the successful completions, filtered
        by op and/or priority class."""
        return LatencySummary.exact(
            c.response_us
            for c in self.completions
            if c.error is None
            and (op is None or c.op is op)
            and (priority is None or (c.priority > 0) == priority)
        )

    @property
    def count(self) -> int:
        """Every completion, failed ones included (unlike
        :attr:`StreamingResult.count`, which counts successes only)."""
        return len(self.completions)

    def bandwidth_mb_s(self, op: Optional[OpType] = None) -> float:
        """MB/s moved by the successful completions (error completions
        move no data), optionally of one op."""
        nbytes = sum(
            c.size
            for c in self.completions
            if c.error is None and (op is None or c.op is op)
        )
        return mb_per_s(nbytes, self.elapsed_us)


class ResultSink(Protocol):
    """Anything that can absorb completions from a driver, one at a time.

    ``record`` is called once per finished request, on the simulator clock,
    with the completed :class:`~repro.device.interface.IORequest`; the sink
    must read what it needs immediately and hold no reference (retaining
    requests would defeat the bounded-memory contract).  The driver stamps
    ``elapsed_us`` when the replay drains.
    """

    elapsed_us: float

    def record(self, request: IORequest) -> None: ...


class StreamingResult:
    """O(1)-memory replay result: the :class:`ResultSink` most callers want.

    Keeps one :class:`~repro.sim.stats.ClassAggregate` per (op, priority)
    traffic class — at most eight, regardless of trace length — and
    answers the same queries as :class:`WorkloadResult`:

    * ``latency(op=..., priority=...)`` — :class:`LatencySummary` whose
      count/mean/max are exact and whose percentiles carry the sketch's
      bounded relative error (``alpha``, default 1%),
    * ``bandwidth_mb_s(op=...)``, ``count``, ``elapsed_us``.

    Reservoir seeds derive deterministically from ``seed`` per class, so a
    replay is reproducible sample-for-sample.
    """

    #: stable per-class seed offsets (enum hash order is not deterministic)
    _OP_ORDER = {op: i for i, op in enumerate(OpType)}

    def __init__(self, alpha: float = 0.01, reservoir_k: int = 1024,
                 seed: int = 0x5EED) -> None:
        self._alpha = alpha
        self._reservoir_k = reservoir_k
        self._seed = seed
        self._classes: Dict[Tuple[OpType, bool], ClassAggregate] = {}
        #: error completions by kind (e.g. {"readonly": 12})
        self.errors: Dict[str, int] = {}
        self.elapsed_us = 0.0

    def record(self, request: IORequest) -> None:
        error = request.error
        if error is not None:
            # errored requests move no data and carry no meaningful
            # latency; tally them separately
            self.errors[error] = self.errors.get(error, 0) + 1
            return
        key = (request.op, request.priority > 0)
        aggregate = self._classes.get(key)
        if aggregate is None:
            class_seed = (self._seed * 31
                          + self._OP_ORDER[request.op] * 2 + key[1])
            aggregate = self._classes[key] = ClassAggregate(
                self._alpha, self._reservoir_k, class_seed
            )
        aggregate.bytes += request.size
        aggregate.latencies.record(request.complete_us - request.submit_us)

    def finalize(self) -> None:
        """Fold any buffered samples into the sketches/reservoirs.  The
        drivers call this when a replay drains; reads through the recorder
        API flush on their own, so calling it is belt-and-braces."""
        for aggregate in self._classes.values():
            aggregate.latencies.flush()

    # -- the WorkloadResult query API ------------------------------------

    @property
    def count(self) -> int:
        """Successful completions only; failed ones are tallied in
        :attr:`errors` (unlike :attr:`WorkloadResult.count`, which counts
        every completion)."""
        return sum(agg.count for agg in self._classes.values())

    def class_items(self) -> List[Tuple[Tuple[OpType, bool], ClassAggregate]]:
        """``((op, priority), ClassAggregate)`` pairs in canonical (op
        order, priority) order — the iteration order mergers and
        fingerprints must use so results do not depend on which class a
        replay happened to touch first."""
        return sorted(
            self._classes.items(),
            key=lambda item: (self._OP_ORDER[item[0][0]], item[0][1]),
        )

    def latency(
        self,
        op: Optional[OpType] = None,
        priority: Optional[bool] = None,
    ) -> LatencySummary:
        """Latency summary filtered by op and/or priority class."""
        matched = [
            aggregate
            for (key_op, key_pri), aggregate in self.class_items()
            if (op is None or key_op is op)
            and (priority is None or key_pri == priority)
        ]
        if not matched:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        merged = QuantileSketch(self._alpha)
        for aggregate in matched:
            aggregate.latencies.flush()
            merged.merge(aggregate.latencies.sketch)
        return merged.summary()

    def bandwidth_mb_s(self, op: Optional[OpType] = None) -> float:
        nbytes = sum(
            aggregate.bytes
            for (key_op, _), aggregate in self._classes.items()
            if op is None or key_op is op
        )
        return mb_per_s(nbytes, self.elapsed_us)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StreamingResult n={self.count} "
                f"classes={len(self._classes)}>")


class ShardedResult:
    """Per-shard replay entry: one device, several co-resident streams.

    A :class:`ResultSink` that routes each completion to one of several
    child sinks — ``classify(request) -> index`` picks the child, typically
    by recovering the owning shard from ``request.offset`` (the fleet layer
    gives every tenant a disjoint LBA namespace inside the device, so a
    bisect over the namespace bases is exact).  The *simulation* is
    untouched: requests from all shards share the device's queue,
    scheduler, FTL, and cleaner — which is precisely what makes cross-shard
    interference measurable — only the bookkeeping is split.

    ``elapsed_us`` is stamped by the driver on the sharded sink and
    propagated to every child at :meth:`finalize` (children of one device
    replay share the device's clock span), so per-child bandwidth queries
    work unchanged.
    """

    __slots__ = ("sinks", "_classify", "elapsed_us")

    def __init__(self, sinks: List[ResultSink],
                 classify: Callable[[IORequest], int]) -> None:
        if not sinks:
            raise ValueError("ShardedResult needs at least one child sink")
        self.sinks = list(sinks)
        self._classify = classify
        self.elapsed_us = 0.0

    def record(self, request: IORequest) -> None:
        self.sinks[self._classify(request)].record(request)

    def finalize(self) -> None:
        for sink in self.sinks:
            sink.elapsed_us = self.elapsed_us
            finalize = getattr(sink, "finalize", None)
            if finalize is not None:
                finalize()

    @property
    def count(self) -> int:
        return sum(sink.count for sink in self.sinks)

    @property
    def errors(self) -> Dict[str, int]:
        """Error completions by kind, aggregated over the children."""
        merged: Dict[str, int] = {}
        for sink in self.sinks:
            for kind, n in getattr(sink, "errors", {}).items():
                merged[kind] = merged.get(kind, 0) + n
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardedResult shards={len(self.sinks)} n={self.count}>"


def replay_trace(
    sim: Simulator,
    device,
    records: Iterable[PatternRecord],
    time_scale: float = 1.0,
    sink: Optional[ResultSink] = None,
) -> Union[WorkloadResult, ResultSink]:
    """Open-loop replay: submit each record at ``time_us * time_scale``.

    Returns after the event queue drains.  READ/WRITE completions are
    recorded; ``elapsed_us`` spans the call, from its start to the last
    completion.

    ``records`` must be sorted by ``time_us``: one upcoming record is held
    at a time (see the module docstring), and the first record earlier
    than the one before it raises :class:`ValueError`.  The stream may
    carry :mod:`repro.traces.patterns` control records: a ``Pause`` delays
    the rest of its segment by ``delta_us``, and a ``Barrier`` drains the
    device and restarts the timeline at the drain instant.

    Completions go to ``sink`` (any :class:`ResultSink`, e.g.
    :class:`StreamingResult`), which is returned; the default is a fresh
    list-mode :class:`WorkloadResult`.  Result memory is whatever the sink
    keeps — O(1) for :class:`StreamingResult` — so replay length is bounded
    by patience, not RAM.  Pair it with a generator of records (e.g.
    :func:`repro.traces.synthetic.iter_synthetic`) to keep the trace side
    O(1) as well.
    """
    Bound(ge=0).check("time_scale", time_scale)
    result = WorkloadResult() if sink is None else sink
    record_completion = result.record
    finalize = getattr(result, "finalize", None)
    read_op, write_op = OpType.READ, OpType.WRITE

    def on_complete(request: IORequest) -> None:
        op = request.op
        if op is read_op or op is write_op:
            record_completion(request)

    iterator = iter(records)
    device_submit = device.submit
    rearm = sim.reschedule_at_front

    def data_record(item: Optional[PatternRecord]) -> Optional[TraceRecord]:
        """The first data record from ``item`` on, reading control records;
        None at a Barrier or at the end of the stream."""
        nonlocal offset, barrier
        while True:
            kind = type(item)
            if kind is Pause:
                offset += item.delta_us
            elif kind is Barrier:
                barrier = True
                return None
            else:
                return item
            item = next(iterator, None)

    # ONE reusable front-lane event stays armed at ``head``'s timestamp
    # (see the module docstring).  Each firing submits ``head`` and every
    # following record due at the same instant, then re-arms at the first
    # later one.
    def fire() -> None:
        nonlocal head
        now = sim.now
        record = head
        while True:
            device_submit(IORequest(record.op, record.offset, record.size,
                                    record.priority, on_complete))
            upcoming = next(iterator, None)
            if type(upcoming) is not TraceRecord:
                upcoming = data_record(upcoming)
                if upcoming is None:
                    return
            at = start + (upcoming.time_us + offset) * time_scale
            if at != now:
                break
            record = upcoming
        if at < now:
            raise ValueError(
                f"trace timestamps unsorted: a record at "
                f"{upcoming.time_us} us follows one at {record.time_us} us; "
                f"sort the trace, or merge streams that overlap in time")
        head = upcoming
        rearm(feeder, at)

    feeder = Event(0.0, 0, fire, ())
    begin = sim.now
    while True:
        # a segment: its first instant, its pause offset, and whether it
        # ends at a Barrier
        start, offset, barrier = sim.now, 0.0, False
        head = data_record(next(iterator, None))
        if head is not None:
            rearm(feeder, start + (head.time_us + offset) * time_scale)
        sim.run_until_idle()
        # Finalize at every drain, not only at the end: a sketch's float
        # ``sum`` depends on where its batches split, so the sink flushes
        # where per-phase replays would.  Finalizing also hands
        # ``elapsed_us`` to a ShardedResult's children.
        result.elapsed_us = sim.now - begin
        if finalize is not None:
            finalize()
        if not barrier:
            return result


def replay_pattern(
    sim: Simulator,
    device,
    records: Iterable[PatternRecord],
    time_scale: float = 1.0,
    sink: Optional[ResultSink] = None,
) -> ResultSink:
    """:func:`replay_trace` of a pattern stream into a sink, by default a
    fresh :class:`StreamingResult`.

    :func:`replay_trace` itself reads the stream's
    :class:`~repro.traces.patterns.Barrier` and
    :class:`~repro.traces.patterns.Pause` records; this front end only
    picks the constant-memory result.  ``elapsed_us`` spans the whole
    suite, drains and pauses included.
    """
    return replay_trace(sim, device, records, time_scale,
                        StreamingResult() if sink is None else sink)


class ClosedLoopDriver:
    """Keeps ``depth`` requests outstanding until ``count`` complete.

    ``next_request`` is called for each submission and must return
    ``(op, offset, size)`` or ``(op, offset, size, priority)``.
    """

    def __init__(
        self,
        sim: Simulator,
        device,
        next_request: Callable[[int], Tuple],
        count: int,
        depth: int = 1,
    ) -> None:
        if depth <= 0 or count <= 0:
            raise ValueError("depth and count must be positive")
        self.sim = sim
        self.device = device
        self.next_request = next_request
        self.count = count
        self.depth = depth
        self.result = WorkloadResult()
        self._issued = 0
        self._completed = 0
        self._start_us = 0.0

    def run(self) -> WorkloadResult:
        self._start_us = self.sim.now
        for _ in range(min(self.depth, self.count)):
            self._issue()
        self.sim.run_until_idle()
        self.result.elapsed_us = self.sim.now - self._start_us
        return self.result

    def _issue(self) -> None:
        spec = self.next_request(self._issued)
        self._issued += 1
        op, offset, size = spec[:3]
        priority = spec[3] if len(spec) > 3 else 0
        self.device.submit(
            IORequest(op, offset, size, priority, self._on_complete))

    def _on_complete(self, request: IORequest) -> None:
        self._completed += 1
        self.result.record(request)
        if self._issued < self.count:
            self._issue()
