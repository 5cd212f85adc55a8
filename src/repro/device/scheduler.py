"""Host-queue structure and dispatch policies for the SSD.

Two policies from the paper:

* **FCFS** — dispatch strictly in arrival order; a write that cannot be
  admitted (flash allocation backpressure) blocks the queue head, as on a
  simple device.
* **SWTF** (*shortest wait time first*, §3.2) — "uses the queue wait times
  of all the parallel elements in an SSD and schedules an I/O that has the
  shortest wait time."  For each queued request we estimate the wait as the
  maximum of the target elements' queued work (a striped request finishes
  when its slowest shard does) and dispatch the minimum.  Inadmissible
  writes are skipped rather than blocking (the controller can reorder).

Schedulers only *choose*; the SSD performs admission and dispatch.

Incremental SWTF design
-----------------------
The seed implementation re-walked the whole host queue on every dispatch,
calling ``elements_for_range`` + ``queue_wait_us`` per queued request —
O(queue × elements) per dispatch, quadratic under open-loop overload, which
is exactly the regime the paper's scheduling and cleaning-interference
results live in.  The incremental version rests on three invariants:

1. **Target sets are static.**  ``elements_for_range`` is a pure function
   of (offset, size) for every FTL, so the scheduler resolves it once at
   submit; the resulting element tuple *is* the request's bucket key, so
   the cache is shared by every queued request with the same targets.

2. **Element wait is an absolute drain time.**  Each
   :class:`~repro.flash.element.FlashElement` maintains ``drain_at_us`` —
   the absolute simulated time its currently-enqueued work finishes —
   updated O(1) at enqueue only (serving an op moves work from FIFO to the
   in-flight slot without changing when the tail drains).  A request's wait
   at time *t* is ``max(0, max_e(drain_at_us) - t)`` over its targets:
   element waits all decay at the same unit rate, so the *ordering* of
   requests is captured by the absolute key ``D_r = max_e(drain_at_us)``.

3. **Requests with the same target set have the same wait — always.**
   So queued requests are bucketed by target set, FIFO within the bucket.
   Inside a bucket, the best candidate is simply the earliest arrival (the
   seed's tie rule); across buckets, the best is the minimum
   ``(max(D_r, now), head arrival seq)``.  A dispatch therefore costs
   O(buckets) — the number of *distinct target sets* queued (bounded by
   the FTL's layout: elements, gangs, adjacent-gang spans), independent of
   queue depth.  Clamping the key at ``now`` makes every zero-wait bucket
   compare equal on wait, so ties between zero-wait requests — and only
   those — resolve by arrival order, exactly like the seed's linear scan
   with its first-strictly-smaller rule and zero-wait early exit.

Admission mirrors the seed's skip-don't-block rule: candidates are probed
in ``(wait, arrival)`` order and an inadmissible candidate is passed over
in favour of the next arrival in its bucket (same wait, later seq).
Removals (dispatch, queue-merge steals) are lazy flag flips; buckets skim
dead entries when they surface.  The probe itself (``SSD.admissible``) asks
the FTL afresh each time; ``can_accept_write`` is O(1) for single-page and
single-stripe writes on every FTL (docs/architecture.md §4 records why no
memo sits in front of it).

Dispatch decisions are bit-identical to the seed's brute-force scan (kept
as a test helper and pinned by the equivalence test in
``tests/test_dispatch_pipeline.py``); only the wall-time cost changes.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Iterator, List, Optional, TYPE_CHECKING

from repro.device.interface import IORequest, OpType

if TYPE_CHECKING:  # pragma: no cover
    from repro.device.ssd import SSD

__all__ = ["HostQueue", "FCFSScheduler", "SWTFScheduler", "make_scheduler"]

_FREE, _FLUSH = OpType.FREE, OpType.FLUSH  # see OpType

#: compact the arrival deque once dead entries outnumber live ones by this
_COMPACT_SLACK = 64

#: submission sequence numbers are *globally* unique (one process-wide
#: counter), not per-queue: lazy structures key entry liveness on
#: ``(seq at insert, request.queued)``, and a globally-unique seq makes an
#: entry from a previous queue residency unambiguously dead even if the
#: same request object is later resubmitted (to this device or another).
#: Per-queue arrival order is preserved — the counter only moves forward.
_SEQ_COUNTER = count().__next__


def _live(entry: tuple) -> bool:
    """Is a lazily-stored ``(seq, request)`` entry still in its queue?"""
    seq, request = entry
    return request.queued and request.seq == seq


class HostQueue:
    """The device's host queue: arrival order with O(1) lazy removal.

    Requests are appended at submit and usually leave from arbitrary
    positions (scheduler picks, queue-merge steals).  Instead of rebuilding
    a list per removal, removal just clears ``request.queued``; dead
    entries are skipped at the head, dropped during iteration, and
    compacted away wholesale once they outnumber live ones.  Entries are
    stored as ``(seq, request)`` and considered live only while the seq
    still matches (see :data:`_SEQ_COUNTER`), so a request object reused
    across queues cannot resurrect its old entries.
    """

    __slots__ = ("_items", "_live")

    def __init__(self) -> None:
        self._items: deque[tuple] = deque()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[IORequest]:
        """Live requests in arrival order."""
        return (entry[1] for entry in self._items if _live(entry))

    def append(self, request: IORequest) -> None:
        assert not request.queued, "request is already in a host queue"
        seq = _SEQ_COUNTER()
        request.seq = seq
        request.queued = True
        self._items.append((seq, request))
        self._live += 1

    def remove(self, request: IORequest) -> None:
        """Lazily remove a live request (O(1) amortized)."""
        assert request.queued, "request not in host queue"
        request.queued = False
        self._live -= 1
        items = self._items
        if len(items) > 2 * self._live + _COMPACT_SLACK:
            self._items = deque(e for e in items if _live(e))

    def head(self) -> Optional[IORequest]:
        """Earliest-arrived live request (None when empty)."""
        items = self._items
        while items and not _live(items[0]):
            items.popleft()
        return items[0][1] if items else None


class FCFSScheduler:
    """First-come first-served with head-of-line blocking."""

    name = "fcfs"

    def on_submit(self, request: IORequest, ssd: "SSD") -> None:
        pass

    def select(self, ssd: "SSD") -> Optional[IORequest]:
        head = ssd.queue.head()
        if head is not None and ssd.admissible(head):
            return head
        return None


class SWTFScheduler:
    """Shortest-wait-time-first over the parallel elements (§3.2).

    See the module docstring for the incremental design and its
    invariants.  ``_buckets`` maps a target-element tuple to the FIFO of
    live queued requests with exactly that target set; entries of
    dispatched/stolen requests are skimmed lazily when they surface.
    """

    name = "swtf"

    def __init__(self) -> None:
        #: target-element tuple -> deque of (seq, request) entries
        self._buckets: dict[tuple, deque[tuple]] = {}
        #: the non-empty subset of _buckets (same deque objects): select
        #: walks only these; a bucket drops out when a skim empties it and
        #: re-enters on the next submit that touches it.  Selection is
        #: order-independent (strict (wait, seq) minimum — seqs are
        #: unique), so which dict the walk iterates cannot change a
        #: decision, only how much dead-entry skimming it performs.
        self._active: dict[tuple, deque[tuple]] = {}
        #: interned single-element target tuples (lazily built per FTL):
        #: the overwhelmingly common 4 KB request targets one element, and
        #: reusing one tuple object per element skips a tuple build per
        #: submit while keeping bucket keys identical (tuples compare by
        #: content)
        self._single: Optional[List[tuple]] = None
        #: prune empty buckets only once the dict outgrows this (empty
        #: deques are kept between residencies — deleting them per select
        #: and reallocating per submit cost an allocation per request on
        #: shallow queues; the key space is bounded by the FTL's distinct
        #: target sets, so keeping them is cheap and pruning is a backstop)
        self._prune_len = 64

    def on_submit(self, request: IORequest, ssd: "SSD") -> None:
        """Resolve the request's target elements and bucket it under them.

        ``elements_for_range`` runs once per *submit* (not per dispatch);
        the resulting tuple is the bucket key, so every later ``select()``
        reads the target set off the bucket dict instead of recomputing or
        carrying per-request state.
        """
        op = request.op
        if op is _FREE or op is _FLUSH:
            targets: tuple = ()
        else:
            ftl = ssd.ftl
            indices = ftl.elements_for_range(request.offset, request.size)
            if len(indices) == 1:
                single = self._single
                if single is None:
                    single = self._single = [(el,) for el in ftl.elements]
                targets = single[indices[0]]
            else:
                elements = ftl.elements
                targets = tuple(elements[e] for e in indices)
        buckets = self._buckets
        bucket = buckets.get(targets)
        if bucket is None:
            if len(buckets) >= self._prune_len:
                active = self._active
                for key in [k for k, b in buckets.items() if not b]:
                    del buckets[key]
                    active.pop(key, None)
                self._prune_len = max(2 * (len(buckets) + 1), 64)
            bucket = buckets[targets] = deque()
        if not bucket:
            self._active[targets] = bucket
        bucket.append((request.seq, request))

    def select(self, ssd: "SSD") -> Optional[IORequest]:
        """Pick the next request to dispatch (None when nothing qualifies).

        Fast path: one linear min-scan over the buckets finds the best
        ``(wait, arrival)`` candidate; when it is admissible — every read,
        and every write outside an allocation stall — that single probe
        decides the dispatch with no candidate heap built at all.  An
        inadmissible best falls back to :meth:`_select_probing`, which
        rebuilds the full candidate heap and walks it in ``(wait, arrival)``
        order exactly as the always-heap implementation did (probing the
        best candidate a second time).
        """
        now = ssd.sim.now
        best: Optional[IORequest] = None
        best_key = 0.0
        best_seq = 0
        drained: Optional[List[tuple]] = None
        for targets, bucket in self._active.items():
            # head skim with the _live() predicate inlined (this loop runs
            # per dispatch and the call overhead shows in profiles)
            while bucket:
                head_seq, head = bucket[0]
                if head.queued and head.seq == head_seq:
                    break
                bucket.popleft()
            else:
                # emptied by the skim: drop from the active walk (the
                # deque itself stays in _buckets for reuse)
                if drained is None:
                    drained = []
                drained.append(targets)
                continue
            key = now  # zero-wait clamp: ties resolve by arrival order
            for element in targets:
                drain_at = element.drain_at_us
                if drain_at > key:
                    key = drain_at
            if (best is None or key < best_key
                    or (key == best_key and head_seq < best_seq)):
                best = head
                best_key = key
                best_seq = head_seq
        if drained:
            active = self._active
            for targets in drained:
                del active[targets]
        if best is None:
            return None
        if ssd.admissible(best):
            return best
        return self._select_probing(ssd, now)

    def _select_probing(self, ssd: "SSD", now: float) -> Optional[IORequest]:
        """The heap-ordered probe walk for the inadmissible-head case (an
        allocation stall is in progress): identical decisions to the seed's
        always-heap ``select``, just only paid for when skipping happens.
        Bucket heads are already skimmed by the caller."""
        candidates: List[tuple] = []
        for targets, bucket in self._active.items():
            if not bucket:
                continue
            key = now
            for element in targets:
                drain_at = element.drain_at_us
                if drain_at > key:
                    key = drain_at
            rest = iter(bucket)
            head_seq, head = next(rest)  # == bucket[0]; `rest` is past it
            candidates.append((key, head_seq, head, rest, bucket))
        heapify(candidates)
        chosen: Optional[IORequest] = None
        compact: Optional[List[deque]] = None
        while candidates:
            key, _seq, request, rest, bucket = heappop(candidates)
            if ssd.admissible(request):
                chosen = request
                break
            # skipped (inadmissible): the next arrival in the same bucket
            # has the same wait but a later seq
            skimmed = 0
            for entry in rest:
                if _live(entry):
                    successor_seq, successor = entry
                    heappush(candidates,
                             (key, successor_seq, successor, rest, bucket))
                    break
                skimmed += 1
            if skimmed > _COMPACT_SLACK:
                # a blocked head accumulates dead entries behind it that the
                # head-skim can't reach; compact so repeated probes during a
                # long stall don't re-walk an ever-growing dead prefix
                if compact is None:
                    compact = []
                compact.append(bucket)
        if compact:
            # safe here: the candidate heap (and its live iterators over
            # these deques) is abandoned once selection finishes
            for bucket in compact:
                live = [entry for entry in bucket if _live(entry)]
                bucket.clear()
                bucket.extend(live)
        return chosen


def make_scheduler(name: str):
    """Factory keyed by config string."""
    if name == "fcfs":
        return FCFSScheduler()
    if name == "swtf":
        return SWTFScheduler()
    raise ValueError(f"unknown scheduler {name!r} (expected 'fcfs' or 'swtf')")
