"""The SSD's host queue: one dispatch policy object per device.

The policy *is* the queue: it holds the queued requests in the one
structure its choice needs, and ``SSD.queue`` is an instance of one of
two policies from the paper:

* **FCFS** — dispatch strictly in arrival order; a write that cannot be
  admitted (flash allocation backpressure) blocks the queue head, as on a
  simple device.
* **SWTF** (*shortest wait time first*, §3.2) — "uses the queue wait times
  of all the parallel elements in an SSD and schedules an I/O that has the
  shortest wait time."  For each queued request we estimate the wait as the
  maximum of the target elements' queued work (a striped request finishes
  when its slowest shard does) and dispatch the minimum.  Inadmissible
  writes are skipped rather than blocking (the controller can reorder).

Both share one interface.  ``on_submit(request, ssd)`` queues a request;
``select(ssd)`` takes out and returns the next one to dispatch (None when
nothing qualifies); ``remove(request, ssd)`` takes out a queued request
by identity (a queue-merge steal, or a write failed by read-only
degradation).  Iteration and ``head()`` give arrival order, ``len()`` the
depth.  ``pending`` is truthy exactly while a request is queued: the SSD
reads it, not ``len()``, on its per-request empty checks.  The policy
asks ``SSD.admissible`` and decides; the SSD dispatches.

Incremental SWTF design
-----------------------
The seed implementation re-walked the whole host queue on every dispatch,
calling ``elements_for_range`` + ``queue_wait_us`` per queued request —
O(queue × elements) per dispatch, quadratic under open-loop overload, which
is exactly the regime the paper's scheduling and cleaning-interference
results live in.  The incremental version rests on four invariants:

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
   ``(max(D_r, now), head arrival seq)``.  Clamping the key at ``now``
   makes every zero-wait bucket compare equal on wait, so ties between
   zero-wait requests — and only those — resolve by arrival order, exactly
   like the seed's linear scan with its first-strictly-smaller rule and
   zero-wait early exit.

4. **A bucket's key never decreases.**  Its true key ``(max(now, D_b),
   head seq)`` only grows: ``now`` only moves forward, every element's
   ``drain_at_us`` only grows (it changes only at enqueue, where it moves
   to a later tail), and a FIFO's head seq only grows while the bucket
   stays non-empty (the head leaves, and later arrivals carry later seqs
   from the scheduler's own counter).  A bucket that empties loses its
   entry at once, so a refill starts a fresh one.  So the buckets sit in a
   **lazy-key heap**, one ``(key, head seq, targets, bucket)`` entry per
   non-empty bucket, whose stored key may be stale but is never above the
   true key.  ``select`` peeks at the top and recomputes its true key; if
   the two are equal, that bucket's head is the strict minimum (every
   other entry's true key is at or above its stored key, which is at or
   above the top's), so it is returned.  If not, the entry is re-keyed in
   place (``heapreplace``) and the new top is tried.  State does not
   change inside one ``select``, so each entry is re-keyed at most once
   per call and a dispatch costs O(k log B) for k stale entries among B
   buckets: usually one peek, because under a deep queue only the bucket
   the last dispatch fed has moved.  On the ``swtf_burst`` benchmark (8
   buckets, a host queue about 2600 deep) ``select`` runs 117 Python
   opcodes per call, where a scan of every bucket per dispatch ran 428
   (``benchmarks/opcount.py``; docs/architecture.md §5).

Admission mirrors the seed's skip-don't-block rule: candidates are probed
in ``(wait, arrival)`` order and an inadmissible candidate is passed over
in favour of the next arrival in its bucket (same wait, later seq).
Removals are eager: a dispatch pops its bucket's head (or, past a
skipped head, deletes the entry in place), a steal or failure deletes
its entry from the bucket its targets name, and a bucket that empties
drops its heap entry, so every bucket in the heap is non-empty and no
structure holds a request that has left the queue.  The probe itself
(``SSD.admissible``) asks the FTL afresh each time; ``can_accept_write``
is O(1) for single-page and single-stripe writes on every FTL
(docs/architecture.md §4 records why no memo sits in front of it).

Dispatch decisions are bit-identical to the seed's brute-force scan (kept
as a test helper and pinned by the equivalence test in
``tests/test_dispatch_pipeline.py``); only the wall-time cost changes.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush, heapreplace, merge
from itertools import count
from typing import Iterator, List, Optional, TYPE_CHECKING

from repro.device.interface import IORequest, OpType

if TYPE_CHECKING:  # pragma: no cover
    from repro.device.ssd import SSD

__all__ = ["FCFSScheduler", "SWTFScheduler", "make_scheduler"]

_FREE, _FLUSH = OpType.FREE, OpType.FLUSH  # see OpType


class FCFSScheduler:
    """First-come first-served with head-of-line blocking: the queue is
    one arrival-order deque, ``pending``."""

    name = "fcfs"

    def __init__(self) -> None:
        self.pending: deque[IORequest] = deque()

    def __len__(self) -> int:
        return len(self.pending)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.pending)

    def head(self) -> Optional[IORequest]:
        pending = self.pending
        return pending[0] if pending else None

    def on_submit(self, request: IORequest, ssd: "SSD") -> None:
        self.pending.append(request)

    def select(self, ssd: "SSD") -> Optional[IORequest]:
        pending = self.pending
        if pending and ssd.admissible(pending[0]):
            return pending.popleft()
        return None

    def remove(self, request: IORequest, ssd: "SSD") -> None:
        """Take a queued request out by identity (requests compare equal
        by value, so ``deque.remove`` could take out a twin)."""
        pending = self.pending
        for index, queued in enumerate(pending):
            if queued is request:
                del pending[index]
                return
        raise ValueError("request is not queued")


class SWTFScheduler:
    """Shortest-wait-time-first over the parallel elements (§3.2).

    See the module docstring for the incremental design and its
    invariants.  ``_buckets`` maps a target-element tuple to the FIFO of
    ``(seq, request)`` entries queued with exactly that target set; the
    buckets together are the queue, and arrival order is their merge by
    seq.  ``pending`` is the lazy-key heap: one ``(key, head_seq,
    targets, bucket)`` entry per non-empty bucket, ordered by a stored
    key that never exceeds the bucket's true key.
    """

    name = "swtf"

    def __init__(self) -> None:
        #: target-element tuple -> deque of (seq, request) entries
        self._buckets: dict[tuple, deque[tuple]] = {}
        #: the lazy-key heap: a bucket has an entry exactly while its deque
        #: is non-empty (pushed by the submit that fills it, dropped by the
        #: removal that empties it); ``(key, head_seq)`` pairs are unique
        #: because seqs are, so entries never compare past them
        self.pending: List[tuple] = []
        #: arrival stamps, unique within this queue
        self._seq = count().__next__
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

    def __len__(self) -> int:
        return sum(len(entry[3]) for entry in self.pending)

    def __iter__(self) -> Iterator[IORequest]:
        """Queued requests in arrival order (the buckets merged by seq)."""
        return (entry[1]
                for entry in merge(*[entry[3] for entry in self.pending]))

    def head(self) -> Optional[IORequest]:
        """The earliest-arrived queued request (None when empty)."""
        return next(iter(self), None)

    def _targets(self, request: IORequest, ssd: "SSD") -> tuple:
        """The request's target elements: its bucket key."""
        op = request.op
        if op is _FREE or op is _FLUSH:
            return ()
        ftl = ssd.ftl
        indices = ftl.elements_for_range(request.offset, request.size)
        if len(indices) == 1:
            single = self._single
            if single is None:
                single = self._single = [(el,) for el in ftl.elements]
            return single[indices[0]]
        elements = ftl.elements
        return tuple(elements[e] for e in indices)

    def on_submit(self, request: IORequest, ssd: "SSD") -> None:
        """Resolve the request's target elements and bucket it under them.

        ``elements_for_range`` runs once per *submit* (not per dispatch);
        the resulting tuple is the bucket key, so every later ``select()``
        reads the target set off the bucket instead of recomputing or
        carrying per-request state.  A request that fills an empty bucket
        pushes the bucket's heap entry at its current true key.
        """
        targets = self._targets(request, ssd)
        buckets = self._buckets
        bucket = buckets.get(targets)
        if bucket is None:
            if len(buckets) >= self._prune_len:
                for key in [k for k, b in buckets.items() if not b]:
                    del buckets[key]
                self._prune_len = max(2 * (len(buckets) + 1), 64)
            bucket = buckets[targets] = deque()
        seq = self._seq()
        if not bucket:
            key = ssd.sim.now
            for element in targets:
                drain_at = element.drain_at_us
                if drain_at > key:
                    key = drain_at
            heappush(self.pending, (key, seq, targets, bucket))
        bucket.append((seq, request))

    def select(self, ssd: "SSD") -> Optional[IORequest]:
        """Take out and return the next request to dispatch (None when
        nothing qualifies).

        Fast path: peek at the heap's top and recompute its true key.
        When the stored key equals it, no other bucket can beat that head
        (every other stored key is at or above the top's and at or below
        its own true key); otherwise the entry is re-keyed in place
        (``heapreplace``) and the new top is tried.  When the chosen head
        is admissible — every read, and every write outside an allocation
        stall — that single probe decides the dispatch, and the head
        leaves its bucket (the bucket's entry with it, if that empties
        it).  An inadmissible head falls back to :meth:`_select_probing`,
        which walks every bucket in ``(wait, arrival)`` order exactly as
        the always-heap implementation did (probing the best candidate a
        second time).
        """
        heap = self.pending
        now = ssd.sim.now
        while heap:
            key, seq, targets, bucket = heap[0]
            head_seq, head = bucket[0]
            true_key = now  # zero-wait clamp: ties resolve by arrival order
            for element in targets:
                drain_at = element.drain_at_us
                if drain_at > true_key:
                    true_key = drain_at
            if true_key == key and head_seq == seq:
                break
            entry = (true_key, head_seq, targets, bucket)
            heapreplace(heap, entry)
            if heap[0] is entry:
                break  # still on top, now at its true key
        else:
            return None
        if ssd.admissible(head):
            bucket.popleft()
            if not bucket:
                heappop(heap)  # the chosen bucket's entry is on top
            return head
        return self._select_probing(ssd, now)

    def _select_probing(self, ssd: "SSD", now: float) -> Optional[IORequest]:
        """The heap-ordered probe walk for the inadmissible-head case (an
        allocation stall is in progress): identical decisions to the seed's
        always-heap ``select``, just only paid for when skipping happens.

        The walk computes every bucket's true key, so it rebuilds the heap
        at those keys as it goes."""
        heap: List[tuple] = []
        candidates: List[tuple] = []
        for _key, _seq, targets, bucket in self.pending:
            key = now
            for element in targets:
                drain_at = element.drain_at_us
                if drain_at > key:
                    key = drain_at
            rest = iter(bucket)
            head = next(rest)
            heap.append((key, head[0], targets, bucket))
            candidates.append((key, head, rest, bucket))
        heapify(candidates)
        chosen: Optional[IORequest] = None
        while candidates:
            key, entry, rest, bucket = heappop(candidates)
            if ssd.admissible(entry[1]):
                chosen = entry[1]
                # the walk ends here, so changing the bucket under its
                # iterators is safe; entries ahead of this one differ in
                # seq, so only this one compares equal
                bucket.remove(entry)
                if not bucket:
                    heap = [item for item in heap if item[3] is not bucket]
                break
            # skipped (inadmissible): the next arrival in the same bucket
            # has the same wait but a later seq
            successor = next(rest, None)
            if successor is not None:
                heappush(candidates, (key, successor, rest, bucket))
        heapify(heap)
        self.pending = heap
        return chosen

    def remove(self, request: IORequest, ssd: "SSD") -> None:
        """Take a queued request out of the bucket its targets name."""
        bucket = self._buckets.get(self._targets(request, ssd))
        entry = next((entry for entry in bucket or () if entry[1] is request),
                     None)
        if bucket is None or entry is None:
            raise ValueError("request is not queued")
        bucket.remove(entry)
        if not bucket:
            heap = self.pending = [item for item in self.pending
                                   if item[3] is not bucket]
            heapify(heap)


def make_scheduler(name: str):
    """Factory keyed by config string."""
    if name == "fcfs":
        return FCFSScheduler()
    if name == "swtf":
        return SWTFScheduler()
    raise ValueError(f"unknown scheduler {name!r} (expected 'fcfs' or 'swtf')")
