"""The replay core: submit_batch, streaming feeder, vectorized prefill.

Pins three contracts:

1. **submit_batch equivalence** — ``SSD.submit_batch(requests)`` is one
   ``submit()`` per request, in order: same clock, same FTL stats, same
   completion stream.
2. **Streaming equivalence** — the one-armed-event streaming core orders
   submissions exactly like pre-scheduling one front-lane event per record
   (:func:`prescheduled_replay`, the seed's replay loop kept as the
   reference), including same-timestamp groups.
3. **Vectorized prefill equivalence** — ``prefill_pagemap`` and
   ``prefill_stripe_ftl`` leave state byte-identical to the seed's
   per-block reference loops (kept verbatim below), including partial
   tail blocks, overwrite scatter, and partially-mapped stripe maps.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.device.interface import IORequest, OpType
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.flash.element import FlashElement, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap, prefill_stripe_ftl
from repro.sim.engine import Simulator
from repro.traces.record import TraceRecord
from repro.traces.synthetic import SyntheticConfig, iter_synthetic
from repro.workloads.driver import WorkloadResult, replay_trace
from tests.conftest import schedule_at_front, small_geometry
from tests.test_prefill_kernel import scalar_instant_clean

KB4 = 4096


# ---------------------------------------------------------------------------
# 1 + 2: submission equivalence
# ---------------------------------------------------------------------------

def prescheduled_replay(sim, device, records):
    """The seed's replay loop: one front-lane event per record, all
    scheduled before the run starts.  The reference the streaming feeder
    must reproduce completion for completion."""
    result = WorkloadResult()

    def on_complete(request):
        if request.op in (OpType.READ, OpType.WRITE):
            result.record(request)

    def submit(record):
        device.submit(IORequest(record.op, record.offset,
                                record.size, record.priority, on_complete))

    start = sim.now
    for record in records:
        schedule_at_front(sim, start + record.time_us, submit, record)
    sim.run_until_idle()
    result.elapsed_us = sim.now - start
    return result


def _bursty_records(count, capacity, seed=11):
    """A sorted trace with heavy timestamp ties (bursts of arrivals)."""
    config = SyntheticConfig(
        count=count,
        region_bytes=int(capacity * 0.6),
        request_bytes=KB4,
        read_fraction=0.5,
        seq_probability=0.2,
        interarrival_max_us=40.0,
        priority_fraction=0.1,
        seed=seed,
    )
    for record in iter_synthetic(config):
        # quantize onto a 200 us grid: ~5 records share each instant
        yield TraceRecord(record.time_us // 200.0 * 200.0, record.op,
                          record.offset, record.size, record.priority)


class TestSubmitBatchEquivalence:
    def _run(self, batched: bool):
        sim = Simulator()
        ssd = SSD(sim, SSDConfig(n_elements=4, geometry=small_geometry(),
                                 scheduler="swtf", max_inflight=4,
                                 controller_overhead_us=5.0))
        result = WorkloadResult()
        groups: dict = {}
        for record in _bursty_records(2000, ssd.capacity_bytes, seed=5):
            groups.setdefault(record.time_us, []).append(record)
        assert max(map(len, groups.values())) > 1  # real same-instant groups

        def arrive(records):
            requests = [IORequest(r.op, r.offset, r.size,
                                  r.priority, result.record)
                        for r in records]
            if batched:
                ssd.submit_batch(requests)
            else:
                for request in requests:
                    ssd.submit(request)

        for at, records in groups.items():
            schedule_at_front(sim, at, arrive, records)
        sim.run_until_idle()
        return sim, ssd, result

    def test_batch_equals_per_request_submit(self):
        sim_b, ssd_b, batched = self._run(batched=True)
        sim_r, ssd_r, reference = self._run(batched=False)
        assert sim_b.now == sim_r.now
        assert ssd_b.ftl.stats.as_dict() == ssd_r.ftl.stats.as_dict()
        assert batched.count == reference.count == 2000
        assert batched.completions == reference.completions


class TestStreamingEquivalence:
    def _run(self, replay):
        sim = Simulator()
        ssd = SSD(sim, SSDConfig(n_elements=4, geometry=small_geometry(),
                                 scheduler="swtf", max_inflight=8,
                                 controller_overhead_us=5.0))
        records = list(_bursty_records(5000, ssd.capacity_bytes, seed=3))
        return replay(sim, ssd, records), sim, ssd

    def test_streamed_matches_full_prescheduling(self):
        streamed, sim_s, ssd_s = self._run(replay_trace)
        listed, sim_l, ssd_l = self._run(prescheduled_replay)
        assert sim_s.now == sim_l.now
        assert streamed.completions == listed.completions
        assert ssd_s.ftl.stats.as_dict() == ssd_l.ftl.stats.as_dict()


# ---------------------------------------------------------------------------
# 3: vectorized prefill vs the seed's per-block reference loops
# ---------------------------------------------------------------------------

def _reference_prefill_pagemap(ftl, fill_fraction, overwrite_fraction=0.0,
                               rng=None):
    """The seed's per-block implementation, kept verbatim as the oracle."""
    geom = ftl.geometry
    ppb = geom.pages_per_block
    count = int(fill_fraction * ftl.user_logical_pages)
    for e_idx, el in enumerate(ftl.elements):
        gang = e_idx // ftl.shards
        n = len(range(gang, count, ftl.n_gangs))
        if n == 0:
            continue
        emap = ftl._maps[e_idx]
        pool = ftl._pool[e_idx]
        filled = 0
        while filled < n:
            block = pool.pop(0)
            take = min(ppb, n - filled)
            el.page_state[block, :take] = PageState.VALID
            el.reverse_lpn[block, :take] = np.arange(filled, filled + take)
            el.valid_count[block] = take
            el.write_ptr[block] = take
            emap[filled:filled + take] = block * ppb + np.arange(take)
            ftl._free[e_idx] -= take
            if take < ppb:
                ftl._frontier[e_idx]["hot"] = block
            filled += take
    if overwrite_fraction > 0.0 and count > 0:
        rng = rng if rng is not None else random.Random(0)
        rewrites = int(overwrite_fraction * count)
        for _ in range(rewrites):
            lpn = rng.randrange(count)
            gang, slot = ftl._gang_slot(lpn)
            for j in range(ftl.shards):
                e_idx = gang * ftl.shards + j
                el = ftl.elements[e_idx]
                floor = max(
                    ftl.reserve_pages,
                    ftl.cleaner.low_watermark_pages + geom.pages_per_block,
                )
                while ftl.free_pages(e_idx) <= floor:
                    assert scalar_instant_clean(ftl, e_idx)
                old = int(ftl._maps[e_idx][slot])
                el.invalidate_state(geom.block_of(old), geom.page_of(old))
                block, page, _ = ftl.allocate_run(e_idx, 1)
                el.program_state(block, page, slot)
                ftl._maps[e_idx][slot] = geom.page_index(block, page)
    return count


def _reference_prefill_stripe(ftl, fill_fraction):
    """The seed's per-stripe implementation, kept verbatim as the oracle."""
    ppb = ftl.geometry.pages_per_block
    total = ftl.n_gangs * ftl.user_rows_per_gang
    count = int(fill_fraction * total)
    for lbn in range(count):
        gang, slot = ftl._gang_slot(lbn)
        if ftl._maps[gang][slot] >= 0:
            continue
        row = ftl._pool[gang].pop(0)
        ftl._maps[gang][slot] = row
        for j in range(ftl.shards):
            el = ftl.elements[gang * ftl.shards + j]
            el.page_state[row, :] = PageState.VALID
            el.reverse_lpn[row, :] = slot
            el.valid_count[row] = ppb
            el.write_ptr[row] = ppb
    return count


def _pagemap(lp=None, blocks=64, pages=16):
    sim = Simulator()
    geom = FlashGeometry(page_bytes=KB4, pages_per_block=pages,
                         blocks_per_element=blocks)
    elements = [FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
                for i in range(4)]
    return PageMappedFTL(sim, elements, logical_page_bytes=lp,
                         spare_fraction=0.15)


def _stripe():
    sim = Simulator()
    geom = FlashGeometry(page_bytes=KB4, pages_per_block=8,
                         blocks_per_element=48)
    elements = [FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
                for i in range(4)]
    return BlockMappedFTL(sim, elements, gang_size=2, spare_fraction=0.25)


def _assert_same_state(a, b):
    for el_a, el_b in zip(a.elements, b.elements):
        assert (el_a.page_state == el_b.page_state).all()
        assert (el_a.reverse_lpn == el_b.reverse_lpn).all()
        assert (el_a.valid_count == el_b.valid_count).all()
        assert (el_a.write_ptr == el_b.write_ptr).all()
        assert (el_a.erase_count == el_b.erase_count).all()
    for map_a, map_b in zip(a._maps, b._maps):
        assert (map_a == map_b).all()
    for pool_a, pool_b in zip(a._pool, b._pool):
        assert list(pool_a) == list(pool_b)


class TestPrefillVectorizationEquivalence:
    @pytest.mark.parametrize("lp,fill,overwrite", [
        (None, 0.9, 0.0),
        (None, 0.37, 0.0),   # partial tail block
        (None, 0.9, 0.4),    # overwrite scatter + instant cleans
        (8192, 0.9, 0.3),    # striped logical pages (shards=2)
    ])
    def test_pagemap_matches_reference(self, lp, fill, overwrite):
        vectorized, reference = _pagemap(lp), _pagemap(lp)
        n_v = prefill_pagemap(vectorized, fill, overwrite_fraction=overwrite,
                              rng=random.Random(5))
        n_r = _reference_prefill_pagemap(reference, fill,
                                         overwrite_fraction=overwrite,
                                         rng=random.Random(5))
        assert n_v == n_r
        assert vectorized._free == reference._free
        assert vectorized._frontier == reference._frontier
        _assert_same_state(vectorized, reference)
        vectorized.check_consistency()

    def test_stripe_matches_reference(self):
        vectorized, reference = _stripe(), _stripe()
        assert prefill_stripe_ftl(vectorized, 0.9) == \
            _reference_prefill_stripe(reference, 0.9)
        _assert_same_state(vectorized, reference)
        vectorized.check_consistency()

    def test_stripe_partially_mapped_resume(self):
        """The vectorized mask path: continuing a partially-mapped fill
        carves only the still-unmapped slots, like the seed's skip."""
        vectorized, reference = _stripe(), _stripe()
        prefill_stripe_ftl(vectorized, 0.3)
        prefill_stripe_ftl(reference, 0.3)
        assert prefill_stripe_ftl(vectorized, 0.9) == \
            _reference_prefill_stripe(reference, 0.9)
        _assert_same_state(vectorized, reference)
        vectorized.check_consistency()
