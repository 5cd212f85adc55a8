"""Unit and property tests for the free-block pools.

A pool is a plain list of erased blocks in pool-entry order.  The
page-mapped FTL pulls from it least-worn first (dynamic wear-leveling),
most-worn first (cold data, static-migration destinations) or LIFO (wear
policies off), reading each block's erase count live; prefill carves the
oldest entries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.element import FlashElement
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.base import DeviceFullError
from repro.ftl.pagemap import PageMappedFTL, pop_least_worn, pop_most_worn
from repro.ftl.prefill import _carve
from repro.sim.engine import Simulator

KB4 = 4096


def make_pool(counts):
    """A fresh pool over blocks ``0..n-1`` and the live counts it reads."""
    arr = np.asarray(counts, dtype=np.int64)
    return list(range(len(counts))), arr, memoryview(arr)


def make_ftl(blocks=16):
    sim = Simulator()
    geom = FlashGeometry(page_bytes=KB4, pages_per_block=4,
                         blocks_per_element=blocks)
    element = FlashElement(sim, geom, FlashTiming.slc(), element_id=0)
    ftl = PageMappedFTL(sim, [element], spare_fraction=0.25)
    return ftl, element


def scan_pull(reference, counts, most):
    """The list-scan reference: the first entry whose count no later entry
    beats strictly, removed."""
    best = 0
    for i in range(1, len(reference)):
        here, there = counts[reference[i]], counts[reference[best]]
        if (here > there) if most else (here < there):
            best = i
    return reference.pop(best)


class TestBasics:
    def test_membership_len_iter(self):
        pool, _, wear = make_pool([0, 0, 0])
        assert len(pool) == 3
        assert list(pool) == [0, 1, 2]
        assert pop_least_worn(pool, wear) == 0
        assert pool == [1, 2]

    def test_empty_pops_raise(self):
        # the FTL refuses a pull from an empty pool before any policy runs
        ftl, _ = make_ftl()
        ftl._pool[0].clear()
        for temp in ("hot", "cold"):
            with pytest.raises(DeviceFullError):
                ftl._pull_row(0, temp)

    def test_double_push_asserts(self):
        ftl, _ = make_ftl()
        ftl.check_consistency()
        ftl._pool[0].append(ftl._pool[0][0])
        with pytest.raises(AssertionError, match="pooled twice"):
            ftl.check_consistency()


class TestWearOrder:
    def test_min_and_max_follow_counts(self):
        pool, _, wear = make_pool([5, 1, 9, 3])
        assert pop_least_worn(pool, wear) == 1
        assert pop_most_worn(pool, wear) == 2
        assert pop_least_worn(pool, wear) == 3
        assert pop_least_worn(pool, wear) == 0

    def test_ties_break_by_pool_entry_order(self):
        # among equally worn blocks the earliest pool entry wins
        pool, _, wear = make_pool([2, 2, 2])
        assert pop_least_worn(pool, wear) == 0
        assert pop_most_worn(pool, wear) == 1

    def test_reentered_block_ranks_after_older_ties(self):
        pool, _, wear = make_pool([1, 1, 1])
        block = pop_least_worn(pool, wear)  # 0
        pool.append(block)  # same count, but now the newest entry
        assert pop_least_worn(pool, wear) == 1

    def test_counts_read_at_pull_time(self):
        pool, arr, wear = make_pool([0, 0])
        arr[1] += 1  # pooled, and nothing is told
        assert pop_least_worn(pool, wear) == 0
        pool.append(0)
        arr[0] += 5
        assert pop_most_worn(pool, wear) == 0

    def test_ftl_pulls_see_counter_writes(self):
        # erase counts written straight into the element steer the FTL's
        # pulls with no follow-up call
        ftl, element = make_ftl()
        element.erase_count[:] = 7
        element.erase_count[2] = 1
        element.erase_count[9] = 30
        assert ftl._pull_block(0, "hot") == 2
        assert ftl._pull_block(0, "cold") == 9
        assert ftl.pull_worn_free_block(0) == 0


class TestOrderedPops:
    def test_lifo_and_fifo(self):
        pool, _, _ = make_pool([0, 0, 0, 0])
        assert list(_carve(pool, 1)) == [0]
        assert pool.pop() == 3
        pool.append(0)
        assert pool.pop() == 0
        assert list(_carve(pool, 2)) == [1, 2]
        with pytest.raises(IndexError):
            _carve(pool, 1)

    def test_mixed_pulls_keep_entry_order(self):
        pool, _, wear = make_pool([3, 1, 2, 0])
        assert pop_least_worn(pool, wear) == 3   # count 0
        assert pool.pop() == 2                   # newest remaining entry
        assert list(_carve(pool, 1)) == [0]      # oldest remaining entry
        assert pool == [1]


N_BLOCKS = 16

actions = st.lists(
    st.tuples(st.sampled_from(["least", "most", "lifo", "push", "wear"]),
              st.integers(0, N_BLOCKS - 1), st.integers(0, 5)),
    max_size=300,
)


class TestStress:
    @settings(max_examples=200, deadline=None)
    @given(steps=actions)
    def test_matches_list_reference_under_churn(self, steps):
        counts = np.zeros(N_BLOCKS, dtype=np.int64)
        wear = memoryview(counts)
        pool = list(range(N_BLOCKS))
        reference = list(range(N_BLOCKS))
        for action, pick, amount in steps:
            if action == "push":
                absent = [b for b in range(N_BLOCKS) if b not in reference]
                if not absent:
                    continue
                block = absent[pick % len(absent)]
                counts[block] += 1  # erased while out of the pool
                pool.append(block)
                reference.append(block)
            elif action == "wear":
                if reference:
                    # a pooled block's count moves, with no follow-up call
                    counts[reference[pick % len(reference)]] += amount
            elif not reference:
                continue
            elif action == "lifo":
                assert pool.pop() == reference.pop()
            else:
                most = action == "most"
                pull = pop_most_worn if most else pop_least_worn
                assert pull(pool, wear) == scan_pull(reference, counts, most)
            assert pool == reference
