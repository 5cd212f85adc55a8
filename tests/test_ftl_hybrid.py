"""Tests for the FAST-style hybrid log-block FTL."""

from __future__ import annotations

import random

import pytest

from repro.flash.element import FlashElement, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.hybrid import HybridLogBlockFTL
from repro.ftl.prefill import prefill_stripe_ftl
from repro.sim.engine import Simulator

KB4 = 4096


def make_ftl(n_elements=2, gang_size=2, blocks=32, pages=4, spare=0.2,
             max_log_rows=2):
    sim = Simulator()
    geom = FlashGeometry(page_bytes=KB4, pages_per_block=pages,
                         blocks_per_element=blocks)
    elements = [
        FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
        for i in range(n_elements)
    ]
    ftl = HybridLogBlockFTL(sim, elements, gang_size=gang_size,
                            spare_fraction=spare, max_log_rows=max_log_rows)
    return sim, ftl


class TestConstruction:
    def test_capacity_excludes_log_rows(self):
        _sim, ftl = make_ftl(blocks=32, max_log_rows=4)
        assert ftl.user_rows_per_gang == int(32 * 0.8) - 4

    def test_rejects_zero_log_rows(self):
        with pytest.raises(ValueError):
            make_ftl(max_log_rows=0)


class TestLogWrites:
    def test_partial_write_goes_to_log(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        ftl.write(0, KB4)
        sim.run_until_idle()
        assert len(ftl._log_rows[0]) == 1
        assert (0, 0) in ftl._log_index[0]
        ftl.check_consistency()

    def test_log_write_invalidates_data_copy(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        row = ftl._maps[0][0]
        ftl.write(0, KB4)
        sim.run_until_idle()
        el, local = ftl._element(0, 0)
        assert el.page_state[row, local] == PageState.INVALID
        ftl.check_consistency()

    def test_rewrite_supersedes_log_entry(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        ftl.write(0, KB4)
        sim.run_until_idle()
        first = ftl._log_index[0][(0, 0)]
        ftl.write(0, KB4)
        sim.run_until_idle()
        second = ftl._log_index[0][(0, 0)]
        assert first != second
        ftl.check_consistency()

    def test_full_stripe_write_bypasses_log(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        old_row = ftl._maps[0][0]
        ftl.write(0, ftl.stripe_bytes)
        sim.run_until_idle()
        assert not ftl._log_index[0]
        assert ftl._maps[0][0] != old_row
        ftl.check_consistency()

    def test_read_prefers_log_copy(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        ftl.write(0, KB4)
        sim.run_until_idle()
        lrow, lpos = ftl._log_index[0][(0, 0)]
        el, local = ftl._element(0, lpos)
        reads_before = el.pages_read
        ftl.read(0, KB4)
        sim.run_until_idle()
        assert el.pages_read == reads_before + 1


class TestMerge:
    def test_merge_triggered_when_log_exhausted(self):
        sim, ftl = make_ftl(blocks=32, pages=4, gang_size=2, max_log_rows=1)
        prefill_stripe_ftl(ftl, 0.4)
        pages_per_stripe = ftl.pages_per_stripe
        # fill the single log stripe, then one more append forces a merge
        for i in range(pages_per_stripe + 1):
            ftl.write((i % 4) * KB4, KB4)
            sim.run_until_idle()
        assert ftl.merges_performed >= 1
        ftl.check_consistency()

    def test_merge_folds_log_into_data_rows(self):
        sim, ftl = make_ftl(blocks=32, pages=4, gang_size=2, max_log_rows=1)
        prefill_stripe_ftl(ftl, 0.4)
        for i in range(ftl.pages_per_stripe + 1):
            ftl.write((i % 4) * KB4, KB4)
            sim.run_until_idle()
        # all surviving log entries reference current log rows only
        for (slot, p), (lrow, lpos) in ftl._log_index[0].items():
            assert lrow in ftl._log_rows[0]
        ftl.check_consistency()

    def test_merge_cost_accounted_as_cleaning(self):
        sim, ftl = make_ftl(blocks=32, pages=4, gang_size=2, max_log_rows=1)
        prefill_stripe_ftl(ftl, 0.4)
        for i in range(ftl.pages_per_stripe + 1):
            ftl.write((i % 4) * KB4, KB4)
            sim.run_until_idle()
        assert ftl.stats.clean_pages_moved > 0
        assert ftl.stats.clean_time_us > 0


class TestTrim:
    def test_full_stripe_trim_drops_log_and_data(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        ftl.write(0, KB4)  # one log entry
        sim.run_until_idle()
        ftl.trim(0, ftl.stripe_bytes)
        sim.run_until_idle()
        assert (0, 0) not in ftl._log_index[0]
        assert ftl._maps[0][0] == -1
        ftl.check_consistency()


class TestChurn:
    def test_random_churn_keeps_invariants(self):
        sim, ftl = make_ftl(n_elements=2, gang_size=2, blocks=48, pages=4,
                            max_log_rows=3)
        prefill_stripe_ftl(ftl, 0.4)
        rng = random.Random(9)
        capacity = ftl.logical_capacity_bytes
        for _ in range(200):
            offset = rng.randrange(capacity // KB4) * KB4
            size = min(KB4 * rng.choice([1, 2]), capacity - offset)
            if rng.random() < 0.7:
                ftl.write(offset, size)
            else:
                ftl.read(offset, size)
            sim.run_until_idle()
            ftl.check_consistency()
