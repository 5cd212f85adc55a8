"""Coverage for the remaining infrastructure: resources, joins, configs,
wear summaries, and the contract checker's fast pieces."""

from __future__ import annotations

import pytest

from repro.core.contract import (
    COLUMNS,
    PAPER_VERDICTS,
    TERMS,
    TermVerdict,
    _spearman,
    evaluate_contract,
)
from repro.device.ssd_config import SSDConfig
from repro.flash.element import FlashElement
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.flash.wear import summarize_wear
from repro.ftl.base import CompletionJoin
from repro.ftl.cleaning import CleaningConfig
from repro.sim.engine import Simulator
from repro.sim.resource import SerialResource


class TestSerialResource:
    def test_back_to_back_transfers_serialize(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)  # 1 MiB/s
        finishes = []
        link.transfer(1024 * 1024, finishes.append)  # 1 s
        link.transfer(1024 * 1024, finishes.append)  # queued behind
        sim.run_until_idle()
        assert finishes[0] == pytest.approx(1_000_000.0)
        assert finishes[1] == pytest.approx(2_000_000.0)

    def test_wait_estimate(self):
        sim = Simulator()
        link = SerialResource(sim, mb_per_s=1.0)
        assert link.wait_us() == 0.0
        link.transfer(1024 * 1024, lambda now: None)
        assert link.wait_us() == pytest.approx(1_000_000.0)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            SerialResource(Simulator(), mb_per_s=0)


class TestCompletionJoin:
    def test_zero_children_fires_asynchronously(self):
        sim = Simulator()
        fired = []
        join = CompletionJoin(sim, fired.append)
        join.arm()
        assert not fired  # not synchronous (no re-entrancy surprises)
        sim.run_until_idle()
        assert len(fired) == 1

    def test_fires_after_all_children(self):
        sim = Simulator()
        fired = []
        join = CompletionJoin(sim, fired.append)
        join.expect(3)
        join.arm()
        join.child_done(1.0)
        join.child_done(2.0)
        assert not fired
        join.child_done(3.0)
        assert fired == [3.0]

    def test_fires_exactly_once(self):
        sim = Simulator()
        fired = []
        join = CompletionJoin(sim, fired.append)
        join.arm()
        sim.run_until_idle()
        sim.run_until_idle()
        assert len(fired) == 1

    def test_unarmed_join_never_fires(self):
        """A request that raised before arming is completed by whoever
        caught the error, not by the commands it had already issued."""
        sim = Simulator()
        fired = []
        join = CompletionJoin(sim, fired.append)
        join.expect(2)
        join.child_done(1.0)
        join.child_done(2.0)
        sim.run_until_idle()
        assert not fired

    def test_none_callback_tolerated(self):
        sim = Simulator()
        join = CompletionJoin(sim, None)
        join.expect()
        join.child_done(1.0)  # must not raise


class TestConfigValidation:
    def test_ssd_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SSDConfig(n_elements=0)
        with pytest.raises(ValueError):
            SSDConfig(ftl_type="magic")
        with pytest.raises(ValueError):
            SSDConfig(write_buffer="teleport")
        with pytest.raises(ValueError):
            SSDConfig(max_inflight=0)
        with pytest.raises(ValueError):
            SSDConfig(controller_overhead_us=-1)

    def test_cleaning_config_rejects_bad_watermarks(self):
        with pytest.raises(ValueError):
            CleaningConfig(low_watermark=0.02, critical_watermark=0.05)
        with pytest.raises(ValueError):
            CleaningConfig(policy="eager")
        with pytest.raises(ValueError):
            CleaningConfig(batch_pages=0)

    def test_geometry_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FlashGeometry(page_bytes=0)

    def test_geometry_capacity_helper(self):
        geometry = FlashGeometry.with_capacity(10 << 20)
        assert geometry.pages_per_element * geometry.page_bytes >= 10 << 20

    def test_ssd_config_with_override(self):
        config = SSDConfig().with_(n_elements=3)
        assert config.n_elements == 3
        assert SSDConfig().n_elements == 8  # original untouched


class TestWearSummary:
    def test_aggregates_across_elements(self):
        sim = Simulator()
        geometry = FlashGeometry(pages_per_block=4, blocks_per_element=4)
        elements = [FlashElement(sim, geometry, FlashTiming.slc(), i)
                    for i in range(2)]
        elements[0].erase_count[:] = [1, 2, 3, 4]
        elements[1].erase_count[:] = [0, 0, 5, 5]
        summary = summarize_wear(elements)
        assert summary.total_erases == 20
        assert summary.min_erases == 0
        assert summary.max_erases == 5
        assert summary.spread == 5
        assert summary.block_count == 8

    def test_empty(self):
        summary = summarize_wear([])
        assert summary.total_erases == 0


class TestContractPieces:
    def test_spearman_perfect_monotone(self):
        assert _spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_spearman_constant_is_zero(self):
        assert _spearman([1, 2, 3, 4], [5, 5, 5, 5]) == 0.0

    def test_spearman_anticorrelated(self):
        assert _spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_verdict_matching_rules(self):
        exact = TermVerdict(1, "disk", "T", "T", "")
        approx = TermVerdict(2, "disk", "T", "y", "")
        miss = TermVerdict(3, "disk", "T", "F", "")
        assert exact.matches_paper
        assert approx.matches_paper
        assert not miss.matches_paper

    def test_paper_table_is_complete(self):
        assert set(PAPER_VERDICTS) == set(TERMS)
        for verdicts in PAPER_VERDICTS.values():
            assert len(verdicts) == len(COLUMNS)

    def test_single_cell_evaluation(self):
        # terms 5 is cheap (one churn run per column); a full smoke of the
        # probe machinery without the expensive bandwidth sweeps
        report = evaluate_contract(columns=("mems",), terms=[5])
        verdict = report.verdict(5, "mems")
        assert verdict.verdict == "T"
        assert verdict.paper_verdict == "T"
