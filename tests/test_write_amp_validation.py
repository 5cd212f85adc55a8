"""The external correctness anchor: simulated steady-state WA vs theory.

Everything else in the suite pins the simulator against itself (goldens)
or the paper's tables.  This file checks it against closed forms *derived
independently of this codebase* (Desnoyers; Bux & Iliadis; Dayan et al.):

* the closed forms themselves (fixed points, asymptotics, reductions);
* the OP sweep — measured steady-state WA within the tolerance band at
  every point and monotonically decreasing in overprovisioning;
* discrimination — a deliberately broken cleaner (worst-victim selection)
  must blow through the band, proving the validator can actually fail;
* sequential overwrite — on every FTL family, whole-unit writes that sweep
  the device in order invalidate each unit whole before it is cleaned, so
  WA is exactly 1 and cleaning copies nothing.
"""

from __future__ import annotations

from math import exp

import numpy as np
import pytest

from repro.device.interface import OpType
from repro.device.presets import s2slc, s4slc_sim
from repro.ftl.cleaning import Cleaner
from repro.sim.engine import Simulator
from repro.validation.write_amp import (DEFAULT_SPARES, HIGH_RTOL, LOW_RTOL,
                                        WAConfig, WAMeasurement,
                                        fifo_write_amp, format_table,
                                        greedy_write_amp, harmonic,
                                        measure_write_amp, sweep_write_amp,
                                        within_band)
from repro.workloads.driver import ClosedLoopDriver

#: CI-sized harness (same as the CLI's --fast): calibration showed the
#: same ratios as the full size to within a point
FAST = WAConfig(blocks_per_element=96, settle_multiple=2.0,
                measure_multiple=0.75)

#: small single-point harness for the discrimination tests
SMALL = WAConfig(spare_fraction=0.25, blocks_per_element=64,
                 settle_multiple=1.0, measure_multiple=0.5)


class TestClosedForms:
    def test_harmonic_exact_at_integers(self):
        assert harmonic(0.0) == pytest.approx(0.0, abs=1e-10)
        assert harmonic(1.0) == pytest.approx(1.0, abs=1e-10)
        assert harmonic(2.0) == pytest.approx(1.5, abs=1e-10)
        assert harmonic(10.0) == pytest.approx(
            sum(1.0 / k for k in range(1, 11)), abs=1e-10)
        assert harmonic(100.0) == pytest.approx(
            sum(1.0 / k for k in range(1, 101)), abs=1e-12)
        with pytest.raises(ValueError):
            harmonic(-1.0)

    def test_fifo_solves_its_fixed_point(self):
        for op in (0.07, 0.15, 0.28, 1.0):
            wa = fifo_write_amp(op)
            u = 1.0 - 1.0 / wa
            assert exp(-(1.0 + op) * (1.0 - u)) == pytest.approx(u, rel=1e-9)
            assert wa > 1.0

    def test_fifo_monotone_decreasing_in_op(self):
        points = [fifo_write_amp(op) for op in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert points == sorted(points, reverse=True)

    def test_greedy_below_fifo_and_monotone(self):
        for op in (0.07, 0.12, 0.25):
            greedy = greedy_write_amp(op, 64)
            assert 1.0 < greedy < fifo_write_amp(op)
        points = [greedy_write_amp(op, 64) for op in (0.05, 0.1, 0.2, 0.4)]
        assert points == sorted(points, reverse=True)

    def test_greedy_converges_to_fifo_as_b_grows(self):
        for op in (0.1, 0.3):
            assert greedy_write_amp(op, 1_000_000) == pytest.approx(
                fifo_write_amp(op), rel=1e-3)

    def test_greedy_saturates_at_one_for_huge_spare(self):
        # enough spare that blocks fully decay before reclamation
        assert greedy_write_amp(50.0, 16) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fifo_write_amp(0.0)
        with pytest.raises(ValueError):
            greedy_write_amp(-0.1, 64)
        with pytest.raises(ValueError):
            greedy_write_amp(0.1, 1)


class TestBand:
    def _m(self, measured, model=2.0):
        return WAMeasurement(
            nominal_op=0.1, effective_op=0.09, measured_wa=measured,
            model_wa=model, fifo_wa=model * 1.05, host_pages=1000,
            flash_pages=int(1000 * measured), clean_pages_moved=0,
            clean_erases=0, mean_free_pages=10.0)

    def test_band_edges_inclusive(self):
        assert within_band(self._m(2.0 * (1 - LOW_RTOL)))
        assert within_band(self._m(2.0 * (1 + HIGH_RTOL)))
        assert not within_band(self._m(2.0 * (1 - LOW_RTOL) - 1e-6))
        assert not within_band(self._m(2.0 * (1 + HIGH_RTOL) + 1e-6))

    def test_custom_tolerances(self):
        m = self._m(2.5)
        assert not within_band(m)
        assert within_band(m, low_rtol=0.0, high_rtol=0.30)

    def test_ratio(self):
        assert self._m(2.2).ratio == pytest.approx(1.1)


@pytest.fixture(scope="module")
def sweep():
    """One OP sweep at CI size, shared by the property tests below."""
    return sweep_write_amp(DEFAULT_SPARES, FAST)


class TestOPSweep:
    def test_tracks_the_analytical_curve(self, sweep):
        assert len(sweep) == len(DEFAULT_SPARES) >= 4
        for m in sweep:
            assert within_band(m), format_table(sweep)

    def test_wa_monotonically_decreasing_in_op(self, sweep):
        measured = [m.measured_wa for m in sweep]
        assert measured == sorted(measured, reverse=True), measured
        ops = [m.effective_op for m in sweep]
        assert ops == sorted(ops)

    def test_effective_op_accounting(self, sweep):
        for m in sweep:
            # the watermark pool eats some spare, never all of it
            assert 0.0 < m.effective_op < m.nominal_op
            assert m.mean_free_pages > 0.0

    def test_steady_state_actually_cleans(self, sweep):
        for m in sweep:
            assert m.clean_erases > 0
            assert m.flash_pages == m.host_pages + m.clean_pages_moved
            assert m.measured_wa > 1.2  # overwrites, not fresh writes

    def test_model_between_bounds(self, sweep):
        for m in sweep:
            assert 1.0 < m.model_wa < m.fifo_wa


class WorstVictimCleaner(Cleaner):
    """Broken on purpose: picks the candidate with the MOST valid pages
    (>= 25% invalid and copies fitting free headroom); greedy fallback
    keeps it live-locked-free so the measurement completes."""

    def select_victim(self, e_idx):
        ftl = self.ftl
        el = ftl.elements[e_idx]
        ppb = ftl.geometry.pages_per_block
        candidates = (el.write_ptr > 0) & ~el.retired
        for f in ftl.frontier_blocks(e_idx):
            candidates[f] = False
        for b in self.being_cleaned[e_idx]:
            candidates[b] = False
        cap = min(ppb - ppb // 4, ftl.free_pages(e_idx) - ftl.reserve_pages - 4)
        valid = el.valid_count
        gain = candidates & (valid <= cap) & (valid < ppb)
        if gain.any():
            masked = np.where(gain, valid, -1)
            return int(masked.argmax())
        return super().select_victim(e_idx)


class TestDiscrimination:
    """The validator must be able to *fail*: same harness, same OP point,
    only the victim policy differs."""

    def test_real_cleaner_passes_small_harness(self):
        m = measure_write_amp(SMALL)
        assert within_band(m), m

    def test_worst_victim_cleaner_blows_the_band(self):
        broken = measure_write_amp(
            SMALL,
            cleaner_factory=lambda ftl: WorstVictimCleaner(
                ftl, ftl.cleaner.config))
        assert not within_band(broken), broken
        # it fails high — moving nearly-full blocks inflates WA
        assert broken.ratio > 1.0 + HIGH_RTOL


class TestDeterminism:
    def test_measurement_reproducible(self):
        assert measure_write_amp(SMALL) == measure_write_amp(SMALL)

    def test_seed_changes_draws_not_conclusion(self):
        a = measure_write_amp(SMALL)
        from dataclasses import replace
        b = measure_write_amp(replace(SMALL, seed=7))
        assert a.measured_wa != b.measured_wa
        assert within_band(a) and within_band(b)


class TestConfigValidation:
    def test_bad_configs_raise(self):
        with pytest.raises(ValueError):
            WAConfig(spare_fraction=0.0)
        with pytest.raises(ValueError):
            WAConfig(spare_fraction=1.0)
        with pytest.raises(ValueError):
            WAConfig(measure_multiple=0.0)
        with pytest.raises(ValueError):
            WAConfig(settle_multiple=-1.0)


class TestTable:
    def test_format_table_flags_failures(self):
        good = WAMeasurement(0.1, 0.09, 2.0, 2.0, 2.1, 100, 200, 100, 5, 8.0)
        bad = WAMeasurement(0.1, 0.09, 3.0, 2.0, 2.1, 100, 300, 200, 9, 8.0)
        text = format_table([good, bad])
        assert "ok" in text and "FAIL" in text
        assert "OP_eff" in text


#: (builder, its write unit, builder args).  Smaller elements are not a
#: cheaper variant: at ``element_mb=2`` the admission reserve meets the
#: spare area, and the device goes read-only on the first overwrite
#: through the designed wedge path.
SEQUENTIAL_FAMILIES = {
    "pagemap": (s4slc_sim, "logical_page_bytes", {"element_mb": 8}),
    "blockmap": (s2slc, "stripe_bytes", {"element_mb": 8}),
}


@pytest.mark.parametrize("family", sorted(SEQUENTIAL_FAMILIES))
def test_sequential_overwrite_wa_is_one(family):
    """Three in-order passes of unit-sized writes (a logical page on the
    page-mapped FTL, a stripe on the block-mapped FTL), closed loop at
    depth 4."""
    build, unit_attr, kwargs = SEQUENTIAL_FAMILIES[family]
    sim = Simulator()
    device = build(sim, **kwargs)
    unit = getattr(device.ftl, unit_attr)
    units = device.capacity_bytes // unit
    result = ClosedLoopDriver(
        sim, device, lambda i: (OpType.WRITE, (i % units) * unit, unit),
        count=3 * units, depth=4).run()
    stats = device.ftl.stats
    assert result.errors == {}
    assert stats.host_pages_written == 3 * units * unit // 4096
    assert stats.flash_pages_programmed == stats.host_pages_written
    assert stats.clean_erases > 0  # the passes did reclaim blocks
    assert stats.clean_pages_moved == 0
    assert device.stats.write_amplification == 1.0
    device.ftl.check_consistency()
