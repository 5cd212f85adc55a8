"""Cheap smoke tests for the experiment harness.  The full-scale runs
are the claim sets of ``python -m repro.bench.cli claims``; these only
check the plumbing at tiny scale, where the claims' verdicts do not hold."""

from __future__ import annotations

from repro.bench.experiments import ablations, figure2_sawtooth, swtf_scheduler
from repro.bench.experiments.table2_bandwidth import PAPER_TABLE2, PROBES
from repro.bench.tables import Claim


def assert_well_formed(claims):
    """Records with unique names, a band, a reason and a verdict."""
    assert claims
    assert all(isinstance(claim, Claim) for claim in claims)
    names = [claim.name for claim in claims]
    assert len(set(names)) == len(names), names
    for claim in claims:
        assert claim.name and claim.band and claim.why, claim
        assert isinstance(claim.ok, bool), claim
        assert claim.verdict in ("pass", "FAIL", "diverges"), claim


class TestFigure2Smoke:
    def test_runs_and_has_expected_rows(self):
        result = figure2_sawtooth.run(scale=0.3)
        assert result.experiment_id == "figure2"
        sizes = result.column("Bytes")
        assert 512 in sizes and 1048576 in sizes
        assert all(row[2] > 0 for row in result.rows)
        assert_well_formed(figure2_sawtooth.claims(result))

    def test_sweep_sizes_cover_peaks_and_troughs(self):
        sizes = figure2_sawtooth.sweep_sizes(stripe_bytes=1 << 20, stripes=3)
        assert (1 << 20) in sizes
        assert (1 << 20) + 512 in sizes
        assert 3 * (1 << 20) in sizes


class TestSwtfSmoke:
    def test_produces_both_schedulers(self):
        result = swtf_scheduler.run(scale=0.1)
        schedulers = result.column("Scheduler")
        assert schedulers == ["FCFS", "SWTF"]
        assert "improvement_pct" in result.metadata
        assert_well_formed(swtf_scheduler.claims(result))


class TestAblationSmoke:
    def test_stripe_size_monotone_wa(self):
        result = ablations.stripe_size(scale=0.2)
        wa = result.column("WriteAmp")
        assert wa == sorted(wa)
        assert_well_formed(ablations.claims(result))


class TestTable2Config:
    def test_probe_params_cover_all_devices(self):
        for name in PAPER_TABLE2:
            assert name in PROBES or name == "HDD"

    def test_paper_reference_shape(self):
        for name, values in PAPER_TABLE2.items():
            assert len(values) == 6, name
