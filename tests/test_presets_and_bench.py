"""Tests for device presets and the bench harness infrastructure."""

from __future__ import annotations

import pytest

from repro.bench.tables import ExperimentResult, format_table
from repro.device.interface import OpType
from repro.device.presets import (
    PRESET_BUILDERS,
    hdd_barracuda,
    mems_store,
    s1slc,
    s2slc,
    s3slc,
    s4slc_sim,
    s5mlc,
    table3_gang_ssd,
    tiered_slc_mlc,
)
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.pagemap import PageMappedFTL
from repro.sim.engine import Simulator
from repro.units import KIB, MIB
from tests.conftest import run_io


class TestPresets:
    def test_all_presets_build_and_serve_io(self, sim):
        for name, builder in PRESET_BUILDERS.items():
            local = Simulator()
            device = builder(local)
            completion = run_io(local, device, OpType.WRITE, 0, 4 * KIB)
            assert completion.response_us > 0, name

    def test_s2_is_blockmapped_with_1mb_stripe(self, sim):
        device = s2slc(sim)
        assert isinstance(device.ftl, BlockMappedFTL)
        assert device.ftl.stripe_bytes == MIB

    def test_s4_is_pagemapped(self, sim):
        assert isinstance(s4slc_sim(sim).ftl, PageMappedFTL)

    def test_s5_uses_mlc_timing(self, sim):
        device = s5mlc(sim)
        assert device.elements[0].timing.erase_cycles == 10_000

    def test_s1_has_writeback_cache(self, sim):
        device = s1slc(sim)
        assert device.write_buffer.acks_on_insert

    def test_s3_has_16mb_cache(self, sim):
        device = s3slc(sim)
        assert device.write_buffer.capacity_bytes == 16 * MIB

    def test_gang_ssd_logical_page(self, sim):
        device = table3_gang_ssd(sim)
        assert device.ftl.logical_page_bytes == 32 * KIB
        assert device.ftl.shards == 8

    def test_gang_ssd_aligned_uses_queue_merge(self, sim):
        from repro.device.write_buffer import QueueMergingBuffer

        device = table3_gang_ssd(sim, aligned=True)
        assert isinstance(device.write_buffer, QueueMergingBuffer)

    def test_tiered_capacity_split(self, sim):
        device = tiered_slc_mlc(sim)
        assert 0 < device.tier_boundary < device.capacity_bytes

    def test_hdd_preset_capacity(self, sim):
        device = hdd_barracuda(sim, capacity_bytes=1 << 30)
        assert abs(device.capacity_bytes - (1 << 30)) / (1 << 30) < 0.05

    def test_mems_preset(self, sim):
        device = mems_store(sim)
        assert device.capacity_bytes > 0

    def test_preset_overrides(self, sim):
        device = s4slc_sim(sim, scheduler="swtf", max_inflight=7)
        assert device.queue.name == "swtf"
        assert device.config.max_inflight == 7


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["A", "Num"], [["x", 1.5], ["yy", 22.25]],
                            title="T")
        # text left-aligned, numbers right-aligned, each header with its
        # column
        assert text.splitlines() == [
            "T",
            "A     Num",
            "--  -----",
            "x    1.50",
            "yy  22.25",
        ]

    def test_format_empty(self):
        text = format_table(["A"], [])
        assert "A" in text

    def test_experiment_result_accessors(self):
        result = ExperimentResult(
            experiment_id="x", title="t", headers=["K", "V"],
            rows=[["a", 1], ["b", 2]],
        )
        assert result.column("V") == [1, 2]
        assert result.row_by("K", "b") == ["b", 2]
        with pytest.raises(KeyError):
            result.row_by("K", "missing")
        assert "[x] t" in result.render()


class TestCliRegistry:
    def test_every_experiment_importable(self):
        import importlib

        from repro.bench.cli import EXPERIMENTS

        for name, module_path in EXPERIMENTS.items():
            module = importlib.import_module(module_path)
            assert hasattr(module, "run"), name

    def test_cli_list(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out

    def test_every_claim_set_resolves(self):
        import importlib

        from repro.bench.cli import CLAIM_SETS, EXPERIMENTS

        for name, run, claims, _scale in CLAIM_SETS:
            module = importlib.import_module(EXPERIMENTS[name])
            assert callable(getattr(module, run)), (name, run)
            assert callable(getattr(module, claims)), (name, claims)

    def test_claims_refuse_scale_and_seed(self):
        from repro.bench.cli import main

        for flags in (["--scale", "0.1"], ["--seed", "1"]):
            with pytest.raises(SystemExit):
                main(["claims", *flags])

    def _claims_on(self, monkeypatch, name, module, result):
        """Point ``cli claims`` at one claim set whose run returns
        *result* at once."""
        from repro.bench import cli

        monkeypatch.setattr(cli, "CLAIM_SETS", ((name, "run", "claims", 0.5),))
        monkeypatch.setattr(module, "run", lambda scale: result)
        return cli.main(["claims"])

    def test_claims_exit_1_and_name_the_failing_claim(self, monkeypatch,
                                                      capsys):
        from repro.bench.experiments import swtf_scheduler

        def result(gain):
            return ExperimentResult(experiment_id="swtf", title="t",
                                    headers=[], rows=[],
                                    metadata={"improvement_pct": gain})

        assert self._claims_on(monkeypatch, "swtf", swtf_scheduler,
                               result(0.5)) == 1
        out = capsys.readouterr().out
        assert "FAIL swtf/swtf_gain_pct" in out
        assert "1 failed" in out
        assert self._claims_on(monkeypatch, "swtf", swtf_scheduler,
                               result(8.0)) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_a_diverging_gap_does_not_fail(self, monkeypatch, capsys):
        from repro.bench.experiments import table3_alignment

        result = ExperimentResult(
            experiment_id="table3", title="t",
            headers=["Scheme", *("p" * 5)],
            rows=[["Unaligned", 10.0, 10.0, 10.0, 10.0, 10.0],
                  ["Aligned", 10.0, 6.0, 6.0, 6.0, 5.0]])
        assert self._claims_on(monkeypatch, "table3", table3_alignment,
                               result) == 0
        out = capsys.readouterr().out
        assert "diverges table3/aligned_over_unaligned_at_p0.2" in out
        assert "0 failed, 1 diverge" in out
