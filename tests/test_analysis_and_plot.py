"""Trace-shape checks of the generators, and ASCII plotting.

:func:`sequentiality` is the instrument the shape checks measure with; its
own cases come first.
"""

from __future__ import annotations

import pytest

from repro.bench.plot import ascii_plot
from repro.device.interface import OpType
from repro.traces.iozone import IOzoneConfig, generate_iozone
from repro.traces.record import TraceRecord
from repro.traces.synthetic import SyntheticConfig, generate_synthetic
from repro.traces.tpcc import TPCCConfig, generate_tpcc
from repro.units import KIB, MIB


def sequentiality(records) -> float:
    """Fraction of READ/WRITE records that start where the previous record
    of the same op ended (the knob Table 3 sweeps, measured back)."""
    last_end = {}
    hits = considered = 0
    for record in records:
        if record.op is OpType.FREE:
            continue
        if record.op in last_end:
            considered += 1
            hits += record.offset == last_end[record.op]
        last_end[record.op] = record.end
    return hits / considered if considered else 0.0


def mean_request_bytes(records) -> float:
    sizes = [r.size for r in records if r.op is not OpType.FREE]
    return sum(sizes) / len(sizes)


class TestSequentiality:
    def test_fully_sequential(self):
        records = [
            TraceRecord(i * 10.0, OpType.WRITE, i * 4096, 4096)
            for i in range(10)
        ]
        assert sequentiality(records) == 1.0

    def test_fully_random(self):
        records = [
            TraceRecord(i * 10.0, OpType.WRITE, (i * 7919 % 100) * 8192, 4096)
            for i in range(50)
        ]
        assert sequentiality(records) < 0.1

    def test_tracked_per_op(self):
        # alternating read/write streams, each sequential in itself
        records = []
        for i in range(10):
            records.append(TraceRecord(i * 10.0, OpType.READ, i * 4096, 4096))
            records.append(
                TraceRecord(i * 10.0 + 5, OpType.WRITE, MIB + i * 4096, 4096)
            )
        assert sequentiality(records) == 1.0

    def test_empty_is_zero(self):
        assert sequentiality([]) == 0.0

    def test_measures_generator_knob(self):
        for p in (0.0, 0.5, 0.9):
            records = generate_synthetic(SyntheticConfig(
                count=4000, region_bytes=64 * MIB, seq_probability=p, seed=3))
            measured = sequentiality(records)
            assert abs(measured - p) < 0.08, f"p={p} measured={measured}"


class TestAnalyze:
    """The macro generators have the shapes their workloads are named for."""

    def test_iozone_profile_is_large_sequential(self):
        records = generate_iozone(IOzoneConfig(count=400))
        assert mean_request_bytes(records) >= 256 * KIB
        assert sequentiality(records) > 0.9

    def test_tpcc_profile_is_small_random(self):
        records = generate_tpcc(TPCCConfig(count=2000))
        assert mean_request_bytes(records) < 16 * KIB
        assert sequentiality(records) < 0.25


class TestAsciiPlot:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({"s": []})

    def test_contains_markers_and_labels(self):
        chart = ascii_plot(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20, height=8, title="T", x_label="xs", y_label="ys",
        )
        assert "T" in chart
        assert "o" in chart and "x" in chart
        assert "xs" in chart and "ys" in chart
        assert "a" in chart and "b" in chart

    def test_grid_dimensions(self):
        chart = ascii_plot({"s": [(0, 0), (10, 5)]}, width=30, height=10)
        plot_lines = [l for l in chart.splitlines() if "|" in l]
        assert len(plot_lines) == 10

    def test_constant_series_does_not_crash(self):
        chart = ascii_plot({"s": [(0, 5), (1, 5), (2, 5)]})
        assert "o" in chart
