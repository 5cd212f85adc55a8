"""Smoke test of the end-to-end benchmark and of ``BENCHMARK.json``.

Runs the default invocation at 1 % of the records (every workload,
untraced and traced, each in its own process) and checks what a full run
promises: every end-to-end metric printed by name with its unit, no failed
operations, traced digests equal to untraced ones, and per-layer self
times that add up to the traced wall time.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_schema():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][1:] == ["benchmarks/e2e/run.py"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    workloads, e2e, layers = (spec["workloads"], spec["end_to_end"],
                              spec["per_layer"])
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [entry["name"] for entry in workloads + e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower")
        assert UNIT.fullmatch(metric["unit"]), metric
        assert 0.0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("higher", "lower")
        assert UNIT.fullmatch(metric["unit"]), metric


def test_every_layer_metric_names_what_it_should_move():
    spec = _spec()
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    predictions = json.loads((HERE / "layers.json").read_text("utf-8"))
    assert set(predictions) == {m["name"] for m in spec["per_layer"]}
    for name, prediction in predictions.items():
        if name.startswith("trace."):
            continue  # health of the instrument itself, moves nothing
        assert prediction["moves"], name
        assert set(prediction["moves"]) <= e2e, name
        assert prediction["on"] and set(prediction["on"]) <= workloads, name
        assert set(prediction["bypass"]) <= workloads - set(prediction["on"])


def test_smoke_run(tmp_path):
    spec = _spec()
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeat", "1",
         "--json", str(out)],
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["correct"]

    sections = {block.split()[0]: block
                for block in proc.stdout.strip().split("\n\n") if block}
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = data["workloads"][name]
        for metric in spec["end_to_end"]:
            line = rf"^  {re.escape(metric['name'])} .* {re.escape(metric['unit'])}$"
            assert re.search(line, sections[name], re.M), (name, metric)
        assert entry["attempted"] > 0
        assert entry["failed"] == 0
        assert entry["traced_digest"] == entry["digest"]
        self_s = sum(value for key, value in entry["per_layer"].items()
                     if key.endswith(".self_s"))
        assert abs(self_s - entry["traced_wall_s"]) <= 0.05 * entry[
            "traced_wall_s"], (name, self_s, entry["traced_wall_s"])
