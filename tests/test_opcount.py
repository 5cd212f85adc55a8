"""Smoke test of ``benchmarks/opcount.py``: an opcode count is exact, so two
runs of the same workload, in two fresh interpreters, print the same
table."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_runs_agree_exactly():
    command = [sys.executable, str(ROOT / "benchmarks" / "opcount.py"),
               "--workload", "swtf_burst", "--scale", "0.02"]
    runs = [subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for _ in range(2)]
    outputs = [run.communicate(timeout=300) for run in runs]
    for run, (_out, err) in zip(runs, outputs):
        assert run.returncode == 0, err
    first, second = (out for out, _err in outputs)
    assert first == second
    assert first.startswith("workload swtf_burst scale 0.02 seed 2009: "
                            "720 records")
    assert "repro.device.scheduler:SWTFScheduler.select" in first
