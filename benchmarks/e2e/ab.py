"""Paired A/B comparison: a base revision against this working tree.

    python3 benchmarks/e2e/ab.py --base HEAD~1 [--pairs 10]

The base revision is exported with ``git archive`` into a temporary
directory outside the repository, and this tree's benchmark --
``benchmarks/e2e/`` and ``BENCHMARK.json`` -- is copied over it, so both
sides run identical benchmark code and settings and only the program
differs.  Each pair runs base and change once on every workload, at the
pinned seed and ``BENCHMARK.json``'s ``run_seconds``, alternating which
side goes first.

For every (end-to-end metric, workload) row the report gives each side's
median and quartiles and the change's wins (ties count for neither side),
and a verdict by the rule of the repository's measurement protocol:

* ``gain`` -- the change wins at least 9 of every 10 pairs and the medians
  differ by more than the base's interquartile range;
* ``unresolved`` -- the base's own spread is wider than the metric's bound
  (unless every change run beats every base run: ``gain``);
* ``REGRESSION`` -- the change's median is worse than the base's by more
  than the bound;
* ``same`` -- none of the above.

Exit status 1 if a run failed or any row is a ``REGRESSION``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# run.py sits next to this file; make it importable under ``python -m`` too
sys.path.insert(0, str(HERE))
from run import DEFAULT_SEED, quartiles  # noqa: E402
BENCH = "benchmarks/e2e"


def export(rev: str, dest: Path) -> None:
    """The committed tree of ``rev`` with this tree's benchmark on top."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    shutil.rmtree(dest / BENCH, ignore_errors=True)
    shutil.copytree(HERE, dest / BENCH,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run_side(tree: Path, workload: str, seconds: int) -> Optional[dict]:
    """One benchmark run in ``tree``; its metrics, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, f"{BENCH}/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False, timeout=900)
    if proc.returncode != 0:
        print(f"  {tree.name} {workload}: exit {proc.returncode}\n"
              f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    iqr = bq3 - bq1
    if wins >= math.ceil(0.9 * len(base)) and sign * (cmed - bmed) > iqr:
        call = "gain"
    elif bmed and iqr / abs(bmed) > bound:
        beats_all = (min(change) > max(base) if sign > 0
                     else max(change) < min(base))
        call = "gain" if beats_all else "unresolved"
    elif bmed and sign * (bmed - cmed) / abs(bmed) > bound:
        call = "REGRESSION"
    else:
        call = "same"
    return {"base": [bq1, bmed, bq3], "change": [cq1, cmed, cq3],
            "wins": wins, "pairs": len(base), "verdict": call}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        # fewer pairs cannot show 9-in-10 wins, nor a spread to judge by
        parser.error("--pairs must be at least 10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        side: {w: {m["name"]: [] for m in metrics} for w in workloads}
        for side in ("base", "change")}
    failures = 0
    with tempfile.TemporaryDirectory(prefix="e2e-ab-") as tmp:
        base_tree = Path(tmp) / "base"
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in workloads:
                results = {side: run_side(trees[side], workload,
                                          spec["run_seconds"])
                           for side in order}
                if None in results.values():
                    failures += 1
                    continue
                for side, values in results.items():
                    for name, series in samples[side][workload].items():
                        series.append(values[name])
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    regressed = False
    print(f"{'workload':14s} {'metric':20s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':6s} verdict")
    for workload in workloads:
        for metric in metrics:
            base = samples["base"][workload][metric["name"]]
            change = samples["change"][workload][metric["name"]]
            if not base:
                continue
            row = verdict(base, change, metric["better"], metric["bound"])
            regressed = regressed or row["verdict"] == "REGRESSION"
            base_s, change_s = (f"{q[1]:.6g} [{q[0]:.5g}, {q[2]:.5g}]"
                                for q in (row["base"], row["change"]))
            wins = f"{row['wins']}/{row['pairs']}"
            print(f"{workload:14s} {metric['name']:20s} {base_s:34s} "
                  f"{change_s:34s} {wins:6s} {row['verdict']}")
    if failures:
        print(f"{failures} pair(s) failed and were left out", file=sys.stderr)
    return 1 if failures or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
