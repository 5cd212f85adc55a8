"""Perf trajectory gate: compare a fresh hotpath run to BENCH_CORE.json.

Re-runs the deterministic hotpath scenarios and prints a table against a
committed entry of ``BENCH_CORE.json`` (the numbers the last perf PR
achieved).  Exits nonzero when:

* throughput regressed more than ``--threshold`` (default 20%) on any
  scenario, or
* the behaviour fingerprint (final simulated clock, op counts, FTL stats)
  diverged — a "fast but wrong" change is a regression too, or
* the heap-event count grew past the committed per-scenario budget
  (``events`` / ``events_per_record``) — the event count is deterministic,
  so any growth is a real cost regression on the hot loop.

``--profile`` additionally cProfiles every scenario and writes a top-N
cumulative-time report plus the per-scenario event-budget table to
``BENCH_PROFILE.txt`` next to ``BENCH_CORE.json`` (CI uploads it as an
artifact).  The table's ``calls/rec`` column is the profiled repetition's
primitive call count (every Python and C function call cProfile sees,
set-up included) per record.  Unlike wall time it repeats exactly from
run to run, so it shows a per-record saving on a noisy machine.  It is
advisory: nothing gates on it.

Two committed entries exist:

* ``current`` — full-size scenarios (scale 1.0); the numbers perf PRs
  quote in CHANGES.md.
* ``fast`` — the same scenarios at scale 0.1, sized for CI.  Selected
  automatically when ``REPRO_BENCH_FAST=1`` is set (the CI workflow does),
  or explicitly with ``--entry fast``.  Fingerprints are compared whenever
  the run scale matches the entry's recorded scale, so the CI gate checks
  behaviour, not just speed.

Usage::

    PYTHONPATH=src python -m benchmarks.perf_report [--repeat 3]
    REPRO_BENCH_FAST=1 PYTHONPATH=src python -m benchmarks.perf_report
    PYTHONPATH=src python benchmarks/perf_report.py --threshold 0.1

Intended as the CI perf step and as the measurement tool future perf PRs
quote in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # standalone `python benchmarks/...` runs
    sys.path.insert(0, str(_ROOT / "src"))

from benchmarks.bench_hotpath import BENCH_CORE, run_all

#: metrics gated on regression (higher is better)
_METRICS = ("ops_per_s", "events_per_s")
#: fingerprint fields that must match exactly.  ``prefill_digest`` is the
#: setup scenario's FTL-state CRC, and the ``fault_*``/retirement/retry
#: counters belong to ``fault_soak``; fields absent from a scenario
#: compare equal when missing on both sides.  ``events`` is deliberately
#: *not* here: the heap-event count is an implementation cost, not
#: simulated behaviour, and perf PRs shrink it.  It is gated separately as
#: a one-sided per-record budget (growth fails, shrinkage is the point).
_FINGERPRINT = (
    "final_clock_us", "host_writes", "host_reads", "flash_pages_programmed",
    "clean_pages_moved", "clean_erases", "clean_time_us", "ops",
    "prefill_digest",
    "fault_program_failures", "fault_erase_failures", "fault_read_transients",
    "blocks_retired", "rescued_pages", "failed_pages", "read_retries",
    "write_retries", "requests_failed", "error_completions",
    "trims", "trimmed_pages",
    "fleet_digest", "fleet_requests", "fleet_events",
)

#: file the ``--profile`` run writes next to BENCH_CORE.json
PROFILE_REPORT = BENCH_CORE.with_name("BENCH_PROFILE.txt")


def _events_per_record(result) -> float:
    ops = result.get("ops") or 0
    return result["events"] / ops if ops else 0.0


def _write_profile_report(scale: float, fresh: dict, top_n: int = 25) -> None:
    """Profile each scenario (one repetition) and write a cProfile top-N
    plus the per-scenario event-budget table alongside BENCH_CORE.json."""
    import cProfile
    import io
    import pstats

    from benchmarks.bench_hotpath import SCENARIOS, run_scenario

    calls = {}
    profiles = []
    for name in SCENARIOS:
        profiler = cProfile.Profile()
        profiler.enable()
        run_scenario(name, scale, repeat=1)
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        calls[name] = stats.prim_calls
        stats.sort_stats("cumulative").print_stats(top_n)
        profiles += [f"=== {name} ===", buffer.getvalue().rstrip(), ""]
    lines = [f"hotpath profile, scale {scale} (top {top_n} by cumulative time)",
             ""]
    lines.append(f"{'scenario':16s} {'ops':>10s} {'events':>10s} "
                 f"{'events/rec':>10s} {'calls/rec':>10s}")
    for name, result in fresh.items():
        ops = result["ops"]
        per_record = calls[name] / ops if name in calls and ops else 0.0
        lines.append(f"{name:16s} {ops:10d} {result['events']:10d} "
                     f"{_events_per_record(result):10.3f} {per_record:10.1f}")
    lines.append("")
    PROFILE_REPORT.write_text("\n".join(lines + profiles) + "\n")
    print(f"profile written to {PROFILE_REPORT}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional throughput drop (default 0.20)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the entry's recorded scenario scale")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per scenario; fastest wall kept "
                             "(default 3 — de-noises shared machines)")
    parser.add_argument("--entry", choices=("current", "fast"), default=None,
                        help="BENCH_CORE.json entry to compare against "
                             "(default: 'fast' when REPRO_BENCH_FAST=1, "
                             "else 'current')")
    parser.add_argument("--profile", action="store_true",
                        help="additionally cProfile each scenario and write "
                             f"a top-N report to {PROFILE_REPORT.name} "
                             "alongside BENCH_CORE.json")
    args = parser.parse_args(argv)

    entry_name = args.entry
    if entry_name is None:
        entry_name = ("fast" if os.environ.get("REPRO_BENCH_FAST") == "1"
                      else "current")

    if not BENCH_CORE.exists():
        print(f"error: {BENCH_CORE} not found — record it first with "
              "`python benchmarks/bench_hotpath.py --record current`")
        return 2
    doc = json.loads(BENCH_CORE.read_text())
    entry = doc.get(entry_name, {})
    committed = entry.get("results")
    if not committed:
        flag = " --scale 0.1" if entry_name == "fast" else ""
        print(f"error: BENCH_CORE.json has no '{entry_name}' entry to compare "
              f"against — record it with `python benchmarks/bench_hotpath.py "
              f"--record {entry_name}{flag} --repeat 3`")
        return 2
    entry_scale = entry.get("scale", doc.get("meta", {}).get("scale", 1.0))
    scale = args.scale if args.scale is not None else entry_scale

    fresh = run_all(scale, args.repeat)

    failures = []
    header = (f"{'scenario':16s} {'metric':12s} {'committed':>12s} "
              f"{'now':>12s} {'delta':>8s}")
    print(f"comparing against entry '{entry_name}' (scale {scale})")
    print(header)
    print("-" * len(header))
    for name, now in fresh.items():
        ref = committed.get(name)
        if ref is None:
            print(f"{name:16s} (new scenario, no committed reference)")
            continue
        for metric in _METRICS:
            before, after = ref[metric], now[metric]
            delta = (after - before) / before if before else 0.0
            flag = ""
            if delta < -args.threshold:
                flag = "  << REGRESSION"
                failures.append(f"{name}.{metric} dropped {-delta:.0%} "
                                f"({before:.0f} -> {after:.0f})")
            print(f"{name:16s} {metric:12s} {before:12.0f} {after:12.0f} "
                  f"{delta:+7.1%}{flag}")
        if abs(scale - entry_scale) < 1e-12:
            for field in _FINGERPRINT:
                if now.get(field) != ref.get(field):
                    failures.append(
                        f"{name}.{field} fingerprint diverged: "
                        f"{ref.get(field)!r} -> {now.get(field)!r} "
                        "(simulated behaviour changed!)"
                    )
            # one-sided event budget: a perf change may shrink the heap
            # traffic needed to simulate the same behaviour, never grow it
            budget, spent = ref.get("events"), now.get("events")
            if budget is not None and spent is not None:
                flag = ""
                if spent > budget:
                    flag = "  << OVER BUDGET"
                    failures.append(
                        f"{name}.events grew over budget: {budget} -> {spent} "
                        f"({_events_per_record(ref):.3f} -> "
                        f"{_events_per_record(now):.3f} events/record)"
                    )
                print(f"{name:16s} {'events/rec':12s} "
                      f"{_events_per_record(ref):12.3f} "
                      f"{_events_per_record(now):12.3f} "
                      f"{'budget':>8s}{flag}")

    if args.profile:
        _write_profile_report(scale, fresh)

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: within {args.threshold:.0%} of the committed baseline, "
          "fingerprints identical, event budgets held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
