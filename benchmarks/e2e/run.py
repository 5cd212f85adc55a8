"""End-to-end benchmark of the SSD simulator: four workloads, host and
simulated metrics, and a traced per-layer split.

One workload, one run (the form every measurement uses)::

    python3 benchmarks/e2e/run.py --workload gc_churn --seed 7 \\
        --seconds 10 --trace 0

repeats the workload -- each repetition on a freshly built and aged
device -- until ``--seconds`` of timed work are spent, checks every
repetition (FTL consistency, request conservation, identical digests,
and for the default seed the digest pinned in ``baseline.json``), prints
every end-to-end metric by name and unit -- host times scaled to a
reference machine speed measured around each repetition (``calibrate``)
-- and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

``--trace 1`` instead runs one untraced and one traced serial repetition,
set-up included, and reports the per-layer metrics (see ``spans.py``).

Without ``--workload`` the script is the default invocation: ``--repeat``
untraced runs of every workload, round-robin (A B C D, A B C D, ...) to
spread machine drift, then one traced run of each -- every run in a fresh
child process -- and a table of medians and quartiles.  ``--smoke`` runs
everything at 1 % of the records.

Metric names, units and the run length come from ``BENCHMARK.json`` at
the repository root.  Exit status: 0 when every check passed, 1 when a
check failed (the result line then says ``"correct": false``), 2 when the
simulator cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: the seed a run uses unless told otherwise; its digests are pinned
DEFAULT_SEED = 2009
#: set-ups timed on top of the ones each timed repetition does, so
#: ``setup_s`` is a median of at least ten even when only MIN_REPS fit
EXTRA_SETUPS = 7
MIN_REPS = 3
SMOKE_SCALE = 0.01
DETAIL = "# detail "
#: ``calibrate()``'s median on the two-core box the baseline was recorded
#: on, at that box's usual speed; host times are reported at this speed
REFERENCE_S = 0.015


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_pins() -> Dict[str, str]:
    with open(HERE / "baseline.json", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child (the
    fleet's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class _Probe:
    __slots__ = ("weight", "offset")

    def __init__(self, weight: int, offset: int) -> None:
        self.weight = weight
        self.offset = offset

    def key(self, value: int) -> int:
        return (self.weight * value + self.offset) & 0xFFFF


def calibrate() -> float:
    """Wall time of a fixed pure-Python kernel shaped like the simulator's
    hot loop: method calls on slotted objects, a heap and a dict.

    Shared machines change speed by up to 2x for a minute or more; timed
    around each set-up and repetition, this kernel measures the speed the
    machine had meanwhile, and host times are scaled to ``REFERENCE_S``.
    The collector is off while it runs, so the size of whatever the caller
    holds does not change its time."""
    probes = [_Probe(i, i + 1) for i in range(256)]
    heap: List[int] = []
    table: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(30_000):
            push(heap, probes[i & 255].key(i) << 20 | i)
            if len(heap) > 64:
                item = pop(heap)
                table[item & 1023] = item
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def _repetition(workload, serial: bool = False):
    """One untraced set-up + run; returns (setup_s, run_s, outcome)."""
    gc.collect()
    start = time.perf_counter()
    state = workload.setup()
    mid = time.perf_counter()
    workload.run(state, serial=serial)
    end = time.perf_counter()
    return mid - start, end - mid, workload.outcome(state)


def _check(workload, outcomes, pins: Dict[str, str]) -> List[str]:
    problems = [p for outcome in outcomes for p in outcome.problems]
    if len({(o.digest, o.events) for o in outcomes}) > 1:
        problems.append("repetitions of one seed disagree: digests "
                        f"{sorted({o.digest for o in outcomes})}, events "
                        f"{sorted({o.events for o in outcomes})}")
    pinned = pins.get(workload.name)
    if workload.seed == DEFAULT_SEED and pinned is not None:
        if f"{outcomes[0].digest:#010x}" != pinned:
            problems.append(f"digest {outcomes[0].digest:#010x} differs from "
                            f"the pinned {pinned}")
    return problems


def measure(workload, seconds: float, min_reps: int,
            extra_setups: int) -> dict:
    """Untraced run: repetitions until ``seconds`` of timed work.  Each
    set-up and repetition is scaled by the machine speed ``calibrate()``
    measured just before and just after it."""
    setups: List[float] = []
    speeds: List[float] = []

    def scale() -> float:
        """``REFERENCE_S`` over the mean of the last two calibrations."""
        return 2.0 * REFERENCE_S / (speeds[-2] + speeds[-1])

    for _ in range(extra_setups):
        gc.collect()
        speeds.append(calibrate())
        start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - start
        speeds.append(calibrate())
        setups.append(setup_s * scale())
    # one untimed repetition first: it pays the process's one-off costs
    # (first-touch memory, lazily built tables) and is checked like the rest
    outcomes = [_repetition(workload)[2]]
    rates: List[float] = []
    spent = 0.0
    while len(rates) < min_reps or spent < seconds:
        speeds.append(calibrate())
        setup_s, run_s, outcome = _repetition(workload)
        speeds.append(calibrate())
        setups.append(setup_s * scale())
        rates.append(outcome.records / (run_s * scale()))
        outcomes.append(outcome)
        spent += setup_s + run_s
    first = outcomes[0]
    metrics = {"records_per_s": statistics.median(rates),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb(),
               **first.metrics}
    return {"metrics": metrics, "outcomes": outcomes,
            "spread": {"records_per_s": quartiles(rates),
                       "setup_s": quartiles(setups),
                       "calibrate_s": quartiles(speeds)},
            "detail": {"reps": len(rates), "setups": len(setups),
                       "samples": first.samples, "events": first.events,
                       "digest": f"{first.digest:#010x}"}}


def measure_traced(workload) -> dict:
    """One untraced and one traced serial repetition, set-up included
    (plus whatever ``workload.parallel_speedup`` runs); per-layer
    metrics."""
    from spans import Tracer, installed

    ref_setup_s, ref_run_s, ref = _repetition(workload, serial=True)
    speedup, parallel = workload.parallel_speedup(ref_run_s)

    gc.collect()
    tracer = Tracer()

    def repetition():
        state = workload.setup()
        workload.run(state, records=tracer.records, serial=True)
        return state

    with installed(tracer):
        # the root span: its self time is this benchmark's own code (device
        # and generator construction), so the layers' self times add up to
        # the traced wall time
        root = tracer.wrap("bench", "repetition", repetition)
        start = time.perf_counter()
        traced_state = root()
        traced_wall = time.perf_counter() - start
    traced = workload.outcome(traced_state)
    outcomes = [ref, *parallel, traced]
    metrics = layer_metrics(tracer, traced, traced_wall,
                            ref_setup_s + ref_run_s, ref_run_s, speedup)
    return {"metrics": metrics, "outcomes": outcomes,
            "detail": {"traced_wall_s": traced_wall,
                       "samples": traced.samples, "events": traced.events,
                       "digest": f"{traced.digest:#010x}"}}


def layer_metrics(tracer, outcome, traced_wall: float, ref_wall: float,
                  ref_run_s: float, speedup: float) -> Dict[str, float]:
    totals = tracer.layer_totals()
    cells = tracer.cells
    sums, counts = tracer.sums, tracer.counts

    def self_s(layer: str) -> float:
        return totals.get(layer, (0, 0.0))[1]

    def calls(layer: str) -> int:
        return totals.get(layer, (0, 0.0))[0]

    def cell(layer: str, name: str, field: str = "calls") -> float:
        found = cells.get((layer, name))
        return getattr(found, field) if found is not None else 0

    def mean(key: str) -> float:
        return sums[key] / counts[key] if counts[key] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = outcome.counters
    records = outcome.records
    events = outcome.events
    selects = (cell("device.scheduler", "SWTFScheduler.select")
               + cell("device.scheduler", "FCFSScheduler.select"))
    checks = cell("device", "SSD.admissible")
    erases = c["clean_erases"]
    depths = sorted(tracer.queue_depths)
    traced_records = cell("traces", "next")
    metrics = {
        "sim.engine.events": events,
        "sim.engine.events_per_record": events / records,
        "sim.engine.host_us_per_event": ref_run_s / events * 1e6,
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.resource.calls": calls("sim.resource"),
        "sim.resource.self_s": self_s("sim.resource"),
        "sim.resource.link_busy_frac": c["link_busy_us"] / c["elapsed_us"],
        "sim.resource.wait_us": mean("link_wait_us"),
        "sim.stats.flushes": cell("sim.stats",
                                  "StreamingLatencyRecorder.flush"),
        "sim.stats.self_s": self_s("sim.stats"),
        "flash.ops": c["flash_ops"],
        "flash.self_s": self_s("flash"),
        "flash.busy_frac": c["flash_busy_us"] / c["element_us"],
        "flash.clean_busy_frac": c["flash_clean_busy_us"] / c["element_us"],
        "flash.queue_wait_us": mean("flash_wait_us"),
        "ftl.writes": c["ftl_writes"],
        "ftl.reads": c["ftl_reads"],
        "ftl.trims": c["ftl_trims"],
        "ftl.self_s": self_s("ftl"),
        "ftl.cleaning.calls": cell("ftl.cleaning", "Cleaner.maybe_clean"),
        "ftl.cleaning.victims": counts["victims"],
        "ftl.cleaning.self_s": self_s("ftl.cleaning"),
        "ftl.cleaning.pages_moved": c["clean_pages_moved"],
        "ftl.cleaning.erases": erases,
        "ftl.cleaning.time_us": c["clean_time_us"],
        "ftl.cleaning.efficiency": (
            1.0 - c["clean_pages_moved"] / (erases * c["pages_per_block"])
            if erases else 0.0),
        "ftl.prefill.self_s": self_s("ftl.prefill"),
        "device.requests": records,
        "device.self_s": self_s("device"),
        "device.admit_checks": checks,
        "device.admit_refused": counts["admit_refused"],
        "device.admit_ratio": ratio(checks - counts["admit_refused"], checks),
        "device.queue_depth_p99": (depths[int(0.99 * (len(depths) - 1))]
                                   if depths else 0),
        "device.scheduler.selects": selects,
        "device.scheduler.self_s": self_s("device.scheduler"),
        "device.scheduler.us_per_select": ratio(
            self_s("device.scheduler") * 1e6, selects),
        "device.scheduler.queue_at_select_mean": mean("queue_at_select"),
        "workloads.self_s": self_s("workloads"),
        "workloads.sink_records": cell("workloads", "StreamingResult.record"),
        "traces.records": traced_records,
        "traces.self_s": self_s("traces"),
        "traces.us_per_record": ratio(self_s("traces") * 1e6, traced_records),
        "fleet.self_s": self_s("fleet"),
        "fleet.build_s": cell("fleet", "runner.build_device", "incl_s"),
        "fleet.device_run_s_max": cell("fleet", "runner.run_device_live",
                                       "max_s"),
        "fleet.merge_s": cell("fleet", "FleetReport.build", "incl_s"),
        "fleet.parallel_speedup": speedup,
        "bench.self_s": self_s("bench"),
        "trace.overhead": traced_wall / ref_wall,
        "trace.unattributed_frac": self_s("sim.engine") / traced_wall,
    }
    return metrics


def run_workload(args, spec: dict) -> int:
    import scenarios

    workload = scenarios.WORKLOADS[args.workload](
        args.seed, SMOKE_SCALE if args.smoke else 1.0)
    if args.trace:
        data = measure_traced(workload)
        wanted = spec["per_layer"]
    else:
        data = measure(workload, 0.0 if args.smoke else args.seconds,
                       1 if args.smoke else MIN_REPS,
                       0 if args.smoke else EXTRA_SETUPS)
        wanted = spec["end_to_end"]
    outcomes = data["outcomes"]
    # the pins hold for full-size runs only
    problems = _check(workload, outcomes, {} if args.smoke else load_pins())
    attempted = sum(o.records for o in outcomes)
    failed = attempted if problems else sum(o.errors for o in outcomes)
    metrics = {m["name"]: {"value": data["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}
    detail = dict(data["detail"], workload=workload.name, seed=args.seed,
                  trace=int(args.trace), problems=problems,
                  spread=data.get("spread", {}))

    print(f"workload {workload.name} seed {args.seed} "
          f"trace {int(args.trace)} samples {detail['samples']} "
          f"events {detail['events']} digest {detail['digest']}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"result": result, "detail": detail}, handle, indent=1)
    print(DETAIL + json.dumps(detail))
    print(json.dumps(result))
    return 0 if not problems else 1


# ---------------------------------------------------------------------------
# the default invocation: every workload, each run in a child process
# ---------------------------------------------------------------------------

def _child(name: str, args, trace: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.splitlines()
    detail = next((json.loads(line[len(DETAIL):]) for line in lines
                   if line.startswith(DETAIL)), None)
    if proc.returncode not in (0, 1) or detail is None:
        return {"ok": False, "error": proc.stderr.strip()[-2000:]}
    return {"ok": True, "result": json.loads(lines[-1]), "detail": detail}


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_all(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    runs: Dict[str, list] = {name: [] for name in names}
    for _ in range(args.repeat):
        for name in names:
            runs[name].append(_child(name, args, trace=0))
    traced = {name: _child(name, args, trace=1) for name in names}

    problems: List[str] = []
    summary: Dict[str, dict] = {}
    for name in names:
        children = runs[name] + [traced[name]]
        for child in children:
            if not child["ok"]:
                problems.append(f"{name}: run failed: {child['error']}")
            elif not child["result"]["correct"]:
                problems.extend(f"{name}: {p}"
                                for p in child["detail"]["problems"])
        done = [child for child in children if child["ok"]]
        # every run of one seed, traced or not, must simulate the same thing
        if len({(c["detail"]["digest"], c["detail"]["events"])
                for c in done}) > 1:
            problems.append(f"{name}: runs disagree on digest or events")
        ok = [child for child in runs[name] if child["ok"]]
        rows = {}
        for metric in spec["end_to_end"]:
            values = [c["result"]["metrics"][metric["name"]]["value"]
                      for c in ok]
            if values:
                q1, median, q3 = quartiles(values)
                rows[metric["name"]] = {"unit": metric["unit"],
                                        "median": median, "q1": q1, "q3": q3,
                                        "values": values}
        traced_detail = (traced[name]["detail"] if traced[name]["ok"]
                         else {})
        summary[name] = {
            "end_to_end": rows,
            "per_layer": ({k: v["value"] for k, v in
                           traced[name]["result"]["metrics"].items()}
                          if traced[name]["ok"] else {}),
            "attempted": sum(c["result"]["attempted"] for c in done),
            "failed": sum(c["result"]["failed"] for c in done),
            "digest": ok[0]["detail"]["digest"] if ok else None,
            "traced_digest": traced_detail.get("digest"),
            "traced_wall_s": traced_detail.get("traced_wall_s"),
            "samples": ok[0]["detail"]["samples"] if ok else None,
            "events": ok[0]["detail"]["events"] if ok else None,
        }

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in names:
        entry = summary[name]
        print(f"\n{name}  digest {entry['digest']}  samples "
              f"{entry['samples']}  events {entry['events']}  "
              f"({args.repeat} runs; median [q1, q3])")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:40s} {row['median']:>14.6g} "
                  f"[{row['q1']:.6g}, {row['q3']:.6g}] {row['unit']}")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:40s} {value:>14.6g} {units[metric]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"\ncorrect: {not problems}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "repeat": args.repeat, "smoke": args.smoke,
                       "nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "commit": _commit(), "correct": not problems,
                       "workloads": summary}, handle, indent=1)
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the SSD simulator.")
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process "
                             "(default: every workload, in child processes)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed work per untraced run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer split instead")
    parser.add_argument("--repeat", type=int, default=3,
                        help="untraced runs per workload (default "
                             "invocation only)")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the results to OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="1%% of the records, for a quick check")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    source = ROOT / "src"
    sys.path[:0] = [str(source), str(HERE)]
    try:
        import repro
        import scenarios  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the simulator from {source}: {exc}",
              file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        # an installed copy elsewhere must not stand in for this tree's
        print(f"imported the simulator from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
