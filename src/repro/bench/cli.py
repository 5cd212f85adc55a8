"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.bench.cli table2            # one experiment
    python -m repro.bench.cli all --scale 0.5   # everything, reduced scale
    python -m repro.bench.cli claims            # the paper's claims, exit 1
                                                # if any fails
    python -m repro.bench.cli --list
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.bench.tables import format_table

EXPERIMENTS = {
    "table1": "repro.bench.experiments.table1_contract",
    "table2": "repro.bench.experiments.table2_bandwidth",
    "swtf": "repro.bench.experiments.swtf_scheduler",
    "figure2": "repro.bench.experiments.figure2_sawtooth",
    "table3": "repro.bench.experiments.table3_alignment",
    "table4": "repro.bench.experiments.table4_macro",
    "table5": "repro.bench.experiments.table5_informed",
    "table6": "repro.bench.experiments.table6_priority",
    "figure3": "repro.bench.experiments.table6_priority",  # same data
    "ablations": "repro.bench.experiments.ablations",
}

#: every claim set: (experiment, run function, claims function, scale).
#: A set's bands were set at its scale; shrinking it is a gate change.
CLAIM_SETS = (
    ("table1", "run", "claims", 1.0),
    ("table2", "run", "claims", 0.5),
    ("table3", "run", "claims", 0.5),
    ("table4", "run", "claims", 0.5),
    ("table5", "run", "claims", 1.0),
    ("table6", "run", "claims", 0.6),
    ("figure3", "run", "figure3_claims", 0.4),
    ("figure2", "run", "claims", 0.5),
    ("swtf", "run", "claims", 0.5),
    ("ablations", "cleaning_policy", "claims", 0.4),
    ("ablations", "stripe_size", "claims", 0.4),
    ("ablations", "tier_placement", "claims", 0.4),
    ("ablations", "osd_trim", "claims", 0.4),
    ("ablations", "ftl_family", "claims", 0.5),
    ("ablations", "wear_leveling", "claims", 0.4),
)


def run_claims() -> int:
    """Run every claim set at its scale and print the ledger, then the
    cause of each known gap and of each failure.  Returns 1 if any claim
    fails (a ``diverges`` gap does not), else 0."""
    started = time.time()
    rows = []
    notes = []
    for name, run, claims, scale in CLAIM_SETS:
        module = importlib.import_module(EXPERIMENTS[name])
        result = getattr(module, run)(scale=scale)
        for claim in getattr(module, claims)(result):
            rows.append([name, claim.name,
                         "-" if claim.paper is None else claim.paper,
                         claim.measured, claim.band, claim.verdict])
            if claim.gap or not claim.ok:
                notes.append(f"{claim.verdict} {name}/{claim.name}: "
                             f"{claim.why}")
    print(format_table(
        ["Experiment", "Claim", "Paper", "Measured", "Band", "Verdict"],
        rows, title="The paper's claims"))
    print()
    for note in notes:
        print(note)
    failed = sum(row[-1] == "FAIL" for row in rows)
    print(f"\n{len(rows)} claims, {failed} failed, "
          f"{sum(row[-1] == 'diverges' for row in rows)} diverge "
          f"[{time.time() - started:.1f}s]")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument("experiment", nargs="?",
                        help=f"one of: {', '.join(EXPERIMENTS)}, 'all', or "
                             "'claims' (every claim set at its own scale)")
    parser.add_argument("--scale", type=float,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, help="default 42")
    parser.add_argument("--list", action="store_true", help="list experiments")
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        for name, module in EXPERIMENTS.items():
            print(f"{name:10s} {module}")
        return 0
    if args.experiment == "claims":
        if args.scale is not None or args.seed is not None:
            parser.error("claims run at their own scales and the default seed")
        return run_claims()

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.experiment == "all":
        names.remove("figure3")  # alias of table6
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}")
        module = importlib.import_module(EXPERIMENTS[name])
        started = time.time()
        result = module.run(scale=1.0 if args.scale is None else args.scale,
                            seed=42 if args.seed is None else args.seed)
        results = result if isinstance(result, list) else [result]
        for entry in results:
            print(entry.render())
            if entry.metadata:
                for key, value in entry.metadata.items():
                    if not isinstance(value, dict):
                        print(f"  {key}: {value}")
            print()
        print(f"[{name} took {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
