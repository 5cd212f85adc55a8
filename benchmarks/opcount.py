"""Python opcodes per record, by module and by function, for one e2e run.

Wall time on a shared machine drifts by 10-20 %, so it cannot price a
layer that costs a few percent.  The number of bytecode instructions the
interpreter executes does not drift: this script builds one end-to-end
workload (``benchmarks/e2e/scenarios.py``) untraced, then runs it once
under a ``sys.settrace`` hook that counts every ``opcode`` event by code
object, and prints the counts divided by the records the run replayed::

    python benchmarks/opcount.py --workload swtf_burst --scale 1.0

The count covers every Python frame the run enters -- ``src/repro``, the
standard library's Python modules (``random``, ``heapq.merge``) and
numpy's Python wrappers -- but not the work C functions do inside one
instruction.  Two runs of the same arguments print the same numbers; a
change that removes instructions from a layer shows up there exactly.  The
hook makes the run about 30 times slower than untraced (about 3 minutes
for ``swtf_burst`` at full scale on a two-core machine), so use ``--scale``
for a quick look.  ``fleet_mixed`` runs serially, and its devices are built
and aged inside the counted run.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
#: the e2e benchmark's default seed, whose digests it pins
DEFAULT_SEED = 2009
#: functions listed, the costliest first
TOP = 30


def count_opcodes(run) -> Tuple[Dict[object, int], Dict[object, int]]:
    """Run ``run()`` under the opcode hook; ``(opcodes, calls)`` keyed by
    code object (a generator's resumption counts as a call)."""
    opcodes: Dict[object, int] = defaultdict(int)
    calls: Dict[object, int] = defaultdict(int)

    def local(frame, event, _arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def enter(frame, _event, _arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        calls[frame.f_code] += 1
        return local

    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(None)
    return opcodes, calls


def _module_names() -> Dict[str, str]:
    """Absolute source path -> module name, for every loaded module."""
    names = {}
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if path:
            names[os.path.abspath(path)] = name
    return names


def report(opcodes: Dict[object, int], calls: Dict[object, int],
           records: int) -> List[str]:
    """The printed table: per-record opcodes by module, then the ``TOP``
    functions with their per-record calls and opcodes per call."""
    modules = _module_names()
    by_module: Dict[str, int] = defaultdict(int)
    by_function: Dict[str, Tuple[int, int]] = {}
    for code, ops in opcodes.items():
        path = os.path.abspath(code.co_filename)
        module = modules.get(path, Path(path).name)
        by_module[module] += ops
        name = f"{module}:{code.co_qualname}@{code.co_firstlineno}"
        previous_ops, previous_calls = by_function.get(name, (0, 0))
        by_function[name] = (previous_ops + ops,
                             previous_calls + calls.get(code, 0))
    total = sum(by_module.values())
    lines = [f"{records} records, {total} opcodes, "
             f"{total / records:.1f} per record",
             "", "opcodes per record by module:"]
    for module, ops in sorted(by_module.items(),
                              key=lambda item: (-item[1], item[0])):
        lines.append(f"  {ops / records:10.1f}  {module}")
    lines += ["", f"top {TOP} functions: opcodes per record, calls per "
              "record, opcodes per call:"]
    ranked = sorted(by_function.items(),
                    key=lambda item: (-item[1][0], item[0]))[:TOP]
    for name, (ops, n_calls) in ranked:
        per_call = ops / n_calls if n_calls else 0.0
        lines.append(f"  {ops / records:10.1f}  {n_calls / records:8.3f}  "
                     f"{per_call:9.1f}  {name}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    for entry in (E2E, ROOT / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    import scenarios

    parser = argparse.ArgumentParser(
        prog="python benchmarks/opcount.py",
        description="Python opcodes per record of one e2e workload run.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of the workload's records (default 1)")
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")

    workload = scenarios.WORKLOADS[args.workload](DEFAULT_SEED, args.scale)
    state = workload.setup()
    opcodes, calls = count_opcodes(
        lambda: workload.run(state, serial=True))
    outcome = workload.outcome(state)
    if outcome.problems:
        print("\n".join(outcome.problems), file=sys.stderr)
        return 1
    print(f"workload {args.workload} scale {args.scale} seed {DEFAULT_SEED}: "
          + "\n".join(report(opcodes, calls, outcome.records)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
