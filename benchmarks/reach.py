"""Reach probe: which functions under ``src/repro`` do the programs enter?

Runs every program in :func:`programs` -- the paper's claim sets, Table 3,
the CI-sized perf gate, the four end-to-end workloads, the examples, the
linter (also writing a baseline to a temporary file), two small fleet sweeps
and the CI-sized write-amplification validator -- in this process,
under a ``sys.setprofile`` hook that records each code object entered.  The
fleet's process pool is replaced by one that runs each task in this
process, so worker code is seen too.  Every ``def`` under ``src/repro``
(methods and nested functions included) is then matched to the code
objects by file and first line; a decorated function's code starts at its
first decorator.

A function no program enters must be listed in ``reach_allowlist.txt``,
one line each: ``module:qualified.name`` and the reason it stays.  A
listed function that a program now enters, or that no longer exists, must
leave the list, so the list only shrinks.  Exit status 1 on either, else 0::

    python benchmarks/reach.py

The programs run at their CI sizes under the hook, about 5 minutes on a
two-core machine.  What the programs print is discarded; each program's
exit status and time are printed instead.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import runpy
import sys
import tempfile
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"
WORKLOADS = ("replay_steady", "gc_churn", "swtf_burst", "fleet_mixed")

#: (file, first line) of a code object
Key = Tuple[str, int]


def programs(workdir: Path) -> List[Tuple[str, str, List[str]]]:
    """``(kind, target, argv)`` of each program: ``kind`` is ``module``
    (``target.main(argv)``) or ``script`` (a path under the repo, run as
    ``__main__``).  Files a program writes go under *workdir*."""
    return [
        ("module", "repro.bench.cli", ["claims"]),
        ("module", "repro.bench.cli", ["table3"]),
        # the hook slows every program about fourfold, so the perf gate's
        # wall-time check is off (a drop over 100 %); its fingerprint and
        # event-budget checks still run
        ("module", "benchmarks.perf_report",
         ["--entry", "fast", "--threshold", "1"]),
        *[("script", "benchmarks/e2e/run.py",
           ["--workload", workload, "--seconds", "0"])
          for workload in WORKLOADS],
        *[("script", f"examples/{path.name}", [])
          for path in sorted((ROOT / "examples").glob("*.py"))],
        ("module", "repro.analysis.lint", []),
        ("module", "repro.analysis.lint", ["--format=json"]),
        # never the repo's own LINT_BASELINE.json
        ("module", "repro.analysis.lint",
         ["--write-baseline", "--baseline", str(workdir / "baseline.json")]),
        # smoke sizes: the default tenants, then one named tenant over an
        # over-provisioning axis
        ("module", "repro.fleet.sweep", ["--devices", "1", "--count", "50"]),
        ("module", "repro.fleet.sweep",
         ["--devices", "1", "--count", "50", "--tenant", "oltp=random:gold",
          "--op", "0.1"]),
        ("module", "repro.validation.write_amp", ["--fast"]),
    ]


class InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: runs each task when it is
    submitted, in this process, so the hook sees the worker's code."""

    def __init__(self, max_workers=None) -> None:
        pass

    def __enter__(self) -> "InProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def defined(root: Path) -> Dict[Key, str]:
    """``(file, first line) -> "module:qualified.name"`` of every ``def``
    in the package at ``root``."""
    found: Dict[Key, str] = {}

    def walk(node: ast.AST, module: str, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{module}:{prefix}{child.name}"
                walk(child, module, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, f"{prefix}{child.name}.")
            else:
                walk(child, module, path, prefix)

    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        real = os.path.realpath(path)
        walk(ast.parse(path.read_text(), real), module, real, "")
    return found


def entered(run: Callable[[], None]) -> Set[Key]:
    """``(file, first line)`` of every code object entered during ``run()``."""
    codes: Set = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in codes}


def load_allowlist(path: Path) -> Dict[str, str]:
    """``name -> reason`` of each allowlist line; ``#`` starts a comment."""
    allowed: Dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        name, _, reason = line.strip().partition(" ")
        if not name or name.startswith("#"):
            continue
        if not reason.strip() or name in allowed:
            raise ValueError(f"{path}:{number}: {name} is listed twice or "
                             "has no reason")
        allowed[name] = reason.strip()
    return allowed


def check(defs: Dict[Key, str], reached: Set[Key],
          allowed: Dict[str, str]) -> int:
    """Print each unreached function not allowed and each allowlist entry
    that is reached or gone; 1 if there is any, else 0."""
    unreached = {name for key, name in defs.items() if key not in reached}
    problems = [f"never entered, not in the allowlist: {name}"
                for name in sorted(unreached - allowed.keys())]
    names = set(defs.values())
    for name in sorted(allowed.keys() - unreached):
        state = "now entered" if name in names else "no longer defined"
        problems.append(f"in the allowlist but {state}: {name}")
    print(f"reach: {len(defs)} functions, {len(defs) - len(unreached)} "
          f"entered, {len(unreached)} never entered "
          f"({len(unreached & allowed.keys())} allowlisted)")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


def run_program(kind: str, target: str, argv: Sequence[str]) -> object:
    """Run one program; its exit status."""
    saved_argv, saved_path = sys.argv, sys.path[:]
    output = io.StringIO()
    status: object = 0
    try:
        with contextlib.redirect_stdout(output):
            if kind == "module":
                status = importlib.import_module(target).main(list(argv))
            else:
                script = ROOT / target
                sys.argv = [str(script), *argv]
                sys.path.insert(0, str(script.parent))
                runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exit_:
        status = exit_.code
    finally:
        sys.argv, sys.path[:] = saved_argv, saved_path
    status = status or 0
    if status != 0:
        print(output.getvalue()[-2000:])
    return status


def run_programs() -> None:
    from repro.fleet import runner

    pool = runner.ProcessPoolExecutor
    runner.ProcessPoolExecutor = InProcessPool
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for kind, target, argv in programs(Path(workdir)):
                started = time.perf_counter()
                status = run_program(kind, target, argv)
                print(f"ran {target} {' '.join(argv)}: exit {status} "
                      f"[{time.perf_counter() - started:.1f}s]", flush=True)
    finally:
        runner.ProcessPoolExecutor = pool


def main() -> int:
    for entry in (ROOT, ROOT / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    reached = entered(run_programs)
    return check(defined(SOURCE), reached, load_allowlist(ALLOWLIST))


if __name__ == "__main__":
    raise SystemExit(main())
