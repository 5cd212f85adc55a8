"""Determinism & simulation-safety linter.

Every PR since the seed has shipped under one contract: *simulated
behaviour must be bit-identical* (the BENCH_CORE fingerprints, the N=1
fleet differential, the merge-exactness property tests).  The hazards
that can silently break that contract — unseeded randomness, wall-clock
leakage, set-order-dependent decisions,
unpicklable state crossing a ``ProcessPoolExecutor`` boundary — are
exactly the ones a reviewer is worst at spotting, because the code runs
fine and the divergence only shows up as a fingerprint mismatch three
PRs later.

This package turns the convention into a checked invariant: a
self-contained AST analysis pass (stdlib only) with

* a rule registry (:mod:`repro.analysis.registry`) of five hazard
  families tuned to this codebase (:mod:`repro.analysis.rules`),
* per-line ``# repro: allow[rule-id]`` suppression pragmas
  (:mod:`repro.analysis.context`) for deliberate idioms,
* a committed baseline (:mod:`repro.analysis.baseline`,
  ``LINT_BASELINE.json``) for grandfathered findings that cannot be
  fixed without moving pinned behaviour, and
* text/JSON reporters behind ``python -m repro.analysis.lint``, wired
  into CI as a hard gate next to the perf gate.

See ``docs/architecture.md`` §12 for the rule catalogue and the
pragma/baseline workflow.

Imports are lazy (module ``__getattr__``) so ``python -m
repro.analysis.lint`` does not trip runpy's "found in sys.modules
after import of package" warning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = ["Finding", "LintResult", "lint_paths", "lint_sources"]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.findings import Finding
    from repro.analysis.lint import LintResult, lint_paths, lint_sources


def __getattr__(name: str) -> object:
    if name == "Finding":
        from repro.analysis.findings import Finding
        return Finding
    if name in ("LintResult", "lint_paths", "lint_sources"):
        from repro.analysis import lint
        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
