"""Benchmark configuration.

Each scenario runs once per benchmark round (the scenarios are
deterministic; wall time is what varies), so pytest-benchmark is configured
for a single round.

Two additions for CI time budgets:

* ``REPRO_BENCH_FAST=1`` — :func:`bench_scale` shrinks IO counts (and with
  them effective geometry churn) by 10x for suites whose assertions are
  scale-invariant (the hotpath microbenches).  The paper's claims are not
  here: ``python -m repro.bench.cli claims`` runs them at fixed scales.
* **pytest-benchmark-free timing mode** — when the plugin is not installed
  this conftest provides a minimal ``benchmark`` fixture with the same
  ``pedantic``/call interface, timed with ``time.perf_counter``, so the
  perf suite still runs (and still asserts result shapes) on bare pytest.
"""

from __future__ import annotations

import os
import time

import pytest

BENCH_OPTIONS = dict(rounds=1, iterations=1, warmup_rounds=0)

#: REPRO_BENCH_FAST=1 shrinks scale-invariant perf suites to CI size
FAST = os.environ.get("REPRO_BENCH_FAST", "") == "1"


def bench_scale(default: float = 1.0) -> float:
    """Scale factor for IO counts; 10x smaller under REPRO_BENCH_FAST=1."""
    return default * 0.1 if FAST else default


try:
    import pytest_benchmark  # noqa: F401

    _HAVE_PLUGIN = True
except ImportError:  # pragma: no cover - depends on environment
    _HAVE_PLUGIN = False


if not _HAVE_PLUGIN:  # pragma: no cover - depends on environment

    class _FallbackBenchmark:
        """Drop-in for the pytest-benchmark fixture: runs the function once
        under perf_counter and reports the wall time."""

        def __init__(self, name: str) -> None:
            self.name = name
            self.elapsed_s: float = 0.0

        def __call__(self, fn, *args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.elapsed_s = time.perf_counter() - start
            return result

        def pedantic(self, fn, args=(), kwargs=None, **_options):
            return self(fn, *args, **(kwargs or {}))

    @pytest.fixture
    def benchmark(request):
        bench = _FallbackBenchmark(request.node.name)
        yield bench
        if bench.elapsed_s:
            print(f"[timing] {bench.name}: {bench.elapsed_s:.3f}s")
