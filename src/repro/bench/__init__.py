"""Benchmark harness: one module per paper table/figure plus ablations.

Every experiment module exposes ``run(scale=..., seed=...) -> ExperimentResult``
and ``claims(result)``, the paper's checks of that result (:class:`Claim`).
The CLI (``python -m repro.bench.cli <experiment>``) prints the tables;
``python -m repro.bench.cli claims`` runs every claim set and prints the
ledger.
"""

from repro.bench.tables import Claim, ExperimentResult, format_table

__all__ = ["Claim", "ExperimentResult", "format_table"]
