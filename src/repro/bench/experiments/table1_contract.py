"""Table 1 — the unwritten contract, regenerated from measurements.

The paper's verdicts (T satisfied / F violated / y approximately
satisfied) are :data:`repro.core.contract.PAPER_VERDICTS`.  The probe
suite in that module measures each cell; the table prints measured vs
paper verdicts plus the evidence string.  Honest divergences (e.g. RAID
distance correlation, which *is* positive in a simple model even though
the paper marks the term failed on indirection grounds) show up as
mismatched cells rather than being tuned away.
"""

from __future__ import annotations

from typing import List

from repro.bench.tables import Claim, ExperimentResult, check
from repro.core.contract import COLUMNS, TERMS, evaluate_contract

__all__ = ["run", "claims"]


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    report = evaluate_contract()
    headers = ["Term", "Assumption"]
    for column in COLUMNS:
        headers.extend([f"{column}", f"{column}(paper)"])
    rows = []
    for term in sorted(TERMS):
        row = [term, TERMS[term][:44]]
        for column in COLUMNS:
            verdict = report.verdict(term, column)
            row.extend([verdict.verdict, verdict.paper_verdict])
        rows.append(row)
    evidence = {
        f"{term}/{column}": report.verdict(term, column).evidence
        for term in sorted(TERMS)
        for column in COLUMNS
    }
    return ExperimentResult(
        experiment_id="table1",
        title="Unwritten Contract (measured vs paper verdicts)",
        headers=headers,
        rows=rows,
        metadata={"evidence": evidence, "agreement": report.agreement()},
    )


def claims(result: ExperimentResult) -> List[Claim]:
    """The paper's verdicts, from a run at scale 1.0."""
    ssd = result.column("ssd")
    return [
        check("ssd_terms_failed", ssd.count("F"), "==", len(ssd), len(ssd),
              "the paper's argument: an SSD breaks every term"),
        check("agreement", result.metadata["agreement"], ">=", 0.8, None,
              "a simple device model may honestly read a term differently "
              "from the paper; 0.8 lets 4 of the 24 cells differ"),
    ]
