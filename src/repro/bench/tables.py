"""Result containers and ASCII table rendering for the bench harness."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Claim", "ExperimentResult", "check", "format_table", "near"]


def _format_cell(value: Any) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_cell(v) for v in value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an ASCII table (right-aligned numbers, left-aligned text).

    A column of numbers only, header included, is right-aligned; any other
    column is left-aligned."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    columns = range(len(headers))
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in cells))
        if cells
        else len(str(headers[col]))
        for col in columns
    ]
    numeric = [all(isinstance(row[col], (int, float)) for row in rows)
               for col in columns]

    def render_row(values: Sequence[str]) -> str:
        return "  ".join(
            v.rjust(widths[i]) if numeric[i] else v.ljust(widths[i])
            for i, v in enumerate(values)).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row([str(h) for h in headers]))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(render_row(row))
    return "\n".join(lines)


@dataclass(frozen=True)
class Claim:
    """One check of a reproduced result against the paper.

    ``band`` states the accepted range, ``ok`` whether ``measured`` lies
    in it, and ``why`` why the band is that wide.  ``paper`` is the
    paper's value, None where the paper gives no number.  A ``gap`` claim
    records a known divergence from the paper: out of its band it reads
    ``diverges`` instead of failing, and ``why`` names the cause (scale,
    a named model simplification, or "unexplained")."""

    name: str
    measured: Any
    paper: Any
    band: str
    ok: bool
    why: str
    gap: bool = False

    @property
    def verdict(self) -> str:
        if self.ok:
            return "pass"
        return "diverges" if self.gap else "FAIL"


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}


def check(name: str, measured: Any, op: str, bound: Any, paper: Any,
          why: str) -> Claim:
    """The claim ``measured <op> bound``."""
    return Claim(name, measured, paper, f"{op} {_format_cell(bound)}",
                 _COMPARE[op](measured, bound), why)


#: relative distance from the paper's value inside which a gap claim
#: counts as reproduced
GAP_RTOL = 0.25


def near(name: str, measured: float, paper: float, why: str) -> Claim:
    """A gap claim: *measured* within :data:`GAP_RTOL` of *paper*."""
    return Claim(name, measured, paper, f"paper ± {GAP_RTOL:.0%}",
                 abs(measured - paper) <= GAP_RTOL * abs(paper), why, gap=True)


@dataclass
class ExperimentResult:
    """Output of one experiment: table rows plus free-form metadata."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[Any]]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return format_table(
            self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}"
        )

    def column(self, header: str) -> List[Any]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_by(self, header: str, key: Any) -> List[Any]:
        index = self.headers.index(header)
        for row in self.rows:
            if row[index] == key:
                return row
        raise KeyError(f"no row with {header}={key!r}")
