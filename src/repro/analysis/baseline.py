"""Committed baseline of grandfathered findings.

A baseline entry matches on ``(rule, path, stripped line text)`` — not
line numbers — so it survives unrelated edits but dies with the code it
covers.  The canonical use here is the pre-seed RNG stream-name
collisions: renaming those streams would move pinned simulated
behaviour, so they are grandfathered with a note instead of fixed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.analysis.findings import Finding

__all__ = ["Baseline"]

_VERSION = 1


class Baseline:
    """Counted allowances keyed by :meth:`Finding.key`."""

    def __init__(self, entries: Sequence[Dict[str, object]] = ()) -> None:
        self._allow: Dict[Tuple[str, str, str], int] = {}
        self._notes: Dict[Tuple[str, str, str], str] = {}
        for entry in entries:
            key = (str(entry["rule"]), str(entry["path"]),
                   str(entry["line_text"]))
            self._allow[key] = self._allow.get(key, 0) + int(entry.get("count", 1))
            note = entry.get("note")
            if note:
                self._notes[key] = str(note)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("version") != _VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version {data.get('version')!r}")
        return cls(data.get("entries", ()))

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        baseline = cls()
        for finding in findings:
            key = finding.key()
            baseline._allow[key] = baseline._allow.get(key, 0) + 1
        return baseline

    def save(self, path: Path) -> None:
        entries = []
        for key in sorted(self._allow):
            rule, file_path, line_text = key
            entry: Dict[str, object] = {
                "rule": rule,
                "path": file_path,
                "line_text": line_text,
                "count": self._allow[key],
            }
            if key in self._notes:
                entry["note"] = self._notes[key]
            entries.append(entry)
        payload = {"version": _VERSION, "entries": entries}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def split(self, findings: Sequence[Finding]
              ) -> Tuple[List[Finding], List[Finding], List[Dict[str, object]]]:
        """Partition findings into (kept, baselined); also return the
        stale entries (allowances no current finding consumed)."""
        budget = dict(self._allow)
        kept: List[Finding] = []
        matched: List[Finding] = []
        for finding in findings:
            key = finding.key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                matched.append(finding)
            else:
                kept.append(finding)
        stale = [
            {"rule": rule, "path": path, "line_text": line_text, "count": count}
            for (rule, path, line_text), count in sorted(budget.items())
            if count > 0
        ]
        return kept, matched, stale

