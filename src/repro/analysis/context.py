"""Per-module analysis context: parsed tree, pragmas, and AST helpers.

The context classifies a module against the repo layout (guarded
packages, hot-path modules) from its *path alone*, so fixture tests can
lint in-memory snippets under any virtual path and exercise exactly the
scoping the real tree gets.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.analysis.findings import Finding

__all__ = [
    "GUARDED_PACKAGES",
    "HOT_MODULES",
    "HOT_MARKER",
    "ModuleContext",
    "scope_statements",
    "terminal_name",
    "dotted_name",
]

#: subpackages of ``repro`` whose modules run *inside* the simulation —
#: nondeterminism sources and ordering hazards are flagged only here
#: (trace generators draw from seeded streams by construction, and the
#: bench/validation layers may legitimately read wall clocks).
GUARDED_PACKAGES: Set[str] = {"sim", "device", "ftl", "flash", "fleet"}

#: modules whose classes sit on the per-op/per-element hot path: every
#: class here must carry ``__slots__`` (directly or via
#: ``@dataclass(slots=True)``).  New modules opt in by adding themselves
#: here or by carrying a ``# repro: hot-path`` marker comment.
HOT_MODULES: Set[str] = {
    "repro/flash/ops.py",
    "repro/flash/element.py",
    "repro/sim/engine.py",
    "repro/sim/resource.py",
    "repro/sim/stats.py",
    "repro/device/interface.py",
}

#: comment marker that opts any module into the hot-path checks
HOT_MARKER = "# repro: hot-path"

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([a-z0-9*,\s\-]+)\]")
_COMMENT_ONLY = re.compile(r"^\s*#")


def _parse_pragmas(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number -> rule ids suppressed on that line.

    A pragma suppresses findings on its own line; a *comment-only* pragma
    line additionally covers the next line, so multi-line statements can
    be annotated without overlong lines.  ``allow[*]`` suppresses every
    rule.
    """
    out: Dict[int, Set[str]] = {}
    for index, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        out.setdefault(index, set()).update(ids)
        if _COMMENT_ONLY.match(text):
            out.setdefault(index + 1, set()).update(ids)
    return out


@dataclass
class ModuleContext:
    """Everything the rules need to analyze one module."""

    path: str  # repo-relative posix path ("src/repro/sim/engine.py")
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: path from the ``repro`` package component ("repro/sim/engine.py");
    #: empty when the module is outside a ``repro`` tree
    rel: str = ""
    #: first subpackage under ``repro`` ("sim"), "" at top level/outside
    package: str = ""
    #: 1-based line -> rule ids suppressed there
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        parts = path.replace("\\", "/").split("/")
        rel = ""
        package = ""
        if "repro" in parts:
            anchor = len(parts) - 1 - parts[::-1].index("repro")
            rel = "/".join(parts[anchor:])
            if len(parts) - anchor > 2:
                package = parts[anchor + 1]
        return cls(
            path=path.replace("\\", "/"),
            source=source,
            tree=tree,
            lines=lines,
            rel=rel,
            package=package,
            pragmas=_parse_pragmas(lines),
        )

    # -- classification ---------------------------------------------------

    @property
    def guarded(self) -> bool:
        """True for modules that run inside the simulation proper."""
        return self.package in GUARDED_PACKAGES

    @property
    def hot(self) -> bool:
        """True for modules under the hot-path ``__slots__`` contract."""
        if self.rel in HOT_MODULES:
            return True
        return any(line.strip().startswith(HOT_MARKER) for line in self.lines)

    # -- findings ---------------------------------------------------------

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            col=col,
            message=message,
            line_text=self.line_text(line),
        )

    def suppressed(self, finding: Finding) -> bool:
        allowed = self.pragmas.get(finding.line, ())
        return "*" in allowed or finding.rule in allowed


# -- AST helpers shared by the rules -------------------------------------

_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def scope_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Yield every statement of a scope without descending into nested
    function/class scopes (their bodies are separate scopes)."""
    stack: List[ast.stmt] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_BARRIERS):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)


def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain (else None)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None if not a chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
