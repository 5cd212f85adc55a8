"""Family 5 — hot-path hygiene.

Two checks:

* ``hot-slots`` — every class in a designated hot module (see
  :data:`repro.analysis.context.HOT_MODULES`, or any module carrying the
  ``# repro: hot-path`` marker) must be laid out with ``__slots__``
  (directly or via ``@dataclass(slots=True)``): these classes are
  instantiated per op/per element and an instance ``__dict__`` is both
  memory and a latent source of typo'd-attribute bugs.  Exceptions,
  enums, Protocols and ABCs are exempt.
* ``error-swallow`` — an ``except`` that catches ``FlashStateError``
  (anywhere) or a bare ``except``/``except Exception`` (inside the
  guarded simulation packages) without re-raising hides a corrupted
  physical state transition; the fingerprint gate then pins the
  corruption as "correct".
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.context import ModuleContext, terminal_name
from repro.analysis.findings import Finding
from repro.analysis.registry import module_rule

__all__ = ["check_hot_slots", "check_error_swallow"]

_EXEMPT_BASE_SUFFIXES = ("Error", "Exception", "Warning")
_EXEMPT_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
                 "Protocol", "ABC", "ABCMeta", "type"}


def _dataclass_slots(node: ast.ClassDef) -> Optional[bool]:
    """None if not a dataclass; else whether it passes slots=True."""
    for decorator in node.decorator_list:
        name = terminal_name(decorator) if not isinstance(decorator, ast.Call) \
            else terminal_name(decorator.func)
        if name != "dataclass":
            continue
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "slots":
                    value = keyword.value
                    return bool(isinstance(value, ast.Constant) and value.value)
        return False
    return None


def _defines_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"):
            return True
    return False


def _exempt(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = terminal_name(base)
        if name is None:
            continue
        if name in _EXEMPT_BASES or name.endswith(_EXEMPT_BASE_SUFFIXES):
            return True
    if node.name.endswith(_EXEMPT_BASE_SUFFIXES):
        return True
    return False


@module_rule(
    "hot-slots", "hotpath",
    "hot-path class without __slots__",
    scope="hot")
def check_hot_slots(ctx: ModuleContext) -> List[Finding]:
    if not ctx.hot:
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or _exempt(node):
            continue
        slots = _dataclass_slots(node)
        if slots is None:
            if not _defines_slots(node):
                findings.append(ctx.finding(
                    "hot-slots", node,
                    f"class {node.name} in a hot-path module has no "
                    f"__slots__; add them (or exempt the module from "
                    f"HOT_MODULES if it left the hot path)"))
        elif not slots:
            findings.append(ctx.finding(
                "hot-slots", node,
                f"dataclass {node.name} in a hot-path module lacks "
                f"slots=True"))
    return findings


_BROAD = {"Exception", "BaseException"}


def _catches(handler: ast.ExceptHandler, name: str) -> bool:
    node = handler.type
    if node is None:
        return False
    if isinstance(node, ast.Tuple):
        return any(terminal_name(element) == name for element in node.elts)
    return terminal_name(node) == name


def _catches_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    if isinstance(node, ast.Tuple):
        return any(terminal_name(element) in _BROAD for element in node.elts)
    return terminal_name(node) in _BROAD


def _reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


@module_rule(
    "error-swallow", "hotpath",
    "except swallowing FlashStateError (or broad except in the simulation)")
def check_error_swallow(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if _catches(handler, "FlashStateError") and not _reraises(handler):
                findings.append(ctx.finding(
                    "error-swallow", handler,
                    "FlashStateError caught without re-raise: a corrupted "
                    "page-state transition would be pinned as correct "
                    "behaviour"))
            elif (ctx.guarded and _catches_broad(handler)
                    and not _reraises(handler)):
                findings.append(ctx.finding(
                    "error-swallow", handler,
                    "broad except without re-raise inside the simulation: "
                    "swallows FlashStateError (and everything else); catch "
                    "the specific expected exception"))
    return findings
