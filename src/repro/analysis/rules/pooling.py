"""Family 4 — pooled-object lifecycle.

``FlashOp`` is slab-recycled: the pool hands the same object out again
after release, so any reference that outlives the operation (a
module-level cache, a global history list) is silently rebound to a
*different* logical operation later — the classic recycled-object
aliasing bug, invisible until a fingerprint moves.

The escape analysis is deliberately best-effort but zero-false-negative
on the known patterns: a value is *pooled* when it is assigned from an
``.acquire(...)`` call, popped from a ``*pool*``/``*slab*`` container,
or is a parameter annotated with a pooled class; it *escapes* when it is
stored into module-level state (append/add/insert on a module-level
container, a subscript store into one, or a ``global`` rebind).
Instance-attribute stores are out of scope — lifetimes there need whole-
program knowledge (the pools' own slabs would all be false positives).
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Set

from repro.analysis.context import ModuleContext, scope_statements, terminal_name
from repro.analysis.findings import Finding
from repro.analysis.registry import module_rule

__all__ = ["check_pool_escape"]

#: classes whose instances are slab-recycled in this repo
POOLED_CLASSES = {"FlashOp"}

_STORE_METHODS = {"append", "appendleft", "add", "insert", "push", "extend"}


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _annotation_name(node: ast.expr) -> str:
    name = terminal_name(node)
    if name:
        return name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"").split(".")[-1].split("[")[0]
    return ""


def _is_pooled_source(value: ast.expr) -> bool:
    """Does this expression produce a slab-recycled object?"""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        if func.attr == "acquire":
            return True
        receiver = terminal_name(func.value) or ""
        if func.attr == "pop" and ("pool" in receiver or "slab" in receiver):
            return True
    return False


def _pooled_names(body: Sequence[ast.stmt],
                  params: Sequence[ast.arg]) -> Set[str]:
    pooled: Set[str] = set()
    for param in params:
        if param.annotation is not None and (
                _annotation_name(param.annotation) in POOLED_CLASSES):
            pooled.add(param.arg)
    for stmt in scope_statements(body):
        if isinstance(stmt, ast.Assign) and _is_pooled_source(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    pooled.add(target.id)
        elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and isinstance(stmt.target, ast.Name)
                and _is_pooled_source(stmt.value)):
            pooled.add(stmt.target.id)
    return pooled


def _mentions_pooled(node: ast.expr, pooled: Set[str]) -> bool:
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and inner.id in pooled:
            return True
    return False


def _scan_scope(ctx: ModuleContext, body: Sequence[ast.stmt],
                params: Sequence[ast.arg], module_names: Set[str],
                findings: List[Finding]) -> None:
    pooled = _pooled_names(body, params)
    if not pooled:
        return
    globals_here: Set[str] = set()
    for stmt in scope_statements(body):
        if isinstance(stmt, ast.Global):
            globals_here.update(stmt.names)
    for stmt in scope_statements(body):
        # container.append(op) / container[key] = op on module-level state
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            func = call.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _STORE_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_names
                    and any(_mentions_pooled(arg, pooled)
                            for arg in call.args)):
                findings.append(ctx.finding(
                    "pool-escape", call,
                    f"slab-recycled object stored into module-level "
                    f"container {func.value.id!r}: the pool will rebind it "
                    f"to a different operation after release"))
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in module_names
                        and _mentions_pooled(stmt.value, pooled)):
                    findings.append(ctx.finding(
                        "pool-escape", stmt,
                        f"slab-recycled object stored into module-level "
                        f"container {target.value.id!r}"))
                elif (isinstance(target, ast.Name)
                        and target.id in globals_here
                        and _mentions_pooled(stmt.value, pooled)):
                    findings.append(ctx.finding(
                        "pool-escape", stmt,
                        f"slab-recycled object bound to module global "
                        f"{target.id!r}"))


@module_rule(
    "pool-escape", "pooling",
    "slab-recycled object escaping into long-lived module state")
def check_pool_escape(ctx: ModuleContext) -> List[Finding]:
    module_names = _module_level_names(ctx.tree)
    findings: List[Finding] = []
    _scan_scope(ctx, ctx.tree.body, (), module_names, findings)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            _scan_scope(ctx, node.body, params, module_names, findings)
    return findings
