"""Family 4 — process-parallel safety.

The fleet's determinism argument (bit-identical reports for any worker
count) holds because nothing crosses the ``ProcessPoolExecutor``
boundary except picklable configs in and picklable results out.  A
submitted lambda, nested function, or bound method either fails to
pickle outright or — worse — drags a copy of live simulator state into
the worker, where it silently diverges from the parent's.

Checks on every ``<executor>.submit(fn, *args)`` / ``.map(fn, ...)``:

* ``fn`` must be a module-level function (not a lambda, not a function
  defined inside the submitting scope, not a bound method);
* the target's parameters must not be annotated with live simulation
  types (``Simulator``, ``SSD``, ``FlashElement``, ...);
* no call-site argument may be a local that holds a live simulator or
  device (assigned from ``Simulator()``, a device preset builder, or
  ``build_device``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.context import ModuleContext, scope_statements, terminal_name
from repro.analysis.findings import Finding
from repro.analysis.registry import module_rule

__all__ = ["check_procpool"]

#: annotations that mean "live simulation state" — never picklable-safe
UNPICKLABLE_TYPES = {
    "Simulator", "Event", "SerialResource", "FlashElement",
    "SSD", "StorageDevice", "IORequest", "FaultModel", "BaseFTL",
}

#: constructors whose results are live simulation state
LIVE_FACTORIES = {
    "Simulator", "SSD", "build_device", "run_device_live",
    "s1slc", "s2slc", "s3slc", "s4slc_sim", "s5mlc",
}

_EXECUTOR_CLASSES = {"ProcessPoolExecutor"}


def _executor_names(body: Sequence[ast.stmt]) -> Set[str]:
    names: Set[str] = set()
    for stmt in scope_statements(body):
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                call = item.context_expr
                if (isinstance(call, ast.Call)
                        and terminal_name(call.func) in _EXECUTOR_CLASSES
                        and isinstance(item.optional_vars, ast.Name)):
                    names.add(item.optional_vars.id)
        elif isinstance(stmt, ast.Assign):
            if (isinstance(stmt.value, ast.Call)
                    and terminal_name(stmt.value.func) in _EXECUTOR_CLASSES):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _live_locals(body: Sequence[ast.stmt]) -> Set[str]:
    """Local names holding live simulator/device state."""
    live: Set[str] = set()
    for stmt in scope_statements(body):
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        if not (isinstance(value, ast.Call)
                and terminal_name(value.func) in LIVE_FACTORIES):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                live.add(target.id)
            elif isinstance(target, ast.Tuple):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        live.add(element.id)
    return live


def _module_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    return {stmt.name: stmt for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)}


def _module_imports(tree: ast.Module) -> Set[str]:
    """Names bound at module level by import statements."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                names.add(alias.asname or alias.name)
    return names


def _nested_defs(body: Sequence[ast.stmt]) -> Set[str]:
    return {stmt.name for stmt in scope_statements(body)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _check_target(ctx: ModuleContext, call: ast.Call, fn: ast.expr,
                  module_fns: Dict[str, ast.FunctionDef],
                  module_imports: Set[str], nested: Set[str],
                  findings: List[Finding]) -> None:
    if isinstance(fn, ast.Lambda):
        findings.append(ctx.finding(
            "procpool-unsafe", call,
            "lambda submitted to a process pool: not picklable"))
        return
    if isinstance(fn, ast.Attribute):
        owner = fn.value
        if not (isinstance(owner, ast.Name) and owner.id in module_imports):
            findings.append(ctx.finding(
                "procpool-unsafe", call,
                f"bound method {terminal_name(fn)!r} submitted to a process "
                f"pool: pickling it ships a copy of the owning object"))
        return
    if isinstance(fn, ast.Name):
        if fn.id in nested:
            findings.append(ctx.finding(
                "procpool-unsafe", call,
                f"locally-defined function {fn.id!r} submitted to a process "
                f"pool: not picklable and may close over live state"))
            return
        target = module_fns.get(fn.id)
        if target is not None:
            args = target.args
            for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if param.annotation is None:
                    continue
                annotation = terminal_name(param.annotation)
                if annotation in UNPICKLABLE_TYPES:
                    findings.append(ctx.finding(
                        "procpool-unsafe", call,
                        f"worker {fn.id!r} takes live simulation state "
                        f"({param.arg}: {annotation}); workers must rebuild "
                        f"from picklable config"))


def _check_args(ctx: ModuleContext, call: ast.Call, live: Set[str],
                findings: List[Finding]) -> None:
    for arg in call.args[1:]:
        if isinstance(arg, ast.Name) and arg.id in live:
            findings.append(ctx.finding(
                "procpool-unsafe", call,
                f"argument {arg.id!r} holds a live simulator/device; "
                f"pass the config and rebuild in the worker"))
        elif isinstance(arg, ast.Lambda):
            findings.append(ctx.finding(
                "procpool-unsafe", call,
                "lambda argument submitted to a process pool: not picklable"))


@module_rule(
    "procpool-unsafe", "procpool",
    "unpicklable or state-carrying submission to a process pool")
def check_procpool(ctx: ModuleContext) -> List[Finding]:
    module_fns = _module_functions(ctx.tree)
    module_imports = _module_imports(ctx.tree)
    findings: List[Finding] = []
    scopes: List[Sequence[ast.stmt]] = [ctx.tree.body]
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node.body)
    for body in scopes:
        executors = _executor_names(body)
        if not executors:
            continue
        live = _live_locals(body)
        nested = _nested_defs(body)
        for stmt in scope_statements(body):
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in ("submit", "map")
                        and isinstance(func.value, ast.Name)
                        and func.value.id in executors
                        and node.args):
                    continue
                _check_target(ctx, node, node.args[0], module_fns,
                              module_imports, nested, findings)
                _check_args(ctx, node, live, findings)
    unique = {(f.line, f.col, f.message): f for f in findings}
    return [unique[key] for key in sorted(unique)]
