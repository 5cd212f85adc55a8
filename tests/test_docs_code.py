"""The Python in README.md and docs/architecture.md names only live API.

No test runs these snippets (some replay ten million records), so this
checks them statically, block by block:

* each block compiles;
* every ``from repro... import name`` resolves to a module attribute or a
  submodule, and every ``import repro...`` to a module;
* every keyword passed to ``SSDConfig(...)`` or to a
  :mod:`repro.device.presets` factory is a parameter of that call: an
  ``SSDConfig`` field, a named preset parameter, or a field of the config
  a preset's ``**overrides`` go to.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.device import presets
from repro.device.ssd_config import SSDConfig
from repro.hdd.disk import HDDConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/architecture.md")

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

#: the config a preset's ``**overrides`` replace fields of, by the
#: preset's return annotation
_OVERRIDES_OF = {"SSD": SSDConfig, "HDD": HDDConfig}


def _fields(config_cls) -> set:
    return {f.name for f in dataclasses.fields(config_cls)}


def _blocks():
    """Each doc's Python blocks, named by the doc and the block's position
    in it, so a prose edit renames no case."""
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text()
        for index, match in enumerate(_BLOCK.finditer(text), 1):
            yield pytest.param(match.group(1), id=f"{doc}#{index}")


def _accepted_keywords(func):
    """Keywords *func* accepts: SSDConfig fields for ``SSDConfig``, named
    parameters plus the overridden config's fields for a preset factory;
    None for any other callable (not checked)."""
    if func is SSDConfig:
        return _fields(SSDConfig)
    if (not inspect.isfunction(func)
            or func.__module__ != presets.__name__
            or func.__name__.startswith("_")):
        return None
    params = inspect.signature(func).parameters.values()
    named = {p.name for p in params
             if p.kind not in (p.VAR_KEYWORD, p.VAR_POSITIONAL)}
    if any(p.kind is p.VAR_KEYWORD for p in params):
        named |= _fields(_OVERRIDES_OF[func.__annotations__["return"]])
    return named


class _Checker(ast.NodeVisitor):
    def __init__(self) -> None:
        #: local name -> the object it is bound to by a repro import
        self.bound = {}
        self.problems = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] != "repro":
                continue
            try:
                module = importlib.import_module(alias.name)
            except ImportError as exc:
                self.problems.append(f"line {node.lineno}: {exc}")
                continue
            if alias.asname:
                self.bound[alias.asname] = module

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        name = node.module or ""
        if name.split(".")[0] != "repro":
            return
        try:
            module = importlib.import_module(name)
        except ImportError as exc:
            self.problems.append(f"line {node.lineno}: {exc}")
            return
        for alias in node.names:
            try:
                value = getattr(module, alias.name)
            except AttributeError:
                try:
                    value = importlib.import_module(f"{name}.{alias.name}")
                except ImportError:
                    self.problems.append(
                        f"line {node.lineno}: {name} has no {alias.name!r}")
                    continue
            self.bound[alias.asname or alias.name] = value

    def _callee(self, func: ast.expr):
        if isinstance(func, ast.Name):
            return self.bound.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = self.bound.get(func.value.id)
            if inspect.ismodule(owner):
                return getattr(owner, func.attr, None)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = self._callee(node.func)
        accepted = None if func is None else _accepted_keywords(func)
        if accepted is not None:
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg not in accepted:
                    self.problems.append(
                        f"line {node.lineno}: {ast.unparse(node.func)}() "
                        f"takes no keyword {keyword.arg!r}")
        self.generic_visit(node)


def _check(source: str):
    compile(source, "<doc block>", "exec")
    tree = ast.parse(source)
    checker = _Checker()
    checker.visit(tree)
    return checker.problems


@pytest.mark.parametrize("source", list(_blocks()))
def test_doc_block_names_live_api(source):
    assert _check(source) == []


def test_every_doc_has_python_blocks():
    for doc in DOCS:
        assert _BLOCK.search((REPO_ROOT / doc).read_text()), doc


class TestChecker:
    """The checker itself catches each kind of stale name."""

    def test_unknown_import_name(self):
        problems = _check("from repro.sim.stats import LatencyRecorder\n")
        assert problems and "LatencyRecorder" in problems[0]

    def test_unknown_module(self):
        assert _check("import repro.no_such_module\n")
        assert _check("from repro.no_such_module import x\n")

    def test_submodule_import_resolves(self):
        assert _check("from repro import device\n") == []

    def test_unknown_config_keyword(self):
        for call in ("SSDConfig(n_elements=8, streaming_stats=True)",
                     "s4slc_sim(sim, element_mb=32, streaming_stats=True)",
                     "presets.s4slc_sim(sim, streaming_stats=True)"):
            source = ("from repro import SSDConfig\n"
                      "from repro.device import presets\n"
                      "from repro.device.presets import s4slc_sim\n"
                      f"{call}\n")
            problems = _check(source)
            assert problems and "streaming_stats" in problems[0], call

    def test_known_keywords_pass(self):
        source = ("from repro.device.presets import (hdd_barracuda, "
                  "s4slc_sim, tiered_slc_mlc)\n"
                  "s4slc_sim(sim, element_mb=8, scheduler='swtf')\n"
                  "hdd_barracuda(sim, capacity_bytes=1, rpm=7200)\n"
                  "tiered_slc_mlc(sim, trim_enabled=True)\n")
        assert _check(source) == []

    def test_block_must_compile(self):
        with pytest.raises(SyntaxError):
            _check("if x:\n")
