"""Every public name under ``src/repro`` has a caller outside the tests.

A public function, method or property whose name appears nowhere in
``src/``, ``benchmarks/``, ``examples/``, ``README.md`` or ``docs/`` except
on its own ``def`` line is surface only tests touch: configuration space
no experiment, golden or benchmark exercises.  This scan stops such names
from growing back.  The match is by word, so a name used by any caller (or
named in the docs) counts as used even when the caller is another class's
method of the same name; the scan is a ratchet, not a call graph.

Exempt are the lint rules, which register themselves by decorator, and
the names in :data:`ALLOWED`, each with its reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src" / "repro"
#: where a caller may live (tests do not count)
CORPUS = ("src", "benchmarks", "examples", "docs", "README.md")

#: decorators that register a function with the lint rule registry
_REGISTERING = {"module_rule", "project_rule"}

#: qualified name -> why it stays without a caller outside the tests
ALLOWED = {
    "PageMappedFTL.mapped_ppn":
        "hides the gang/shard map layout from the page-mapped FTL tests",
    "BlockMappedFTL.mapped_row":
        "hides the gang/slot map layout from the stripe FTL tests",
    "ExtentAllocator.check_invariants":
        "the allocator's conservation check; ROADMAP item 6's "
        "invariants library is to call it",
    "ObjectStore.get_attributes":
        "the OSD attribute interface the paper names (§3.7)",
    "ObjectStore.set_attributes":
        "the OSD attribute interface the paper names (§3.7)",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _registered(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name) and decorator.id in _REGISTERING:
            return True
    return False


def _public_defs():
    """(qualified name, name) of each public module-level function and
    each public method or property of a module-level class."""
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            scopes = [("", node)]
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.", child) for child in node.body]
            for prefix, child in scopes:
                if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not child.name.startswith("_")
                        and not _registered(child)):
                    yield prefix + child.name, child.name


def _corpus_words() -> Counter:
    words: Counter = Counter()
    for entry in CORPUS:
        root = REPO_ROOT / entry
        paths = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in paths:
            if path.suffix in (".py", ".md"):
                words.update(_WORD.findall(path.read_text()))
    return words


def _unused():
    defs = list(_public_defs())
    def_lines = Counter(name for _, name in defs)
    words = _corpus_words()
    # each def line holds its name once; a use is any occurrence beyond
    return sorted(qualified for qualified, name in defs
                  if words[name] <= def_lines[name])


def test_every_public_name_has_a_caller_outside_tests():
    unused = [name for name in _unused() if name not in ALLOWED]
    assert unused == [], (
        "public names only tests use (delete them, or allowlist one with "
        f"its reason): {unused}")


def test_allowlist_names_live_defs_with_reasons():
    """A deleted name leaves the list, and every entry says why it stays."""
    defined = {qualified for qualified, _ in _public_defs()}
    assert sorted(ALLOWED.keys() - defined) == []
    assert all(reason.strip() for reason in ALLOWED.values())
