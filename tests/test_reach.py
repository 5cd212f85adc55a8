"""The reach probe's verdict (``benchmarks/reach.py``) on a toy package.

The probe itself runs every program under a profile hook, which takes
minutes; these tests drive only its matching and comparison: a function
that nothing entered must be allowlisted, and an allowlist line must name
a function that still exists and is still never entered.
"""

from __future__ import annotations

import importlib
import sys

import pytest

from benchmarks.reach import check, defined, entered, load_allowlist

TOY = '''\
import functools


def reached():
    return inner()


def inner():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


class Box:
    def unreached(self):
        return 3
'''


@pytest.fixture
def toy(tmp_path, monkeypatch):
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("toypkg.mod")
    yield package, module
    for name in ("toypkg.mod", "toypkg"):
        sys.modules.pop(name, None)


def _verdict(package, module, allowlist, tmp_path, capsys):
    path = tmp_path / "allow.txt"
    path.write_text(allowlist)

    def run():
        module.reached()
        module.decorated()

    status = check(defined(package), entered(run), load_allowlist(path))
    return status, capsys.readouterr().out


def test_defs_are_named_and_decorated_ones_match_their_code(toy):
    package, module = toy
    names = set(defined(package).values())
    assert names == {"toypkg.mod:reached", "toypkg.mod:inner",
                     "toypkg.mod:decorated", "toypkg.mod:Box.unreached"}
    reached = entered(module.decorated)
    assert {defined(package)[key] for key in reached
            if key in defined(package)} == {"toypkg.mod:decorated"}


def test_an_unlisted_unreached_function_fails_and_is_named(
        toy, tmp_path, capsys):
    status, out = _verdict(*toy, "", tmp_path, capsys)
    assert status == 1
    assert "not in the allowlist: toypkg.mod:Box.unreached" in out
    assert "toypkg.mod:reached" not in out


def test_reached_and_listed_unreached_functions_pass(toy, tmp_path, capsys):
    status, out = _verdict(
        *toy, "# comment\ntoypkg.mod:Box.unreached  kept for a reason\n",
        tmp_path, capsys)
    assert status == 0, out


@pytest.mark.parametrize("stale, state", [
    ("toypkg.mod:inner", "now entered"),
    ("toypkg.mod:gone", "no longer defined"),
])
def test_a_stale_allowlist_line_fails(toy, tmp_path, capsys, stale, state):
    status, out = _verdict(
        *toy, f"toypkg.mod:Box.unreached  kept\n{stale}  was kept\n",
        tmp_path, capsys)
    assert status == 1
    assert f"in the allowlist but {state}: {stale}" in out


def test_an_allowlist_line_needs_a_reason(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("toypkg.mod:inner\n")
    with pytest.raises(ValueError):
        load_allowlist(path)
