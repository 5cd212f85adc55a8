"""The benchmark tracer's contract with the program it traces.

``benchmarks/e2e/spans.py`` wraps functions of the simulator by name for
the benchmark's traced run, looking each one up in ``vars(owner)``.  A
change that deletes or renames a traced function would otherwise surface
as a ``KeyError`` deep inside the traced smoke run; this test names it.
"""

from __future__ import annotations

from benchmarks.e2e.spans import Tracer, _patches
from repro.fleet import runner as fleet_runner


def test_every_traced_name_is_defined_where_it_is_patched():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _layer, _before, _after in _patches(Tracer())
        if attr not in vars(owner)
    ]
    # the fleet's device stream is wrapped too (see ``installed``)
    if "device_stream" not in vars(fleet_runner):
        missing.append("repro.fleet.runner.device_stream")
    assert not missing, (
        f"benchmarks/e2e/spans.py traces names that no longer exist: "
        f"{missing}")

