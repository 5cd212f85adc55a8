"""The benchmark tracer's contract with the program it traces.

``benchmarks/e2e/spans.py`` wraps functions of the simulator by name for
the benchmark's traced run, looking each one up in ``vars(owner)``.  A
change that deletes or renames a traced function would otherwise surface
as a ``KeyError`` deep inside the traced smoke run; this test names it.
The hooks also read public state of the traced objects
(``FlashElement.queue_wait_us()``, ``SerialResource.wait_us()``,
``len(ssd.queue)``); the second test names any of those that goes missing.
"""

from __future__ import annotations

from benchmarks.e2e.spans import Tracer, _patches
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.fleet import runner as fleet_runner
from repro.sim.engine import Simulator
from tests.conftest import small_geometry


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



def test_every_public_read_of_the_hooks_exists():
    ssd = SSD(Simulator(), SSDConfig(n_elements=2, geometry=small_geometry()))
    reads = {
        "FlashElement.queue_wait_us()": lambda: ssd.elements[0].queue_wait_us(),
        "SerialResource.wait_us()": lambda: ssd.link.wait_us(),
        "len(SSD.queue)": lambda: len(ssd.queue),
    }
    missing = []
    for name, read in reads.items():
        try:
            value = read()
        except (AttributeError, TypeError):
            missing.append(name)
            continue
        if not isinstance(value, (int, float)) or value != 0:
            missing.append(f"{name} (idle device read {value!r}, not 0)")
    assert not missing, (
        f"benchmarks/e2e/spans.py hooks read what no longer works: {missing}")
