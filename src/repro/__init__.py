"""repro — reproduction of "Block Management in Solid-State Devices"
(Rajimwale, Prabhakaran, Davis; USENIX 2009).

Quick tour of the public API::

    from repro import Simulator, SSD, SSDConfig, IORequest, OpType

    sim = Simulator()
    ssd = SSD(sim, SSDConfig(n_elements=8))
    ssd.submit(IORequest(OpType.WRITE, 0, 4096,
                         on_complete=lambda r: print(r.response_us)))
    sim.run_until_idle()

Sub-packages:

* :mod:`repro.sim` — discrete-event engine, RNG streams, statistics
* :mod:`repro.flash` — NAND geometry/timing and the parallel-element model
* :mod:`repro.ftl` — page-mapped and block-mapped FTLs, cleaning,
  wear-leveling, warmup
* :mod:`repro.device` — the SSD (+ tiered SLC/MLC), write buffers,
  schedulers, the paper's device presets
* :mod:`repro.hdd`, :mod:`repro.array`, :mod:`repro.mems` — comparison
  device models
* :mod:`repro.core` — the paper's contribution: the OSD object store,
  placement policies, the block-FS baseline, and the unwritten-contract
  probe suite
* :mod:`repro.traces`, :mod:`repro.workloads` — trace generators and
  drivers
* :mod:`repro.bench` — one experiment module per paper table/figure
"""

from repro.device.interface import IORequest, OpType
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.sim.engine import Simulator

__version__ = "1.0.0"

__all__ = ["Simulator", "SSD", "SSDConfig", "IORequest", "OpType", "__version__"]
