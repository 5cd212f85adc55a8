"""Fleet description: tenants, QoS classes, device grid.

A fleet is N identical shared-nothing devices serving M tenants.  Each
tenant is a seeded access pattern (:mod:`repro.traces.patterns`) plus a
QoS class; the class maps onto the existing priority machinery — a
priority-tagging fraction fed to :attr:`PatternConfig.priority_fraction`,
which the SWTF scheduler and the priority-aware cleaner already honor
(the paper's Table 6 experiment, generalized across tenants).

Everything here is a frozen, picklable dataclass: a
:class:`FleetConfig` is the *complete* input of a fleet run, so shipping
it to a worker process and simulating there is equivalent to simulating
in-process — the determinism contract depends on nothing else crossing
the process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.checks import Checked, bounded

__all__ = ["QOS_CLASSES", "REGION_FRACTION", "PREFILL_FRACTION",
           "TenantSpec", "FleetConfig"]

#: QoS class -> fraction of the tenant's requests tagged priority.  Gold
#: tenants ride the priority path end to end (dispatch preference and
#: cleaning that yields to them); bronze is pure best-effort.
QOS_CLASSES: Dict[str, float] = {
    "gold": 1.0,
    "silver": 0.25,
    "bronze": 0.0,
}

#: the slice of each device's logical space the tenants share
REGION_FRACTION = 0.5
#: the fraction of each device's logical space written before the run
#: (aged state: ``FleetConfig.prefill_overwrite`` of it is overwritten)
PREFILL_FRACTION = 0.6

#: pattern names a tenant may use (resolved by the router; ``compose``
#: suites with control records are deliberately excluded — fleet streams
#: are merged by timestamp, and a Barrier has none)
PATTERN_NAMES = ("sequential", "random", "strided", "snake", "zipf",
                 "hot_cold")


@dataclass(frozen=True)
class TenantSpec(Checked):
    """One tenant: an access pattern, its traffic knobs, and a QoS class.

    ``weight`` sets the tenant's share of each device's usable region
    (namespaces are carved proportionally).  ``pattern_args`` passes
    pattern-specific extras (``theta``, ``stride_bytes``,
    ``window_bytes``, ``hot_space_fraction``, ...) straight to the
    pattern builder.
    """

    name: str
    pattern: str = "random"
    qos: str = "bronze"
    count: int = bounded(2000, ge=1)
    request_bytes: int = bounded(4096, ge=512)
    read_fraction: float = bounded(0.0, ge=0, le=1)
    interarrival_max_us: float = bounded(100.0, ge=0)
    arrival_process: str = "uniform"
    weight: float = bounded(1.0, gt=0)
    pattern_args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.pattern not in PATTERN_NAMES:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; expected one of "
                f"{PATTERN_NAMES}"
            )
        if self.qos not in QOS_CLASSES:
            raise ValueError(
                f"unknown QoS class {self.qos!r}; expected one of "
                f"{tuple(QOS_CLASSES)}"
            )

    @property
    def priority_fraction(self) -> float:
        return QOS_CLASSES[self.qos]


@dataclass(frozen=True)
class FleetConfig(Checked):
    """The complete input of one fleet run (picklable; see module doc).

    ``placement``: ``"all"`` runs every tenant on every device (each
    (device, tenant) pair gets its own namespaced seed, so devices see
    *independent* draws of the same tenant behaviour — the isolation-curve
    shape); ``"round_robin"`` shards tenants across devices
    (tenant *j* lands only on device ``j % n_devices``).

    ``spare_fraction`` is the over-provisioning knob (None keeps the
    preset's default); ``device_args`` passes any further ``SSDConfig``
    overrides (``scheduler``, ``max_inflight``, ...) to the preset
    builder.
    """

    tenants: Tuple[TenantSpec, ...]
    n_devices: int = bounded(1, ge=1)
    placement: str = "all"
    preset: str = "s4slc_sim"
    element_mb: int = bounded(8, ge=1)
    spare_fraction: Optional[float] = bounded(None, gt=0, lt=1)
    device_args: Dict[str, Any] = field(default_factory=dict)
    prefill_overwrite: float = bounded(0.1, ge=0)
    time_scale: float = bounded(1.0, ge=0)
    seed: int = bounded(2009)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.tenants:
            raise ValueError("fleet needs at least one tenant")
        # tolerate a list from callers; canonicalize to a tuple so the
        # config stays hashable-free but eq/pickle-stable
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if self.placement not in ("all", "round_robin"):
            raise ValueError(
                f"placement must be 'all' or 'round_robin', "
                f"got {self.placement!r}"
            )
        if self.placement == "round_robin" and self.n_devices > len(self.tenants):
            raise ValueError(
                f"round_robin placement leaves {self.n_devices - len(self.tenants)} "
                f"device(s) tenant-less ({self.n_devices} devices, "
                f"{len(self.tenants)} tenants)"
            )

    def with_(self, **overrides) -> "FleetConfig":
        """A modified copy — the sweep grids are built from these."""
        return replace(self, **overrides)

    def tenants_on(self, device_index: int) -> List[Tuple[int, TenantSpec]]:
        """``(tenant_index, spec)`` pairs resident on one device, in
        tenant order (the canonical per-device namespace order)."""
        if not 0 <= device_index < self.n_devices:
            raise ValueError(
                f"device_index must be in [0, {self.n_devices}), "
                f"got {device_index}"
            )
        pairs = list(enumerate(self.tenants))
        if self.placement == "round_robin":
            pairs = [(j, spec) for j, spec in pairs
                     if j % self.n_devices == device_index]
        return pairs

    @property
    def total_records(self) -> int:
        """Data records the whole fleet will replay."""
        return sum(
            spec.count
            for i in range(self.n_devices)
            for _, spec in self.tenants_on(i)
        )
