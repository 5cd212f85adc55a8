"""Process-parallel parameter sweeps over fleet configurations.

A sweep is a list of :class:`SweepPoint`\\s — labelled
:class:`~repro.fleet.config.FleetConfig` variants, typically built with
:meth:`FleetConfig.with_` (tenant mix, over-provisioning, QoS shares,
device preset).  :func:`run_sweep` flattens the grid into independent
``(point, device)`` simulations, fans them over one
:class:`~concurrent.futures.ProcessPoolExecutor`, and regroups each
point's devices into a :class:`~repro.fleet.report.FleetReport`.

Determinism carries over from :func:`repro.fleet.runner.run_fleet`
unchanged: each task is a pure function of its point's config, results
are keyed by ``(point_index, device_index)`` — never arrival order — and
every merge is canonical, so a sweep's reports are bit-identical for any
worker count or submission order.

CLI::

    PYTHONPATH=src python -m repro.fleet.sweep \\
        --devices 2 --workers 2 --op 0.07 --op 0.20 \\
        --tenant gold=random:gold --tenant batch=sequential:bronze
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.fleet.config import PATTERN_NAMES, QOS_CLASSES, FleetConfig, TenantSpec
from repro.fleet.report import FleetReport
from repro.fleet.runner import fan_out, run_device

__all__ = ["SweepPoint", "op_grid", "run_sweep", "main"]


@dataclass(frozen=True)
class SweepPoint:
    """One labelled cell of the sweep grid."""

    label: str
    config: FleetConfig


def op_grid(base: FleetConfig, spare_fractions: Sequence[float]) -> List[SweepPoint]:
    """The paper's over-provisioning axis as a sweep: one point per spare
    fraction (Table 4's knob, here swept across a whole fleet)."""
    return [SweepPoint(label=f"op={fraction:.2f}",
                       config=base.with_(spare_fraction=fraction))
            for fraction in spare_fractions]


def run_sweep(
    points: Sequence[SweepPoint],
    max_workers: Optional[int] = None,
    submit_order: Optional[Sequence[int]] = None,
) -> List[Tuple[SweepPoint, FleetReport]]:
    """Run every device of every point; returns ``(point, report)`` pairs
    in grid order.

    The task list is the flattened grid — ``(point 0, device 0)``,
    ``(point 0, device 1)``, ..., in order; ``submit_order`` (a
    permutation of task indices) reorders *submission only*, exactly like
    :func:`run_fleet`'s, and exists so tests can prove scheduling cannot
    leak into results.
    """
    tasks = [(point.config, device_index)
             for point in points
             for device_index in range(point.config.n_devices)]
    runs = iter(fan_out(run_device, tasks, max_workers, submit_order))
    return [
        (point, FleetReport.build(
            point.config,
            {device_index: next(runs)
             for device_index in range(point.config.n_devices)}))
        for point in points
    ]


# -- CLI ------------------------------------------------------------------

def _parse_tenant(text: str) -> TenantSpec:
    """``name=pattern:qos[:weight]`` -> :class:`TenantSpec`."""
    name, _, rest = text.partition("=")
    if not rest:
        raise argparse.ArgumentTypeError(
            f"tenant {text!r} must look like name=pattern:qos[:weight]")
    parts = rest.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"tenant {text!r} must look like name=pattern:qos[:weight]")
    pattern, qos = parts[0], parts[1]
    if pattern not in PATTERN_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown pattern {pattern!r}; expected one of {PATTERN_NAMES}")
    if qos not in QOS_CLASSES:
        raise argparse.ArgumentTypeError(
            f"unknown QoS class {qos!r}; expected one of {tuple(QOS_CLASSES)}")
    weight = float(parts[2]) if len(parts) == 3 else 1.0
    return TenantSpec(name=name, pattern=pattern, qos=qos, weight=weight)


def _default_tenants() -> Tuple[TenantSpec, ...]:
    return (
        TenantSpec(name="oltp", pattern="random", qos="gold"),
        TenantSpec(name="mail", pattern="hot_cold", qos="silver"),
        TenantSpec(name="batch", pattern="sequential", qos="bronze"),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.sweep",
        description="Multi-tenant fleet sweep over shared-nothing SSDs "
                    "(deterministic: same arguments, bit-identical reports).")
    parser.add_argument("--devices", type=int, default=2,
                        help="devices per fleet (default 2)")
    parser.add_argument("--tenant", action="append", type=_parse_tenant,
                        metavar="NAME=PATTERN:QOS[:WEIGHT]", default=None,
                        help="add a tenant (repeatable; default: "
                             "oltp=random:gold mail=hot_cold:silver "
                             "batch=sequential:bronze)")
    parser.add_argument("--count", type=int, default=2000,
                        help="requests per tenant per device (default 2000)")
    parser.add_argument("--preset", default="s4slc_sim",
                        help="device preset (default s4slc_sim)")
    parser.add_argument("--element-mb", type=int, default=8,
                        help="flash element size in MB (default 8)")
    parser.add_argument("--placement", choices=("all", "round_robin"),
                        default="all", help="tenant placement (default all)")
    parser.add_argument("--op", action="append", type=float, default=None,
                        metavar="FRACTION",
                        help="sweep a spare (over-provisioning) fraction "
                             "(repeatable; default: preset value only)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width; 1 = serial (default 1)")
    parser.add_argument("--seed", type=int, default=2009,
                        help="fleet root seed (default 2009)")
    args = parser.parse_args(argv)

    tenants = tuple(args.tenant) if args.tenant else _default_tenants()
    tenants = tuple(replace(spec, count=args.count) for spec in tenants)
    base = FleetConfig(
        tenants=tenants,
        n_devices=args.devices,
        placement=args.placement,
        preset=args.preset,
        element_mb=args.element_mb,
        seed=args.seed,
    )
    points = (op_grid(base, args.op) if args.op
              else [SweepPoint(label="base", config=base)])

    results = run_sweep(points, max_workers=args.workers)
    for index, (point, report) in enumerate(results):
        if index:
            print()
        print(f"=== {point.label} ===")
        print(report.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
