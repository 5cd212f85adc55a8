"""Analytical write-amplification validator (the first external anchor).

Under sustained uniform random overwrites, a log-structured FTL reaches a
steady state whose write amplification is a function of overprovisioning
alone — a result derived independently many times (Desnoyers SYSTOR'12;
Bux & Iliadis, Perf. Eval. 2010; Dayan et al., arXiv:1504.00229, the
PAPERS.md entry that motivates this module).  That makes it the rare
quantity we can check against *theory nobody in this repo wrote*: if the
simulated cleaner's steady-state WA tracks the closed form across an OP
sweep, the whole pipeline — invalidation accounting, victim selection,
copy/erase bookkeeping, watermark scheduling — is quantitatively sane, not
just self-consistent.

The models
----------
Let ``β = T/U`` be physical over logical capacity (``OP = β − 1``) and
``b`` pages per block.

**FIFO / LRU, b → ∞** (:func:`fifo_write_amp`): blocks are cleaned in seal
order; with uniform overwrites a block's valid fraction decays
exponentially, and the victim's steady-state valid fraction ``u`` solves

    u = exp(−β(1 − u)),          WA = 1 / (1 − u).

(The literature states ``u`` via the Lambert W function; the fixed point
has exactly one root in (0, 1) for β > 1, so plain bisection does.)

**Threshold greedy, finite b** (:func:`greedy_write_amp`): greedy cleans
the block with the fewest valid pages; in the large-device mean field
every block decays through valid counts ``b, b−1, …`` (a death chain —
a block at count ``i`` loses the next page with rate ``i/U``) and is
reclaimed on reaching a threshold ``θ``.  Occupancy of level ``i`` is
``∝ 1/i``, and requiring the levels ``(θ, b]`` to hold all ``T/b`` blocks
gives

    H(b) − H(θ) = β (b − θ) / b,          WA = b / (b − θ),

with ``H`` the (real-argument) harmonic number.  As ``b → ∞`` with
``u = θ/b`` fixed, ``H(b) − H(θ) → −ln u`` and this reduces exactly to the
FIFO fixed point — the finite-b form just keeps the discreteness
correction honest at simulator-sized blocks.

The tolerance contract
----------------------
Neither form is exact for the simulator's cleaner: the mean field ignores
the stochastic spread of per-block valid counts (greedy harvests its
lucky left tail — see Van Houdt, SIGMETRICS'13, where greedy is the
d → ∞ limit of d-choices, a finite-pool effect pushing WA *below* the
model), while the frontier/watermark machinery and the cold-frontier
block each sequester a little spare (pushing WA *above* it).  Calibration
runs across OP ∈ [0.06, 0.25], block counts 96–128 per element, and
multiple seeds land the measured steady-state WA between the finite-b
greedy model and the b→∞ FIFO form, 1.5–8% above the former — so the
validator checks a **band, not an equality**:

    model × (1 − LOW_RTOL)  ≤  measured WA  ≤  model × (1 + HIGH_RTOL)

with the greedy finite-b model evaluated at the *effective* OP (below).
The band constants are part of the contract (`LOW_RTOL`/`HIGH_RTOL`,
currently −10% / +15%): tight enough that a mis-accounted cleaner cannot
hide — the negative test in ``tests/test_write_amp_validation.py`` drives
a cleaner that picks the fullest valid block and must blow through the
band — and just loose enough to absorb the documented model error with
margin on both sides.

Effective overprovisioning
--------------------------
The analytical T assumes all spare participates in cleaning as invalid
pages spread through closed blocks.  The simulator's cleaner, by design,
holds a watermark's worth of spare *erased and idle* (the free frontier
pool); those pages absorb no invalidations, so the spare that actually
works is smaller than nominal.  The harness samples the free-page count
during the measurement window and compares against the model at

    OP_eff = (T − U − F̄) / U

where ``F̄`` is the mean sampled free-page total.  (F̄ includes the
frontier blocks' unwritten tails — at most a couple of blocks per
element, second-order next to the watermark.)  This is a measurement
correction, not a fudge: it uses only the device's stated geometry and
its observed idle pool, never the measured WA.

Run the sweep standalone (the CI artifact)::

    PYTHONPATH=src python -m repro.validation.write_amp [--fast] [--out F]
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import exp, log
from typing import Callable, List, Optional, Sequence

from repro.checks import Checked, bounded
from repro.device.interface import OpType
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.cleaning import Cleaner, CleaningConfig, check_watermarks
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap
from repro.sim.engine import Simulator
from repro.sim.rng import stream
from repro.workloads.driver import ClosedLoopDriver

__all__ = [
    "LOW_RTOL",
    "HIGH_RTOL",
    "DEFAULT_SPARES",
    "WAConfig",
    "WAMeasurement",
    "fifo_write_amp",
    "greedy_write_amp",
    "harmonic",
    "measure_write_amp",
    "sweep_write_amp",
    "within_band",
]

#: The tolerance contract (see module docstring): measured steady-state WA
#: must satisfy  model·(1−LOW_RTOL) ≤ measured ≤ model·(1+HIGH_RTOL)  with
#: the finite-b greedy model at OP_eff.  Calibrated: measured/model ran
#: 1.015–1.077 across the OP sweep, seeds, and both harness sizes, so the
#: band holds several points of margin on each side while staying far too
#: tight for any mis-accounted cleaner to hide in.
LOW_RTOL = 0.10
HIGH_RTOL = 0.15

#: default nominal spare-fraction sweep (OP = s/(1−s): ~7.5%–25%)
DEFAULT_SPARES = (0.07, 0.11, 0.15, 0.20)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _bisect(f: Callable[[float], float], lo: float, hi: float,
            iters: int = 200) -> float:
    """Root of ``f`` on [lo, hi] with f(lo), f(hi) of opposite sign."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def fifo_write_amp(op: float) -> float:
    """b→∞ FIFO/LRU closed form: WA = 1/(1−u), u = exp(−β(1−u)), β = 1+OP.

    For β > 1 the fixed point has a single root in (0, 1): at u→0 the
    residual ``exp(−β(1−u)) − u`` is positive, at u→1 it is
    ``1 − u − O((1−u)²β)`` minus... strictly negative below 1 for β > 1,
    and the residual is convex in between.
    """
    if op <= 0.0:
        raise ValueError(f"overprovisioning must be positive, got {op}")
    beta = 1.0 + op
    u = _bisect(lambda x: exp(-beta * (1.0 - x)) - x, 1e-12, 1.0 - 1e-12)
    return 1.0 / (1.0 - u)


def harmonic(x: float) -> float:
    """Harmonic number H(x) for real x ≥ 0 (H(x) = ψ(x+1) + γ), via the
    digamma asymptotic after shifting x above 10; exact at integers to
    ~1e-12."""
    if x < 0:
        raise ValueError(f"harmonic needs x >= 0, got {x}")
    total = 0.0
    while x < 10.0:
        x += 1.0
        total -= 1.0 / x
    # ψ(x+1) + γ with γ folded in: H(x) ≈ ln x + 1/(2x) − 1/(12x²) + …
    inv2 = 1.0 / (x * x)
    total += (log(x) + 0.5772156649015329 + 0.5 / x
              - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0)))
    return total


def greedy_write_amp(op: float, pages_per_block: int) -> float:
    """Finite-b threshold-greedy mean field: WA = b/(b−θ) with θ solving
    H(b) − H(θ) = β(b−θ)/b  (see module docstring).  Reduces to
    :func:`fifo_write_amp` as b → ∞."""
    if op <= 0.0:
        raise ValueError(f"overprovisioning must be positive, got {op}")
    if pages_per_block < 2:
        raise ValueError("pages_per_block must be >= 2")
    b = float(pages_per_block)
    beta = 1.0 + op
    hb = harmonic(b)

    def residual(theta: float) -> float:
        return hb - harmonic(theta) - beta * (b - theta) / b

    if residual(1e-9) <= 0.0:
        # spare so large blocks fully decay before they are needed
        return 1.0
    # residual falls from positive at θ→0 to negative past the root and
    # returns to 0 only at the trivial θ=b; bracket below the minimum b/β
    theta = _bisect(residual, 1e-9, b / beta)
    return b / (b - theta)


# ---------------------------------------------------------------------------
# the measurement harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WAConfig(Checked):
    """One steady-state WA measurement point.

    The device is a pagemap :class:`~repro.device.ssd.SSD` (the device
    front door supplies the admission control a sustained overload needs —
    writes hold below the FTL's reserve headroom and force reclamation,
    exactly as production traffic would) with tighter-than-default
    watermarks (less spare sequestered erased; see "effective
    overprovisioning").  The run prefills the entire logical space, then
    applies uniform random single-page overwrites closed-loop:
    ``settle_multiple`` × user pages to reach steady state, then
    ``measure_multiple`` × user pages measured via :meth:`FTLStats.delta`.
    """

    spare_fraction: float = bounded(0.11, gt=0, lt=1)
    elements: int = bounded(2, ge=1)
    blocks_per_element: int = bounded(128, ge=1)
    #: the greedy model (:func:`greedy_write_amp`) needs two or more
    pages_per_block: int = bounded(64, ge=2)
    page_bytes: int = bounded(4096, ge=1)
    settle_multiple: float = bounded(3.0, ge=0)
    measure_multiple: float = bounded(1.0, gt=0)
    depth: int = bounded(8, ge=1)
    seed: int = bounded(1504_00229)
    low_watermark: float = bounded(0.02, gt=0, lt=1)
    critical_watermark: float = bounded(0.01, gt=0, lt=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_watermarks(self.low_watermark, self.critical_watermark)


@dataclass(frozen=True)
class WAMeasurement:
    """Measured vs analytical WA at one OP point."""

    nominal_op: float
    effective_op: float
    measured_wa: float
    #: finite-b greedy model at ``effective_op`` — the band's reference
    model_wa: float
    #: b→∞ FIFO closed form at ``effective_op`` (reported for context)
    fifo_wa: float
    host_pages: int
    flash_pages: int
    clean_pages_moved: int
    clean_erases: int
    mean_free_pages: float

    @property
    def ratio(self) -> float:
        """measured / model (1.0 = exact agreement)."""
        return self.measured_wa / self.model_wa


def within_band(measurement: WAMeasurement, low_rtol: float = LOW_RTOL,
                high_rtol: float = HIGH_RTOL) -> bool:
    """The tolerance contract: model·(1−low) ≤ measured ≤ model·(1+high)."""
    model = measurement.model_wa
    return (model * (1.0 - low_rtol)
            <= measurement.measured_wa
            <= model * (1.0 + high_rtol))


def measure_write_amp(
    config: WAConfig = WAConfig(),
    cleaner_factory: Optional[Callable[[PageMappedFTL], Cleaner]] = None,
) -> WAMeasurement:
    """Drive a pagemap device to cleaning steady state and measure WA.

    ``cleaner_factory`` swaps in an alternative cleaner (the negative test
    injects a worst-victim one); it must return a
    :class:`~repro.ftl.cleaning.Cleaner` built over the passed FTL.
    """
    sim = Simulator()
    geom = FlashGeometry(page_bytes=config.page_bytes,
                         pages_per_block=config.pages_per_block,
                         blocks_per_element=config.blocks_per_element)
    device = SSD(sim, SSDConfig(
        name="wa-probe",
        n_elements=config.elements,
        geometry=geom,
        timing=FlashTiming.slc(),
        ftl_type="pagemap",
        spare_fraction=config.spare_fraction,
        cleaning=CleaningConfig(low_watermark=config.low_watermark,
                                critical_watermark=config.critical_watermark),
        # the host side must never be the bottleneck: WA is a flash-side
        # property, the link just carries the closed loop's requests
        controller_overhead_us=1.0,
        host_interface_mb_s=10_000.0,
        max_inflight=config.depth,
    ))
    ftl: PageMappedFTL = device.ftl
    if cleaner_factory is not None:
        # _maybe_clean is prebound on the write fast path: rebind both
        ftl.cleaner = cleaner_factory(ftl)
        ftl._maybe_clean = ftl.cleaner.maybe_clean

    # every logical page valid, like the model assumes (the aging rng is a
    # derived stream so measurement draws are independent of it)
    prefill_pagemap(ftl, fill_fraction=1.0,
                    rng=stream(config.seed, "wa.prefill"))

    user_pages = ftl.user_logical_pages
    page_bytes = ftl.logical_page_bytes
    randrange = stream(config.seed, "wa.addresses").randrange
    free_lists = ftl._free
    samples = 0
    free_sum = 0
    sampling = False

    def next_write(i: int):
        nonlocal samples, free_sum
        if sampling:
            # sample the erased-idle pool on the request clock: one draw
            # per admitted write, spread across the whole window
            samples += 1
            free_sum += sum(free_lists)
        return (OpType.WRITE, randrange(user_pages) * page_bytes, page_bytes)

    settle = int(config.settle_multiple * user_pages)
    if settle:
        ClosedLoopDriver(sim, device, next_write, settle,
                         depth=config.depth).run()

    before = ftl.stats.snapshot()
    sampling = True
    measure = max(1, int(config.measure_multiple * user_pages))
    ClosedLoopDriver(sim, device, next_write, measure,
                     depth=config.depth).run()
    ftl.check_consistency()
    delta = ftl.stats.delta(before)
    if delta.host_pages_written <= 0:
        raise RuntimeError("measurement window completed no host writes")
    measured = delta.flash_pages_programmed / delta.host_pages_written

    total_pages = config.elements * geom.pages_per_element
    mean_free = free_sum / samples
    nominal_op = (total_pages - user_pages) / user_pages
    effective_op = (total_pages - user_pages - mean_free) / user_pages
    if effective_op <= 0.0:
        raise RuntimeError(
            f"watermark pool ({mean_free:.0f} pages) swallowed the entire "
            f"spare ({total_pages - user_pages} pages); enlarge the device "
            f"or lower the watermarks"
        )
    return WAMeasurement(
        nominal_op=nominal_op,
        effective_op=effective_op,
        measured_wa=measured,
        model_wa=greedy_write_amp(effective_op, config.pages_per_block),
        fifo_wa=fifo_write_amp(effective_op),
        host_pages=delta.host_pages_written,
        flash_pages=delta.flash_pages_programmed,
        clean_pages_moved=delta.clean_pages_moved,
        clean_erases=delta.clean_erases,
        mean_free_pages=mean_free,
    )


def sweep_write_amp(
    spare_fractions: Sequence[float] = DEFAULT_SPARES,
    config: WAConfig = WAConfig(),
    cleaner_factory: Optional[Callable[[PageMappedFTL], Cleaner]] = None,
) -> List[WAMeasurement]:
    """One :func:`measure_write_amp` per nominal spare fraction."""
    from dataclasses import replace
    return [
        measure_write_amp(replace(config, spare_fraction=s), cleaner_factory)
        for s in spare_fractions
    ]


# ---------------------------------------------------------------------------
# CLI: the CI artifact
# ---------------------------------------------------------------------------

def format_table(measurements: Sequence[WAMeasurement],
                 low_rtol: float = LOW_RTOL,
                 high_rtol: float = HIGH_RTOL) -> str:
    lines = [
        "steady-state write amplification vs overprovisioning "
        "(uniform random overwrites, greedy cleaning)",
        f"band: model*(1-{low_rtol:.2f}) <= measured <= "
        f"model*(1+{high_rtol:.2f})  [greedy finite-b model at OP_eff]",
        "",
        f"{'OP_nom':>7} {'OP_eff':>7} {'WA_meas':>8} {'WA_model':>9} "
        f"{'WA_fifo':>8} {'ratio':>6} {'band':>5}  "
        f"{'host_pg':>8} {'moved':>8} {'erases':>7}",
    ]
    for m in measurements:
        lines.append(
            f"{m.nominal_op:7.3f} {m.effective_op:7.3f} "
            f"{m.measured_wa:8.3f} {m.model_wa:9.3f} {m.fifo_wa:8.3f} "
            f"{m.ratio:6.3f} {'ok' if within_band(m, low_rtol, high_rtol) else 'FAIL':>5}  "
            f"{m.host_pages:8d} {m.clean_pages_moved:8d} {m.clean_erases:7d}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="sweep overprovisioning and validate simulated WA "
                    "against the analytical model")
    parser.add_argument("--fast", action="store_true",
                        help="CI-sized parameters (also via REPRO_BENCH_FAST=1)")
    parser.add_argument("--out", default=None,
                        help="also write the table to this file")
    parser.add_argument("--spares", default=None,
                        help="comma-separated nominal spare fractions "
                             f"(default {','.join(map(str, DEFAULT_SPARES))})")
    args = parser.parse_args(argv)

    fast = args.fast or os.environ.get("REPRO_BENCH_FAST", "") == "1"
    config = WAConfig(blocks_per_element=96, settle_multiple=2.0,
                      measure_multiple=0.75) if fast else WAConfig()
    spares = (tuple(float(s) for s in args.spares.split(","))
              if args.spares else DEFAULT_SPARES)
    measurements = sweep_write_amp(spares, config)
    table = format_table(measurements)
    print(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    return 0 if all(within_band(m) for m in measurements) else 1


if __name__ == "__main__":
    raise SystemExit(main())
