"""Deterministic fault injection for the flash layer.

The paper argues block management — including wear-out and block
retirement — belongs inside the device, but a simulator with a flawless
medium never exercises that machinery.  This module injects the three
classic NAND failure modes at the :class:`~repro.flash.element.FlashElement`
op layer:

* **program failures** — a page program fails; the page is *burned*
  (consumed but invalid) and the FTL must redirect the write and retire
  the block.
* **erase failures** — an erase fails with wear-dependent probability;
  the block becomes a grown bad block and leaves circulation.
* **transient read errors** — a read needs one or more retry steps, each
  adding escalating latency (read-retry voltage shifts), before the data
  comes back clean.

Determinism: each element owns an independent stream derived via
:func:`repro.sim.rng.stream` from ``(seed, "fault.element.<id>")``, so a
given workload replays the exact same fault plan regardless of how many
elements exist or what other components draw.  Faults default **off**
(``FaultConfig.enabled = False``) and every hook in the element is guarded
by ``fault_model is not None``, so runs without faults are bit-identical
to runs before this module existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.checks import Checked, bounded
from repro.sim.rng import stream

__all__ = ["FaultConfig", "FaultModel"]

#: cap on the per-element fault event log (the "fault plan"); soak runs
#: keep counters exact while the log stays bounded
_LOG_CAP = 10_000


@dataclass(frozen=True)
class FaultConfig(Checked):
    """Knobs for the seeded fault model.  All probabilities are per-op."""

    #: master switch; False means no FaultModel is ever attached
    enabled: bool = False
    #: parent seed for the per-element fault streams
    seed: int = bounded(0)
    #: probability that a page program (or the program half of a copy) fails
    program_fail_prob: float = bounded(0.0, ge=0, le=1)
    #: erase failure probability at zero wear ...
    erase_fail_base_prob: float = bounded(0.0, ge=0, le=1)
    #: ... scaled up with wear: p = base * (1 + scale * erase_count)
    erase_wear_scale: float = bounded(0.0, ge=0)
    #: probability a read needs at least one retry step
    read_transient_prob: float = bounded(0.0, ge=0, le=1)
    #: escalating added latency per retry step; a transient read draws a
    #: number of steps and pays the sum of the first that many entries
    read_retry_steps_us: Tuple[float, ...] = bounded((50.0, 150.0, 450.0),
                                                     ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.read_retry_steps_us:
            raise ValueError("read_retry_steps_us must not be empty")


class FaultModel:
    """Per-element fault injector with its own counters and event log.

    The counters are the ground truth the end-to-end tests compare FTL and
    device accounting against: every injected fault must show up exactly
    once in the handling layer's books.
    """

    __slots__ = (
        "config", "element_id", "_rng", "_penalty_prefix",
        "program_failures", "erase_failures", "read_transients",
        "read_retry_steps", "log",
    )

    def __init__(self, config: FaultConfig, element_id: int) -> None:
        self.config = config
        self.element_id = element_id
        self._rng = stream(config.seed, f"fault.element.{element_id}")
        # prefix sums of the retry ladder: penalty for k steps is _penalty_prefix[k]
        prefix = [0.0]
        for step in config.read_retry_steps_us:
            prefix.append(prefix[-1] + step)
        self._penalty_prefix = tuple(prefix)
        self.program_failures = 0
        self.erase_failures = 0
        self.read_transients = 0
        self.read_retry_steps = 0
        #: bounded event log: (kind, block, page) tuples in injection order
        self.log: List[Tuple[str, int, int]] = []

    # -- draws (called from FlashElement hot paths, guarded by `is not None`)

    def draw_program_failure(self, block: int, page: int) -> bool:
        if self._rng.random() >= self.config.program_fail_prob:
            return False
        self.program_failures += 1
        if len(self.log) < _LOG_CAP:
            self.log.append(("program", block, page))
        return True

    def draw_erase_failure(self, block: int, erase_count: int) -> bool:
        p = self.config.erase_fail_base_prob * (
            1.0 + self.config.erase_wear_scale * erase_count
        )
        if self._rng.random() >= p:
            return False
        self.erase_failures += 1
        if len(self.log) < _LOG_CAP:
            self.log.append(("erase", block, -1))
        return True

    def draw_read_retries(self, block: int, page: int) -> int:
        """Number of retry steps this read needs (0 = clean read)."""
        if self._rng.random() >= self.config.read_transient_prob:
            return 0
        # each further step needed with probability 1/2, capped at the ladder
        steps = 1
        ladder = len(self._penalty_prefix) - 1
        while steps < ladder and self._rng.random() < 0.5:
            steps += 1
        self.read_transients += 1
        self.read_retry_steps += steps
        if len(self.log) < _LOG_CAP:
            self.log.append(("read", block, page))
        return steps

    def retry_penalty_us(self, steps: int) -> float:
        """Added latency for *steps* retry steps (escalating ladder)."""
        return self._penalty_prefix[steps]

    def counters(self) -> dict:
        return {
            "program_failures": self.program_failures,
            "erase_failures": self.erase_failures,
            "read_transients": self.read_transients,
            "read_retry_steps": self.read_retry_steps,
        }
