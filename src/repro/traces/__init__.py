"""Trace model and seeded generators: the record type, the pattern suite
on its one emission loop, the paper's synthetic generator, and the
application-shaped workloads.  A record's op is the device's own
:class:`~repro.device.interface.OpType`, so replay submits it as is."""

from repro.traces.record import TraceRecord
from repro.traces.patterns import (Barrier, PatternConfig, Pause, compose,
                                   iter_hot_cold, iter_random, iter_sequential,
                                   iter_snake, iter_strided, iter_zipf,
                                   strided_period)
from repro.traces.synthetic import SyntheticConfig, generate_synthetic

__all__ = [
    "TraceRecord",
    "SyntheticConfig",
    "generate_synthetic",
    "PatternConfig",
    "Barrier",
    "Pause",
    "compose",
    "iter_sequential",
    "iter_random",
    "iter_strided",
    "iter_snake",
    "iter_zipf",
    "iter_hot_cold",
    "strided_period",
]
