"""Experiment modules, one per paper table/figure, each with its claims
(see :mod:`repro.bench`)."""

__all__ = [
    "table1_contract",
    "table2_bandwidth",
    "swtf_scheduler",
    "figure2_sawtooth",
    "table3_alignment",
    "table4_macro",
    "table5_informed",
    "table6_priority",
    "ablations",
]
