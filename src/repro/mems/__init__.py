"""MEMS-based storage model (the MEMS column of Table 1)."""

from repro.mems.device import MEMSStore

__all__ = ["MEMSStore"]
