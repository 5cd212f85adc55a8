"""Flash translation layers.

Two FTL families, matching the device classes the paper measures:

* :class:`repro.ftl.pagemap.PageMappedFTL` — log-structured, page-mapped,
  with background cleaning and wear-leveling.  This is the Agrawal-style
  design the paper's simulated SSD (S4slc_sim) uses and the substrate for
  the informed-cleaning (Table 5) and priority-aware-cleaning (Figure 3)
  experiments.
* :class:`repro.ftl.blockmap.BlockMappedFTL` — block-granularity mapping
  with read-modify-erase-write on partial overwrite; models the low-end
  devices (S2slc/S3slc) whose random writes are worse than an HDD and whose
  striped logical pages produce the Figure 2 saw-tooth.
"""

from repro.ftl.base import BaseFTL, DeviceFullError, FTLStats
from repro.ftl.cleaning import CleaningConfig, Cleaner
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.wearlevel import WearConfig, WearLeveler

__all__ = [
    "BaseFTL",
    "DeviceFullError",
    "FTLStats",
    "CleaningConfig",
    "Cleaner",
    "PageMappedFTL",
    "BlockMappedFTL",
    "WearConfig",
    "WearLeveler",
]
