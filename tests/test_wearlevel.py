"""Static wear-leveling edges: target selection, retired blocks, races.

These drive :meth:`WearLeveler._maybe_migrate` directly against a crafted
single-element page-mapped FTL, so each edge — most-worn destination,
retired blocks excluded from the spread, a migration racing the cleaner,
and a burn-abandoned migration — is exercised in isolation.
"""

from __future__ import annotations

import numpy as np

from repro.flash.element import FlashElement, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.wearlevel import WearConfig
from repro.sim.engine import Simulator

_PPB = 4


def _aged_ftl(threshold=10):
    """One-element FTL with two full blocks: slots 0-3 in the first pulled
    block (cold, candidate source) and slots 4-7 in the current frontier."""
    sim = Simulator()
    geom = FlashGeometry(page_bytes=4096, pages_per_block=_PPB,
                         blocks_per_element=16)
    el = FlashElement(sim, geom, FlashTiming.slc(), element_id=0)
    ftl = PageMappedFTL(sim, [el], spare_fraction=0.25,
                        wear=WearConfig(static=True,
                                        spread_threshold=threshold,
                                        check_every_erases=1))
    for slot in range(8):
        ftl.write(slot * 4096, 4096)
    sim.run_until_idle()
    source = ftl.mapped_ppn(0) // _PPB
    assert el.write_ptr[source] == _PPB  # full: a migration candidate
    assert source not in ftl.frontier_blocks(0)
    return sim, el, ftl, source


def _stretch_spread(ftl, el, worn_block, count=100):
    """Give one free-pool block a high erase count."""
    el.erase_count[worn_block] = count


class TestStaticMigration:
    def test_migrates_into_most_worn_free_block(self):
        sim, el, ftl, source = _aged_ftl()
        pool = list(ftl._pool[0])
        worn, runner_up = pool[0], pool[1]
        _stretch_spread(ftl, el, worn, 100)
        el.erase_count[runner_up] = 40

        ftl.wear_leveler._maybe_migrate(0)
        sim.run_until_idle()

        # all four cold pages moved into the *most*-worn erased block
        assert ftl.stats.wear_migrations == 1
        assert ftl.stats.wear_pages_moved == _PPB
        for slot in range(4):
            assert ftl.mapped_ppn(slot) // _PPB == worn
        # the lightly-worn source was erased and returned to rotation
        assert el.valid_count[source] == 0
        assert source in list(ftl._pool[0])
        assert not ftl.wear_leveler._migrating[0]
        ftl.check_consistency()

    def test_balanced_spread_does_not_migrate(self):
        sim, el, ftl, source = _aged_ftl(threshold=10)
        _stretch_spread(ftl, el, list(ftl._pool[0])[0], 10)  # == threshold
        ftl.wear_leveler._maybe_migrate(0)
        sim.run_until_idle()
        assert ftl.stats.wear_migrations == 0

    def test_retired_blocks_excluded_from_spread(self):
        sim, el, ftl, source = _aged_ftl(threshold=10)
        # the only wear outlier is a grown bad block: it is out of
        # circulation, so its count must not trigger (or absorb) migrations
        outlier = ftl.frontier_blocks(0)[0]
        el.erase_count[outlier] = 1000
        el.retired[outlier] = True

        ftl.wear_leveler._maybe_migrate(0)
        sim.run_until_idle()
        assert ftl.stats.wear_migrations == 0

        # un-retiring it re-exposes the spread and migration proceeds
        el.retired[outlier] = False
        ftl.wear_leveler._maybe_migrate(0)
        sim.run_until_idle()
        assert ftl.stats.wear_migrations == 1
        ftl.check_consistency()

    def test_migration_skips_block_being_cleaned(self):
        sim, el, ftl, source = _aged_ftl()
        _stretch_spread(ftl, el, list(ftl._pool[0])[0], 100)
        # the cleaner got to the cold block first: the leveler must not
        # move pages out from under an in-flight clean
        ftl.cleaner.being_cleaned[0].add(source)
        ftl.wear_leveler._maybe_migrate(0)
        sim.run_until_idle()
        assert ftl.stats.wear_migrations == 0
        assert el.valid_count[source] == _PPB  # untouched

        ftl.cleaner.being_cleaned[0].discard(source)
        ftl.wear_leveler._maybe_migrate(0)
        sim.run_until_idle()
        assert ftl.stats.wear_migrations == 1
        assert el.valid_count[source] == 0
        ftl.check_consistency()

    def test_migration_shields_source_until_erase_completes(self):
        sim, el, ftl, source = _aged_ftl()
        _stretch_spread(ftl, el, list(ftl._pool[0])[0], 100)
        ftl.wear_leveler._maybe_migrate(0)
        # before the erase completes on the clock, the source is shielded
        # from the cleaner and the migration is marked in progress
        assert source in ftl.cleaner.being_cleaned[0]
        assert ftl.wear_leveler._migrating[0]
        sim.run_until_idle()
        assert source not in ftl.cleaner.being_cleaned[0]
        assert not ftl.wear_leveler._migrating[0]


class _BurnFirstCopy:
    """Scripted fault model: fail the first copy's program half."""

    def __init__(self, failures=1):
        self.failures = failures

    def draw_program_failure(self, block, page):
        if self.failures:
            self.failures -= 1
            return True
        return False

    def draw_erase_failure(self, block, erase_count):
        return False

    def draw_read_retries(self, block, page):
        return 0


class TestMigrationUnderFaults:
    def test_burned_destination_page_is_skipped(self):
        sim, el, ftl, source = _aged_ftl()
        pool = list(ftl._pool[0])
        _stretch_spread(ftl, el, pool[0], 100)
        el.fault_model = _BurnFirstCopy(failures=1)
        ftl.wear_leveler._maybe_migrate(0)
        sim.run_until_idle()
        el.fault_model = None

        # destination page 0 burned; only 3 of 4 pages fit, so the last
        # source page stays valid and the migration is abandoned (erase
        # deferred to the cleaner) without losing any mapping
        assert ftl.stats.program_failures == 1
        assert ftl.stats.wear_pages_moved == 3
        assert el.valid_count[source] == 1
        assert source not in ftl.cleaner.being_cleaned[0]
        assert not ftl.wear_leveler._migrating[0]
        ftl.check_consistency()
