"""Tests for unit helpers and the request/completion model."""

from __future__ import annotations

import pytest

from repro.device.interface import Completion, DeviceStats, IORequest, OpType, RequestError
from repro.units import (
    GIB,
    KIB,
    MIB,
    SECTOR,
    align_up,
    mb_per_s,
)


class TestUnits:
    def test_constants(self):
        assert KIB == 1024
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB
        assert SECTOR == 512

    def test_mb_per_s(self):
        assert mb_per_s(MIB, 1_000_000.0) == pytest.approx(1.0)
        assert mb_per_s(MIB, 0.0) == 0.0
        assert mb_per_s(MIB, -5.0) == 0.0

    def test_align_up(self):
        assert align_up(1000, 512) == 1024
        assert align_up(512, 512) == 512
        assert align_up(1, 4096) == 4096


class TestIORequest:
    def test_response_before_completion_raises(self):
        request = IORequest(OpType.READ, 0, 4096)
        with pytest.raises(RequestError):
            _ = request.response_us

    def test_end(self):
        assert IORequest(OpType.READ, 4096, 512).end == 4608

    def test_validate_flush_always_ok(self):
        IORequest(OpType.FLUSH, 0, 0).validate(0)

    def test_validate_bounds(self):
        with pytest.raises(RequestError):
            IORequest(OpType.READ, 0, 4096).validate(2048)
        with pytest.raises(RequestError):
            IORequest(OpType.READ, -512, 512).validate(4096)
        with pytest.raises(RequestError):
            IORequest(OpType.READ, 0, 0).validate(4096)

    @pytest.mark.parametrize("offset,size,message", [
        (0, 0, "request size must be positive, got 0"),
        (-512, -512, "request size must be positive, got -512"),
        (-512, 512, "negative offset -512"),
        (100, 512, r"offset/size must be 512-byte aligned \(offset=100, "
                   r"size=512\)"),
        (512, 100, r"offset/size must be 512-byte aligned \(offset=512, "
                   r"size=100\)"),
        (100, 8192, "offset/size"),  # alignment is checked before capacity
        (2048, 4096, r"request \[2048, 6144\) exceeds capacity 4096"),
    ])
    def test_validate_raises_first_failed_check(self, offset, size, message):
        with pytest.raises(RequestError, match=f"^{message}"):
            IORequest(OpType.WRITE, offset, size).validate(4096)

    @pytest.mark.parametrize("offset,size", [(0, 512), (0, 4096), (3584, 512),
                                             (512.0, 1024)])
    def test_validate_accepts_in_range_aligned(self, offset, size):
        IORequest(OpType.READ, offset, size).validate(4096)

    def test_validate_exempts_flush_from_every_check(self):
        IORequest(OpType.FLUSH, -100, -3).validate(0)

    def test_completion_of(self):
        request = IORequest(OpType.WRITE, 0, 4096, priority=1)
        request.submit_us = 10.0
        request.complete_us = 35.0
        completion = Completion.of(request)
        assert completion.response_us == 25.0
        assert completion.priority == 1
        assert completion.op is OpType.WRITE


class TestDeviceStats:
    def _completed(self, op, size, latency=100.0):
        request = IORequest(op, 0, size)
        request.submit_us = 0.0
        request.complete_us = latency
        return request

    def test_records_by_op(self):
        stats = DeviceStats()
        stats.record(self._completed(OpType.READ, 4096))
        stats.record(self._completed(OpType.WRITE, 8192))
        assert stats.bytes_read == 4096
        assert stats.bytes_written == 8192
        assert stats.reads == 1
        assert stats.writes == 1

    def test_write_amplification_defaults_to_one(self):
        assert DeviceStats().write_amplification == 1.0

    def test_write_amplification_ratio(self):
        stats = DeviceStats()
        stats.record(self._completed(OpType.WRITE, 4096))
        stats.media_bytes_written = 8192
        assert stats.write_amplification == 2.0
