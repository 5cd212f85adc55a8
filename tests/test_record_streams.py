"""Trace-record streams and the record contract, pinned.

The CRCs below were recorded before the record type and the generators'
arrival draws were last reworked; any change to a record's fields, its
RNG draw order or its float arithmetic moves them.  Each CRC covers the
first :data:`N` records of one stream, encoded exactly (``float.hex`` for
times).

* ``iter_synthetic`` (uniform and poisson arrivals),
* every pattern generator the fleet router can name,
* :func:`compose` through :func:`replay_pattern`, whose ``Pause`` re-stamp
  builds a second record per request (captured at the device's front door),
* a fleet :func:`device_stream` (three tenants merged on one device).

The contract tests hold the record's checks, immutability, pickling and
equality, and that an op-keyed dict survives a pickle round trip into a
fresh process (the op enum hashes by identity within a process, so the dict
must be rebuilt by value on load, never by a stored hash).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import zlib
from dataclasses import replace
from itertools import islice

import pytest

import repro
from repro.device.interface import OpType
from repro.fleet.config import FleetConfig, TenantSpec
from repro.fleet.router import _PATTERNS, device_layout, device_stream
from repro.sim.engine import Simulator
from repro.traces.patterns import PatternConfig, compose, iter_random
from repro.traces.record import TraceRecord
from repro.traces.synthetic import SyntheticConfig, iter_synthetic
from repro.workloads.driver import replay_pattern

#: records per pinned stream
N = 2000


#: the op spelling record rows were pinned with, when records carried
#: their own R/W/F op enum; the records are unchanged, so the pins hold
_LETTER = {OpType.READ: "R", OpType.WRITE: "W", OpType.FREE: "F"}


def _crc(rows) -> int:
    """CRC32 of ``(time, op, offset, size, priority)`` rows, exactly;
    ``op`` is already the string to hash."""
    crc = 0
    for time_us, op, offset, size, priority in rows:
        line = f"{float(time_us).hex()},{op},{offset},{size},{priority};"
        crc = zlib.crc32(line.encode(), crc)
    return crc


def _record_rows(records):
    return ((r.time_us, _LETTER[r.op], r.offset, r.size, r.priority)
            for r in islice(records, N))


_SYNTHETIC = {
    "uniform": (SyntheticConfig(count=N, region_bytes=16 << 20,
                                read_fraction=0.3, seq_probability=0.4,
                                priority_fraction=0.1, seed=7),
                157364069),
    "poisson": (SyntheticConfig(count=N, region_bytes=16 << 20,
                                read_fraction=0.5, arrival_process="poisson",
                                seed=11),
                2339426714),
}


@pytest.mark.parametrize("name", sorted(_SYNTHETIC))
def test_iter_synthetic_stream_pinned(name):
    config, crc = _SYNTHETIC[name]
    assert _crc(_record_rows(iter_synthetic(config))) == crc


_PATTERN_CONFIG = PatternConfig(count=N, region_bytes=8 << 20,
                                read_fraction=0.25, priority_fraction=0.2,
                                seed=5, lba_base_bytes=1 << 20)
_PATTERN_ARGS = {"strided": {"stride_bytes": 3 * 4096},
                 "snake": {"window_bytes": 1 << 20},
                 "zipf": {"theta": 1.1}}
_PATTERN_CRC = {
    "hot_cold": 2955036298,
    "random": 1434555530,
    "sequential": 1039639595,
    "snake": 2803393529,
    "strided": 335299259,
    "zipf": 1214598680,
}


@pytest.mark.parametrize("name", sorted(_PATTERN_CRC))
def test_pattern_stream_pinned(name):
    assert sorted(_PATTERNS) == sorted(_PATTERN_CRC)
    config = _PATTERN_CONFIG
    if name == "snake":  # a write+trim pattern
        config = replace(config, read_fraction=0.0)
    records = _PATTERNS[name](config, **_PATTERN_ARGS.get(name, {}))
    assert _crc(_record_rows(records)) == _PATTERN_CRC[name]


class _FrontDoor:
    """A device that only notes what reaches ``submit`` and never
    completes anything."""

    capacity_bytes = 1 << 40

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.seen = []

    def submit(self, request) -> None:
        self.seen.append((self.sim.now, request.op.value, request.offset,
                          request.size, request.priority))


def test_compose_restamp_stream_pinned():
    """Pauses shift later records; barriers restart the timeline.  The
    re-stamped records are read where the device receives them."""
    phase = PatternConfig(count=N // 4, region_bytes=4 << 20,
                          read_fraction=0.5, priority_fraction=0.1, seed=3)
    suite = compose(iter_random(phase),
                    iter_random(replace(phase, seed=4)),
                    compose(iter_random(replace(phase, seed=5)),
                            iter_random(replace(phase, seed=6)),
                            pause_us=1000.0),
                    pause_us=250.0)
    sim = Simulator()
    device = _FrontDoor(sim)
    replay_pattern(sim, device, suite)
    assert len(device.seen) == N
    assert _crc(device.seen) == 1596683526


def test_fleet_device_stream_pinned():
    config = FleetConfig(
        tenants=(
            TenantSpec(name="a", pattern="zipf", count=N, read_fraction=0.7,
                       interarrival_max_us=450.0,
                       pattern_args={"theta": 1.1}),
            TenantSpec(name="b", pattern="hot_cold", count=N,
                       read_fraction=0.4, interarrival_max_us=450.0),
            TenantSpec(name="c", pattern="snake", count=N,
                       interarrival_max_us=450.0, weight=2.0,
                       pattern_args={"window_bytes": 1 << 20}),
        ),
        n_devices=2,
        seed=9,
    )
    placements = device_layout(config, 1, 64 << 20)
    assert _crc(_record_rows(device_stream(config, 1, placements))) \
        == 1431831501


# -- the record contract ------------------------------------------------------


@pytest.mark.parametrize("args, message", [
    ((0.0, OpType.READ, 0, 0), "trace record size must be positive, got 0"),
    ((0.0, OpType.READ, -512, 512),
     "trace record offset must be >= 0, got -512"),
    ((-1.0, OpType.READ, 0, 512),
     "trace record time must be >= 0, got -1.0"),
])
def test_record_checks(args, message):
    with pytest.raises(ValueError) as info:
        TraceRecord(*args)
    assert str(info.value) == message


def test_record_rebuilds_run_the_checks():
    record = TraceRecord(1.0, OpType.READ, 0, 512)
    for rebuild in (lambda: record._replace(size=0),
                    lambda: type(record)._make((1.0, OpType.READ, -1, 512,
                                                0))):
        with pytest.raises(ValueError):
            rebuild()


def test_record_is_immutable():
    record = TraceRecord(1.5, OpType.WRITE, 4096, 512, 1)
    for name in ("time_us", "op", "offset", "size", "priority"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1  # no instance dict to grow
    assert record.end == 4096 + 512


def test_record_fields_defaults_and_equality():
    record = TraceRecord(2.0, OpType.READ, 0, 4096)
    assert (record.time_us, record.op, record.offset, record.size,
            record.priority) == (2.0, OpType.READ, 0, 4096, 0)
    assert record == TraceRecord(2.0, OpType.READ, 0, 4096, 0)
    assert record != TraceRecord(2.0, OpType.READ, 0, 4096, 1)
    assert hash(record) == hash(TraceRecord(2.0, OpType.READ, 0, 4096, 0))
    assert TraceRecord(time_us=2.0, op=OpType.READ, offset=0,
                       size=4096) == record


def test_record_pickle_round_trip():
    records = [TraceRecord(0.25, OpType.FREE, 8192, 4096, 0),
               TraceRecord(7.0, OpType.WRITE, 0, 512, 2)]
    loaded = pickle.loads(pickle.dumps(records))
    assert loaded == records
    assert [type(r) for r in loaded] == [TraceRecord, TraceRecord]
    assert loaded[0].op is OpType.FREE


_CHILD = """
import pickle, sys
from repro.device.interface import OpType
data = pickle.loads(sys.stdin.buffer.read())
assert data["ops"][OpType.WRITE] == 2 and data["ops"][OpType.FLUSH] == 4
assert data["keys"][(OpType.READ, True)] == "read-priority"
data["ops"][OpType.READ] += 10
sys.stdout.buffer.write(pickle.dumps(data))
"""


def test_op_keyed_dict_survives_pickle_between_processes():
    data = {"ops": {op: i for i, op in enumerate(OpType, 1)},
            "keys": {(OpType.READ, True): "read-priority"}}
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _CHILD],
                         input=pickle.dumps(data), capture_output=True,
                         check=True, env=env)
    back = pickle.loads(out.stdout)
    assert back["ops"][OpType.READ] == 11
    assert back["ops"][OpType.WRITE] == 2
    assert back["keys"][(OpType.READ, True)] == "read-priority"
