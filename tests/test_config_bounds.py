"""Every config refuses a bad numeric value when it is built.

The config dataclasses declare each numeric field's range with
:func:`repro.checks.bounded`, and :class:`repro.checks.Checked` enforces
it at construction.  These tests hold the whole set to that contract:

* a registry test: every frozen dataclass under ``src/repro`` with a
  numeric field is either a registered config or excluded with a reason,
  and every numeric field of a registered config declares a bound;
* a hypothesis test: NaN, ±inf, a value just past each bound, and any
  value beyond a bound raise ``ValueError`` naming the field;
* the NaN / −1 / +inf probe over every float field, which accepts only
  what a declared bound deliberately admits;
* the rules that relate fields, and the family names, each refused when
  the config is built.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.array.raid import RAID5Config
from repro.checks import BOUND, Bound, Checked
from repro.core.object import ObjectAttributes
from repro.device.ssd_config import SSDConfig
from repro.flash.faults import FaultConfig
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.fleet.config import FleetConfig, TenantSpec
from repro.ftl.cleaning import CleaningConfig
from repro.ftl.wearlevel import WearConfig
from repro.hdd.disk import HDDConfig
from repro.hdd.seek import SeekModel
from repro.traces.exchange import ExchangeConfig
from repro.traces.iozone import IOzoneConfig
from repro.traces.patterns import Pause, PatternConfig
from repro.traces.postmark import PostmarkConfig
from repro.traces.synthetic import SyntheticConfig
from repro.traces.tpcc import TPCCConfig
from repro.validation.write_amp import WAConfig

#: the checked configs, each with the arguments it cannot be built without
REGISTRY = {
    SSDConfig: {},
    FlashGeometry: {},
    FlashTiming: {},
    FaultConfig: {},
    CleaningConfig: {},
    WearConfig: {},
    TenantSpec: {"name": "t"},
    FleetConfig: {"tenants": (TenantSpec(name="t"),)},
    PatternConfig: {},
    Pause: {"delta_us": 1.0},
    SyntheticConfig: {},
    PostmarkConfig: {},
    IOzoneConfig: {},
    TPCCConfig: {},
    ExchangeConfig: {},
    HDDConfig: {},
    SeekModel: {},
    RAID5Config: {},
    ObjectAttributes: {},
    WAConfig: {},
}

#: frozen dataclasses with numeric fields that are not configs
EXCLUDED = {
    "repro.analysis.findings.Finding": "a lint finding's source position",
    "repro.bench.experiments.table2_bandwidth.Probe":
        "the experiment's own fixed probe list, never user input",
    "repro.core.allocator.Extent": "checks its own start and length",
    "repro.core.contract.TermVerdict": "a result record",
    "repro.flash.wear.WearSummary": "a result record",
    "repro.fleet.router.TenantPlacement":
        "derived by the router from a checked FleetConfig",
    "repro.hdd.geometry.Zone": "checks its own fields",
    "repro.hdd.geometry.Location": "derived by DiskGeometry.locate",
    "repro.sim.stats.LatencySummary": "a result record",
    "repro.validation.write_amp.WAMeasurement": "a result record",
    "repro.workloads.microbench.MicrobenchResult": "a result record",
}

#: values of the NaN / -1 / +inf probe that a declared bound admits on
#: purpose, as ``(class, field, value) -> reason``.  No bound admits any:
#: every float field is finite, and none may be negative.
ADMITTED: dict = {}

_NUMERIC = re.compile(r"\b(int|float)\b")


def _numeric_fields(cls):
    return [f for f in dataclasses.fields(cls) if _NUMERIC.search(str(f.type))]


def _is_float(spec) -> bool:
    return "float" in str(spec.type)


def _as_field_value(spec, value):
    """A tuple field (the retry ladder) gets *value* as its one entry."""
    return (value,) if "Tuple" in str(spec.type) else value


def _build(cls, spec, value):
    return cls(**{**REGISTRY[cls], spec.name: _as_field_value(spec, value)})


def _shown(value) -> str:
    return "NaN" if isinstance(value, float) and math.isnan(value) else str(value)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _repro_dataclasses():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_numeric_frozen_dataclass_is_registered_or_excluded():
    found = {cls for cls in _repro_dataclasses()
             if cls.__dataclass_params__.frozen and _numeric_fields(cls)}
    unlisted = sorted(f"{cls.__module__}.{cls.__qualname__}"
                      for cls in found - set(REGISTRY)
                      if f"{cls.__module__}.{cls.__qualname__}" not in EXCLUDED)
    assert not unlisted, (
        f"{unlisted}: derive from repro.checks.Checked, declare each numeric "
        "field with bounded() and add the class to REGISTRY, or add it to "
        "EXCLUDED with the reason it needs no checks")
    stale = sorted(set(EXCLUDED) - {f"{c.__module__}.{c.__qualname__}"
                                    for c in found})
    assert not stale, f"{stale}: excluded but gone or no longer numeric"


def test_checked_subclasses_are_the_registry():
    checked = {cls for cls in _repro_dataclasses() if issubclass(cls, Checked)}
    assert checked == set(REGISTRY)


@pytest.mark.parametrize("cls", list(REGISTRY), ids=lambda c: c.__name__)
def test_every_numeric_field_declares_a_bound(cls):
    undeclared = [f.name for f in _numeric_fields(cls)
                  if not isinstance(f.metadata.get(BOUND), Bound)]
    assert not undeclared, f"{cls.__name__}: {undeclared} declare no bound"


@pytest.mark.parametrize("cls", list(REGISTRY), ids=lambda c: c.__name__)
def test_defaults_construct(cls):
    cls(**REGISTRY[cls])


# ---------------------------------------------------------------------------
# out-of-range values are refused, naming the field
# ---------------------------------------------------------------------------


def _past(limit, is_float, direction):
    """The first value beyond *limit* in *direction* (-1 below, +1 above)."""
    if is_float:
        return math.nextafter(limit, direction * math.inf)
    return limit + direction


def _corners(bound: Bound, is_float: bool):
    """NaN, ±inf, and the first value past each limit of *bound*."""
    values = [math.nan, math.inf, -math.inf]
    if bound.ge is not None:
        values.append(_past(bound.ge, is_float, -1))
    if bound.gt is not None:
        values.append(bound.gt)
    if bound.le is not None:
        values.append(_past(bound.le, is_float, +1))
    if bound.lt is not None:
        values.append(bound.lt)
    return values


def _beyond(bound: Bound, is_float: bool):
    """Any value outside *bound*: a corner, or any finite value past a
    limit."""
    def below(limit, inclusive):
        if is_float:
            return st.floats(max_value=limit, exclude_max=not inclusive,
                             allow_nan=False, allow_infinity=False)
        return st.integers(max_value=limit if inclusive else limit - 1)

    def above(limit, inclusive):
        if is_float:
            return st.floats(min_value=limit, exclude_min=not inclusive,
                             allow_nan=False, allow_infinity=False)
        return st.integers(min_value=limit if inclusive else limit + 1)

    strategies = [st.sampled_from(_corners(bound, is_float))]
    if bound.ge is not None:
        strategies.append(below(bound.ge, inclusive=False))
    if bound.gt is not None:
        strategies.append(below(bound.gt, inclusive=True))
    if bound.le is not None:
        strategies.append(above(bound.le, inclusive=False))
    if bound.lt is not None:
        strategies.append(above(bound.lt, inclusive=True))
    return st.one_of(strategies)


def _refused(cls, spec, value):
    message = rf"^{spec.name} must be .*, got {re.escape(_shown(value))}$"
    with pytest.raises(ValueError, match=message):
        _build(cls, spec, value)


_CASES = [(cls, spec) for cls in REGISTRY for spec in _numeric_fields(cls)]


@st.composite
def _bad_value(draw):
    cls, spec = draw(st.sampled_from(_CASES))
    return cls, spec, draw(_beyond(spec.metadata[BOUND], _is_float(spec)))


@settings(max_examples=500, deadline=None)
@given(_bad_value())
def test_out_of_range_value_refused_naming_the_field(case):
    _refused(*case)


@pytest.mark.parametrize("cls, spec", _CASES,
                         ids=[f"{c.__name__}.{s.name}" for c, s in _CASES])
def test_every_corner_refused_for_every_field(cls, spec):
    """The hypothesis test's corners, each one for every field."""
    for value in _corners(spec.metadata[BOUND], _is_float(spec)):
        _refused(cls, spec, value)


def test_nan_probe_accepts_only_what_a_bound_admits():
    """Every float field set to NaN, -1 and +inf.  Before the fields
    declared bounds, 78 of these 147 constructions were accepted, in 13
    classes (``SSDConfig(host_interface_mb_s=nan)`` failed only inside
    the run); now only the ``ADMITTED`` ones are."""
    accepted, tried = set(), 0
    for cls in REGISTRY:
        for spec in _numeric_fields(cls):
            if not _is_float(spec):
                continue
            for value in (math.nan, -1.0, math.inf):
                tried += 1
                try:
                    _build(cls, spec, value)
                except ValueError:
                    continue
                accepted.add((cls, spec.name, _shown(value)))
    assert tried and accepted == set(ADMITTED)


# ---------------------------------------------------------------------------
# rules that relate fields, and names
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: TPCCConfig(region_bytes=(16 << 20) + 4096),
                 r"^the region outside the log area must hold one table page: "
                 r"region_bytes - log_region_bytes must be >= 8192, got 4096$",
                 id="TPCCConfig-no-table-page"),
    pytest.param(lambda: ExchangeConfig(region_bytes=4096),
                 r"^region_bytes must hold one page of 8192 bytes, got 4096$",
                 id="ExchangeConfig-region-under-a-page"),
    pytest.param(lambda: WAConfig(low_watermark=0.01, critical_watermark=0.02),
                 r"^critical_watermark must be <= low_watermark, "
                 r"got critical=0\.02 low=0\.01$",
                 id="WAConfig-critical-over-low"),
    pytest.param(lambda: SSDConfig(ftl_type="hybrid"),
                 r"^ftl_type must be one of \('pagemap', 'blockmap'\)$",
                 id="SSDConfig-unknown-ftl-type"),
])
def test_cross_field_rule_refused_when_built(build, message):
    """Each config passes every field bound but breaks a rule that relates
    fields (or names a family that does not exist); building it fails at
    once, not later inside generation or a measurement."""
    with pytest.raises(ValueError, match=message):
        build()
