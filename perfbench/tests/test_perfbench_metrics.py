"""Metric-name validation and the benchmark specification."""

import json
import math
import os

import pytest

from perfbench import ROOT, tracing
from perfbench.run import NAME, UNIT, declared_metrics, validate_metrics

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def test_validate_accepts_exactly_the_declared_metrics():
    declared = {"latency_ms": "ms", "setup_s": "s"}
    out = validate_metrics({"latency_ms": 1.5, "setup_s": 2}, declared)
    assert out == {"latency_ms": {"value": 1.5, "unit": "ms"},
                   "setup_s": {"value": 2, "unit": "s"}}


@pytest.mark.parametrize("values", [
    {"latency_ms": 1.0},                                  # missing
    {"latency_ms": 1.0, "setup_s": 1.0, "extra": 1.0},    # undeclared
    {"latency_ms": math.nan, "setup_s": 1.0},             # not finite
    {"latency_ms": True, "setup_s": 1.0},                 # not a number
    {"latency_ms": "1", "setup_s": 1.0},
])
def test_validate_rejects_a_wrong_metric_set_or_value(values):
    with pytest.raises(ValueError):
        validate_metrics(values, {"latency_ms": "ms", "setup_s": "s"})


@pytest.mark.parametrize("name,unit", [
    ("_leading", "s"), ("has space", "s"), ("x" * 65, "s"),
    ("ok", "bad unit"), ("ok", "u" * 17),
])
def test_validate_rejects_malformed_names_and_units(name, unit):
    with pytest.raises(ValueError):
        validate_metrics({name: 1.0}, {name: unit})


def test_spec_declares_the_tracer_catalog_and_well_formed_names():
    catalog = tracing.per_layer_catalog()
    assert declared_metrics(trace=True) == {
        name: unit for name, (unit, _) in catalog.items()}
    assert [m["better"] for m in SPEC["per_layer"]] == \
        [better for _, better in catalog.values()]
    names = [m["name"] for group in ("end_to_end", "per_layer", "workloads")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


def test_spec_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
