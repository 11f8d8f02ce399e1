"""The benchmark's metric names and units, read from ``BENCHMARK.json``.

The end-to-end metrics are reported by every untraced run of every
workload.  The per-layer metrics are reported by every traced run; a
layer a workload does not exercise reads 0 there.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _fill(outcome, values: dict, kind: str, default) -> None:
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, unit in units.items():
        value = values.get(name, default)
        if value is None:
            raise KeyError(f"end-to-end metric {name} was not measured")
        outcome.metric(name, value, unit)


def fill_end_to_end(outcome, values: dict) -> None:
    """Report every end-to-end metric; each must have been measured."""
    _fill(outcome, values, "end_to_end", None)


def fill_layers(outcome, layers: dict) -> None:
    """Report every per-layer metric; layers not exercised read 0."""
    _fill(outcome, layers, "per_layer", 0.0)
