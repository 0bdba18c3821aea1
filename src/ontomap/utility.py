"""Utility functions on model states and their translation through a map.

Translating a utility through a stochastic map assigns each new state the
expected utility of its mapped distribution: the translated value at state
j is the phi-column-j-weighted average of the original utilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _freeze, _json_int, _json_numbers, _matrix_from_rows, dump_json, load_json
from .objective import OntologyMap


@dataclass(frozen=True)
class UtilityVector:
    """Real-valued utility per hidden state of one model."""

    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self.values, "utility values", 1)
        if not np.all(np.isfinite(v)):
            raise ValueError("utility values must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def translate(u: UtilityVector, mapping: OntologyMap) -> UtilityVector:
    """Push a utility on the map's O0 side forward to its O1 side."""
    if len(u) != mapping.n0:
        raise ValueError(
            f"utility has length {len(u)} but map expects {mapping.n0} source states"
        )
    return UtilityVector(u.values @ mapping.phi)


def read_utility(source) -> UtilityVector:
    def build(doc):
        n = _json_int(doc, "model_states")
        values = doc["values"]
        if not _json_numbers(values):
            raise TypeError(f"'values' must be a list of numbers, got {values!r:.40}")
        if len(values) != n:
            raise ValueError(f"utility declares {n!r:.40} states but lists {len(values)} values")
        return _matrix_from_rows([values], "values")[0]

    return UtilityVector(load_json(source, "utility", build))


def write_utility(u: UtilityVector) -> bytes:
    return dump_json({"model_states": len(u), "values": u.values.tolist()})
