"""The corridor model family: discrete locations, move left/right, see
which end (if either) you are standing at.

State i moves to i-1 under L and to i+1 under R, with the ends absorbing
in their own direction. The sensor alphabet is fixed at three symbols for
every length (the middle symbol is simply unused at length 2) so corridors
of different lengths share alphabets and can be mapped to each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Alphabet, FiniteStateModel
from .utility import UtilityVector

MOTOR = Alphabet(("L", "R"))
SENSOR = Alphabet(("left-end", "middle", "right-end"))
# Longest corridor built: its two transition matrices take 8 MiB each.
MAX_LENGTH = 1024


@dataclass(frozen=True)
class CorridorSpec:
    length: int

    def __post_init__(self):
        if not 2 <= self.length <= MAX_LENGTH:
            raise ValueError(f"corridor length must be in [2, {MAX_LENGTH}], got {self.length!r}")


def build_corridor(spec: CorridorSpec) -> FiniteStateModel:
    n = spec.length
    left, right = np.eye(n, k=1), np.eye(n, k=-1)
    left[0, 0] = right[-1, -1] = 1.0
    output = np.zeros((3, n))
    output[0, 0] = output[2, -1] = 1.0
    output[1, 1:-1] = 1.0
    return FiniteStateModel(
        n=n, motor=MOTOR, sensor=SENSOR, transitions={"L": left, "R": right}, output=output
    )


def corridor_goal(spec: CorridorSpec) -> UtilityVector:
    """Utility 1 for standing at the right end, 0 elsewhere."""
    values = np.zeros(spec.length)
    values[-1] = 1.0
    return UtilityVector(values)
