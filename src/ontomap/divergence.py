"""Column-wise Kullback-Leibler divergence between nonnegative matrices.

The left argument holds the "true" distributions, the right the
approximations. Logarithms are natural (nats). To keep the value finite on
the simplex boundary, approximation columns are floored at a small epsilon
and renormalized before the divergence is taken; true-side zeros contribute
exactly 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelValidationError, column_violations


@dataclass(frozen=True)
class SmoothingPolicy:
    """Floor applied to approximation columns before renormalizing."""

    epsilon: float = 1e-9

    def __post_init__(self):
        # At least the smallest normal float, so that p / q stays finite.
        if not sys.float_info.min <= self.epsilon <= 1e-3:
            raise ValueError(f"epsilon must be in [2**-1022, 1e-3], got {self.epsilon!r}")


DEFAULT_POLICY = SmoothingPolicy()


def _smooth(q: np.ndarray, epsilon: float) -> np.ndarray:
    """``q`` floored at ``epsilon``, each column (axis -2) renormalized."""
    qf = np.maximum(q, epsilon)
    return qf / qf.sum(axis=-2, keepdims=True)


def _smooth_column(q: np.ndarray, j: int, epsilon: float) -> np.ndarray:
    """``_smooth(q, epsilon)[..., j]``, bit for bit, smoothing column j alone.

    ``sum(axis=-2)`` adds a matrix's rows in order, and so does the
    accumulation here; ``sum`` of a lone column would add it pairwise. A
    matrix of one column is smoothed whole, as ``_smooth`` reduces it.
    """
    if q.shape[-1] == 1:
        return _smooth(q, epsilon)[..., 0]
    qf = np.maximum(q[..., j], epsilon)
    return qf / np.add.accumulate(qf, axis=-1)[..., -1:]


def _kl_entries(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-entry KL contributions of positive true entries ``p``."""
    return p * np.log(p / q)


def _fsums(x: np.ndarray, slices: list[tuple[int, int]]) -> list[list[float]]:
    """``math.fsum`` of each (start, stop) segment of each row of a
    C-contiguous float matrix ``x``: correctly rounded sums."""
    # math.fsum reads a memoryview's floats without building a list.
    return [[math.fsum(row[a:b]) for a, b in slices] for row in map(memoryview, x)]


def kl_columns(p, q, policy: SmoothingPolicy = DEFAULT_POLICY) -> float:
    """Sum over columns of KL(p_col || q_col), in nats.

    p columns must be probability distributions; q need only be finite and
    nonnegative (its columns are floored at policy.epsilon and renormalized). Always
    finite; nonnegative up to O(epsilon * ln epsilon) smoothing slack.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    if q.ndim == 1:
        q = q[:, None]
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    violations = column_violations("true side", p)
    if violations:
        raise ModelValidationError(violations)
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError("approximation matrix has non-finite or negative entries")
    # math.fsum makes the result independent of term order, so identically
    # permuting the columns of both arguments changes nothing, exactly.
    mask = p > 0
    return math.fsum(_kl_entries(p[mask], _smooth(q, policy.epsilon)[mask]))
