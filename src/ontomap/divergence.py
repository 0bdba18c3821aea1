"""Column-wise Kullback-Leibler divergence between nonnegative matrices.

The left argument holds the "true" distributions, the right the
approximations. Logarithms are natural (nats). To keep the value finite on
the simplex boundary, approximation columns are floored at a small epsilon
and renormalized before the divergence is taken; true-side zeros contribute
exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelValidationError, column_violations


@dataclass(frozen=True)
class SmoothingPolicy:
    """Floor applied to approximation columns before renormalizing."""

    epsilon: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1e-3:
            raise ValueError(f"epsilon must be in (0, 1e-3], got {self.epsilon!r}")


DEFAULT_POLICY = SmoothingPolicy()


def _kl_columns_raw(p: np.ndarray, q: np.ndarray, epsilon: float) -> float:
    """Unchecked core; p must already be column-stochastic, q nonnegative.

    math.fsum makes the result independent of term order, so identically
    permuting the columns of both arguments changes nothing, exactly.
    """
    qf = np.maximum(q, epsilon)
    qf = qf / qf.sum(axis=0, keepdims=True)
    mask = p > 0
    return math.fsum(p[mask] * np.log(p[mask] / qf[mask]))


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
    return _kl_columns_raw(p, q, policy.epsilon)
