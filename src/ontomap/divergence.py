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
from typing import NamedTuple

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


# Stacks of at most this many entries are summed by one math.fsum call per
# segment, read through a memoryview; larger ones by the extraction below.
# Measured crossover of PairObjective.totals (2 cores, one BLAS thread,
# numpy 2.4), extraction time over loop time: 1.18 at 648 entries and 0.99
# at 868 for one dense pair (6 segments); 1.04 at 270 and 0.98 at 324 for
# stacks of 4x5 corridor pairs (6 segments each), whose many short segments
# make the loop dearer.
FSUM_LOOP_MAX_ENTRIES = 768


class _Segments(NamedTuple):
    """Consecutive non-empty segments of a row, indexed for ``_fsums``."""

    slices: list[tuple[int, int]]  # (start, stop) of each segment
    starts: np.ndarray  # the start of each segment
    lengths: np.ndarray  # the length of each segment
    shift: int  # M, the least integer with 2**M >= longest segment + 2


def _segments(lengths) -> _Segments:
    """The index arrays of segments of the given (positive) lengths."""
    lengths = np.asarray(lengths, dtype=np.intp)
    stops = np.cumsum(lengths)
    starts = stops - lengths
    return _Segments(
        slices=list(zip(starts.tolist(), stops.tolist())),
        starts=starts,
        lengths=lengths,
        shift=(int(lengths.max()) + 1).bit_length(),
    )


def _fsums(x: np.ndarray, seg: _Segments) -> list[list[float]]:
    """``[[math.fsum(row[a:b]) for a, b in seg.slices] for row in x]`` for a
    C-contiguous float matrix ``x``, bit for bit.

    Stacks above FSUM_LOOP_MAX_ENTRIES entries are summed by error-free
    extraction (Rump, Ogita & Oishi, "Accurate floating-point summation",
    SIAM J. Sci. Comput. 2008) in a fixed number of numpy passes. Why each
    certified value is exact, with u = 2**-53 and L + 2 <= 2**M for the
    longest segment length L:

    * Extraction. For a power of two sigma >= 2**M * max|x_i| (no overflow,
      no underflow), q_i = fl(fl(sigma + x_i) - sigma) and x_i - q_i are
      exact, |x_i - q_i| <= u * sigma, every q_i is a multiple of
      u * sigma and |q_i| <= 2**-M * sigma. So every partial sum of the
      q_i is a multiple of u * sigma below sigma in magnitude: a float.
      The per-segment sums tau of the q_i are therefore exact in any
      order, and ``np.add.reduceat`` may form them.
    * Two levels. Level one takes sigma1 = 2**(exponent(mu) + 1 + M) for
      the segment's largest magnitude mu; level two extracts the level-one
      residuals, which are at most u * sigma1 = 2**-M * sigma2, with
      sigma2 = sigma1 * 2**(M - 53). The exact sum is
      S = tau1 + tau2 + R, with R the sum of the level-two residuals r_i.
    * Certificate. TwoSum gives c + d = tau1 + tau2 exactly, with
      c = fl(tau1 + tau2). If every r_i is 0 then S = tau1 + tau2 and c is
      its round-half-even value, ties included. Otherwise, with a the
      computed sum of |r_i| and t = fl(d + fl(sum r_i)), any summation
      order gives |d + R| <= |t| * (1 + u) + 2 * L * u * a. The bound is
      evaluated with slack for its own rounding (and 2**-1070 for
      underflow); when it is below half the smaller float spacing at c,
      S rounds to c and no tie is possible.
    * Fallback. Segments whose c is 0 (fsum's sign of zero), whose
      entries are not finite, whose sigmas would overflow or whose
      residual unit would be subnormal, and uncertified segments are
      summed by math.fsum.
    """
    if x.size <= FSUM_LOOP_MAX_ENTRIES:
        # math.fsum reads a memoryview's floats without building a list.
        return [[math.fsum(row[a:b]) for a, b in seg.slices] for row in map(memoryview, x)]
    m = seg.shift
    mu = np.maximum.reduceat(np.abs(x), seg.starts, axis=1)
    # Biased exponent of sigma1; mu >= 0, and inf or NaN has 2047. In range,
    # sigma1 is finite and sigma2's residual unit 2**(m - 106) * sigma1 is
    # normal; segments out of range extract with sigma1 = 1 and fall back.
    e1 = (mu.view(np.int64) >> 52) + (1 + m)
    ok = (e1 <= 2046) & (e1 >= 107 - m)
    sigma = np.repeat((np.where(ok, e1, 1023) << 52).view(np.float64), seg.lengths, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        q = sigma + x
        q -= sigma
        r = x - q
        tau1 = np.add.reduceat(q, seg.starts, axis=1)
        sigma *= 2.0 ** (m - 53)
        np.add(sigma, r, out=q)
        q -= sigma
        r -= q
        tau2 = np.add.reduceat(q, seg.starts, axis=1)
        c = tau1 + tau2
        ok &= c != 0
        if r.any():
            z = c - tau1
            d = (tau1 - (c - z)) + (tau2 - z)
            a = np.add.reduceat(np.abs(r), seg.starts, axis=1)
            t = np.abs(d + np.add.reduceat(r, seg.starts, axis=1))
            # Twice the bound against the smaller float spacing at c, which
            # is the one below |c|.
            bound = t * (2 + 2.0**-49) + a * 2.0 ** (m - 50) + 2.0**-1069
            ok &= (a == 0) | (bound < np.abs(c - np.nextafter(c, 0.0)))
    out = c.tolist()
    if not ok.all():
        for i, j in zip(*np.nonzero(~ok)):
            start, stop = seg.slices[j]
            out[i][j] = math.fsum(x[i, start:stop].tolist())
    return out


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
