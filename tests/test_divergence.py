import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontomap.divergence
from conftest import random_model
from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.divergence import SmoothingPolicy, _fsums, _segments, kl_columns
from ontomap.model import Alphabet
from ontomap.objective import PairObjective
from ontomap.optimizer import OptimizerConfig, optimize
from ontomap.oracle import oracle_search


def test_policy_range():
    with pytest.raises(ValueError):
        SmoothingPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        SmoothingPolicy(epsilon=0.01)
    SmoothingPolicy(epsilon=1e-3)


def test_identical_matrices_zero():
    p = np.array([[0.4, 0.1], [0.6, 0.9]])
    assert kl_columns(p, p) <= 1e-12


def test_single_column_hand_value():
    # KL((1,0) || (0.5,0.5)) = 1*ln(1/0.5) = ln 2
    p = np.array([[1.0], [0.0]])
    q = np.array([[0.5], [0.5]])
    assert kl_columns(p, q) == pytest.approx(math.log(2), abs=1e-9)


def test_two_column_hand_value():
    # col1: 1*ln(1/0.9) ; col2: 1*ln(1/0.8)
    p = np.eye(2)
    q = np.array([[0.9, 0.2], [0.1, 0.8]])
    expected = -math.log(0.9) - math.log(0.8)
    assert kl_columns(p, q) == pytest.approx(expected, abs=1e-9)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        kl_columns(np.eye(2), np.eye(3))


def test_true_side_must_be_distribution():
    with pytest.raises(ValueError):
        kl_columns(np.array([[0.5], [0.4]]), np.array([[0.5], [0.5]]))


def test_finite_with_zero_denominator():
    p = np.array([[1.0], [0.0]])
    q = np.array([[0.0], [1.0]])
    v = kl_columns(p, q)
    assert math.isfinite(v)
    assert v > 0


def _random_stochastic(rng, rows, cols, interior=False):
    m = rng.standard_exponential((rows, cols))
    if interior:
        m += 0.05
    return m / m.sum(axis=0, keepdims=True)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 6),
    cols=st.integers(1, 6),
)
def test_identity_property(seed, rows, cols):
    rng = np.random.default_rng(seed)
    p = _random_stochastic(rng, rows, cols, interior=True)
    assert kl_columns(p, p) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 6),
    cols=st.integers(1, 6),
)
def test_nonnegativity_and_finiteness(seed, rows, cols):
    rng = np.random.default_rng(seed)
    p = _random_stochastic(rng, rows, cols)
    q = rng.standard_exponential((rows, cols))
    q[rng.random((rows, cols)) < 0.3] = 0.0  # exercise zero entries
    policy = SmoothingPolicy()
    v = kl_columns(p, q, policy)
    assert math.isfinite(v)
    assert v >= -rows * cols * policy.epsilon


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 5), cols=st.integers(2, 5))
def test_column_permutation_invariance(seed, rows, cols):
    rng = np.random.default_rng(seed)
    p = _random_stochastic(rng, rows, cols)
    q = _random_stochastic(rng, rows, cols)
    perm = rng.permutation(cols)
    assert kl_columns(p[:, perm], q[:, perm]) == kl_columns(p, q)


def _segment_entries(rng, family: str, rows: int, length: int) -> np.ndarray:
    """A (rows, length) block of one adversarial family of entries."""
    if family == "mixed":  # magnitudes from 1e-300 to 1e300
        return rng.standard_normal((rows, length)) * 10.0 ** rng.integers(-300, 301, (rows, length))
    if family == "huge":  # sums near the largest float: extraction constants overflow
        return rng.uniform(0.5, 1.0, (rows, length)) * (2.0**1022 / length)
    if family == "nonfinite":
        return rng.choice([math.inf, math.nan, 1.0], (rows, length), p=[0.01, 0.01, 0.98])
    if family == "zeros":  # signed zeros: fsum decides the sign of a zero sum
        return rng.choice([0.0, -0.0], (rows, length))
    if family == "subnormal":
        return rng.integers(-(2**20), 2**20, (rows, length)) * 2.0**-1074
    if family == "cancel":  # each row sums to exactly 0
        half = rng.standard_normal((rows, length // 2)) * 2.0 ** rng.integers(-40, 41, (rows, length // 2))
        block = np.concatenate([half, -half, np.zeros((rows, length % 2))], axis=1)
        return rng.permuted(block, axis=1)
    if family == "ties":  # sums that land half-way between two floats
        return rng.choice([2.0**53, 1.0, -1.0, 0.5, 2.0**-53, -(2.0**-53), 3 * 2.0**-53], (rows, length))
    # KL-like p*log(p/q), with p and q on the 0.05 grid or continuous
    if family == "kl-grid":
        p = rng.integers(1, 21, (rows, length)) * 0.05
        q = rng.integers(0, 21, (rows, length)) * 0.05 + 1e-9
    else:
        p = rng.random((rows, length)) + 1e-12
        q = rng.random((rows, length)) + 1e-9
    return p * np.log(p / q)


FAMILIES = ("mixed", "huge", "nonfinite", "zeros", "subnormal", "cancel", "ties", "kl-grid", "kl")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    lengths=st.lists(st.one_of(st.integers(1, 40), st.integers(1, 5000)), min_size=1, max_size=7),
    families=st.lists(st.sampled_from(FAMILIES), min_size=7, max_size=7),
)
def test_fsums_equal_math_fsum_bitwise(seed, rows, lengths, families):
    # The extraction path (forced here at every size) must return exactly
    # what math.fsum returns for each segment, sign of zero included.
    rng = np.random.default_rng(seed)
    x = np.ascontiguousarray(
        np.concatenate([_segment_entries(rng, f, rows, n) for f, n in zip(families, lengths)], axis=1)
    )
    seg = _segments(lengths)
    want = [[math.fsum(row[a:b]).hex() for a, b in seg.slices] for row in x.tolist()]
    with mock.patch.object(ontomap.divergence, "FSUM_LOOP_MAX_ENTRIES", 0):
        got = _fsums(x, seg)
    assert [[v.hex() for v in row] for row in got] == want
    assert [[v.hex() for v in row] for row in _fsums(x, seg)] == want


def test_extraction_rarely_falls_back(monkeypatch):
    # Certified segments need no math.fsum call; on the entries of the
    # oracle's grid maps and of a dense 16x32 climb at most 1 % of segments
    # may fall back. The oracle and the climber sum few rows exactly, so
    # every stack they score is summed here.
    count = {"segments": 0, "fallbacks": 0}
    real_entries, real_fsum = PairObjective.entries, math.fsum

    def counting_fsum(values):
        count["fallbacks"] += 1
        return real_fsum(values)

    def summing_entries(self, phi, phi_inv):
        x = real_entries(self, phi, phi_inv)
        count["segments"] += x.shape[0] * len(self.segments.slices)
        with mock.patch.object(math, "fsum", counting_fsum):
            _fsums(x, self.segments)
        return x

    monkeypatch.setattr(ontomap.divergence, "FSUM_LOOP_MAX_ENTRIES", 0)
    monkeypatch.setattr(PairObjective, "entries", summing_entries)
    c2 = build_corridor(CorridorSpec(2))
    oracle_search(c2, c2, 0.1)
    rng = np.random.default_rng(0)
    motor, sensor = Alphabet(("a", "b")), Alphabet(("s1", "s2", "s3"))
    o0, o1 = random_model(rng, 16, motor, sensor), random_model(rng, 32, motor, sensor)
    optimize(o0, o1, OptimizerConfig(seed=0, restarts=2, max_iters=300))
    assert count["segments"] > 50_000
    assert count["fallbacks"] <= 0.01 * count["segments"]
