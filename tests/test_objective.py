import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import permuted_copy, published_corridor_map, random_model, reference_terms
from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.model import Alphabet, FiniteStateModel, ModelValidationError
from ontomap.objective import OntologyMap, PairObjective, evaluate, read_map, write_map
from ontomap.optimizer import OptimizerConfig, hill_climb, optimize
from ontomap.oracle import grid_step_variation, oracle_search

# Objective of the published corridor 4<->5 map under this implementation,
# frozen at first computation as a regression constant.
PUBLISHED_MAP_TOTAL = 6.868154495913968

MOTOR = Alphabet(("a", "b"))
SENSOR = Alphabet(("s1", "s2"))


def test_map_invariants():
    with pytest.raises(ValueError):
        OntologyMap(phi=[[0.5], [0.4]], phi_inv=[[1.0, 1.0]])
    with pytest.raises(ValueError):
        OntologyMap(phi=np.eye(2), phi_inv=np.eye(3))
    # A map between empty state spaces has no columns to check.
    with pytest.raises(ValueError, match="nonempty matrix"):
        OntologyMap(phi=np.zeros((0, 0)), phi_inv=np.zeros((0, 0)))


def test_identity_map_on_same_model():
    # interior entries keep the map clear of the smoothing floor
    rng = np.random.default_rng(0)
    m = random_model(rng, 4, MOTOR, SENSOR)
    mapping = OntologyMap(phi=np.eye(4), phi_inv=np.eye(4))
    report = evaluate(m, m, mapping)
    assert report.total <= 1e-9


def test_identity_map_on_deterministic_model(corridor4):
    # 0/1 matrices sit on the smoothing floor; only slack-level residue
    mapping = OntologyMap(phi=np.eye(4), phi_inv=np.eye(4))
    report = evaluate(corridor4, corridor4, mapping)
    assert report.total <= 1e-6


def test_single_state_exact_zero():
    m = FiniteStateModel(
        n=1,
        motor=Alphabet(("a",)),
        sensor=Alphabet(("s",)),
        transitions={"a": [[1.0]]},
        output=[[1.0]],
    )
    mapping = OntologyMap(phi=[[1.0]], phi_inv=[[1.0]])
    report = evaluate(m, m, mapping)
    assert report.total == 0.0


def test_published_map_total_frozen(corridor4, corridor5):
    report = evaluate(corridor4, corridor5, published_corridor_map())
    assert report.total == pytest.approx(PUBLISHED_MAP_TOTAL, abs=1e-12)
    assert report.total > 0


def test_total_is_sum_of_terms(corridor4, corridor5):
    report = evaluate(corridor4, corridor5, published_corridor_map())
    assert report.total == math.fsum(report.terms())
    assert set(report.forward_transition_terms) == {"L", "R"}
    assert all(t >= -1e-6 for t in report.terms())


def test_alphabet_mismatch_rejected(corridor4):
    other = FiniteStateModel(
        n=2,
        motor=MOTOR,
        sensor=SENSOR,
        transitions={"a": np.eye(2), "b": np.eye(2)},
        output=np.eye(2),
    )
    with pytest.raises(ValueError):
        evaluate(corridor4, other, OntologyMap(phi=np.eye(4, 2) * 0 + 0.25, phi_inv=np.full((2, 4), 0.5)))


def test_dimension_mismatch_rejected(corridor4, corridor5):
    mapping = OntologyMap(phi=np.eye(4), phi_inv=np.eye(4))
    with pytest.raises(ValueError):
        evaluate(corridor4, corridor5, mapping)


def _bad_pair(kind: str):
    """A 2-state corridor against a copy spoiled in one way."""
    c2 = build_corridor(CorridorSpec(2))
    motor, sensor, trans, output = c2.motor, c2.sensor, dict(c2.transitions), c2.output
    if kind == "motor":
        motor = Alphabet(("L", "X"))
        trans = {"L": trans["L"], "X": trans["R"]}
    elif kind == "sensor":
        sensor = Alphabet(("a", "b", "c"))
    elif kind == "off_simplex":
        trans["L"] = np.array([[0.9, 1.0], [0.0, 0.0]])  # column 1 sums to 0.9
    else:
        output = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]])
    spoiled = FiniteStateModel(n=2, motor=motor, sensor=sensor, transitions=trans, output=output)
    return (c2, spoiled) if kind in ("motor", "nan") else (spoiled, c2)


@pytest.mark.parametrize(
    "kind, message",
    [
        ("motor", "share motor and sensor"),
        ("sensor", "share motor and sensor"),
        ("off_simplex", "T^L column 1: sum 0.9, expected 1"),
        ("nan", "A column 1: entry nan outside [0, 1]"),
    ],
)
def test_every_entry_point_rejects_bad_pairs(kind, message):
    # A model off the simplex cannot be built, so no entry point is handed
    # one. Each entry point builds a PairObjective, which checks the pair's
    # alphabets before anything is scored: no KeyError, and no total.
    if kind in ("off_simplex", "nan"):
        with pytest.raises(ModelValidationError) as e:
            _bad_pair(kind)
        assert e.value.violations[0] == message
        return
    o0, o1 = _bad_pair(kind)
    mapping = OntologyMap(phi=np.full((2, 2), 0.5), phi_inv=np.full((2, 2), 0.5))
    config = OptimizerConfig(restarts=1, max_iters=5)
    calls = [
        lambda: evaluate(o0, o1, mapping),
        lambda: optimize(o0, o1, config),
        lambda: hill_climb(o0, o1, mapping, config, np.random.default_rng(0)),
        lambda: oracle_search(o0, o1, resolution=0.5),
        lambda: grid_step_variation(o0, o1, mapping, resolution=0.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_map_round_trip():
    mapping = published_corridor_map()
    again = read_map(write_map(mapping))
    assert np.array_equal(again.phi, mapping.phi)
    assert np.array_equal(again.phi_inv, mapping.phi_inv)


def _random_map(rng, n0, n1):
    phi = rng.standard_exponential((n0, n1))
    phi_inv = rng.standard_exponential((n1, n0))
    return OntologyMap(
        phi=phi / phi.sum(axis=0),
        phi_inv=phi_inv / phi_inv.sum(axis=0),
    )


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n0=st.integers(2, 4), n1=st.integers(2, 4))
def test_label_invariance(seed, n0, n1):
    rng = np.random.default_rng(seed)
    o0 = random_model(rng, n0, MOTOR, SENSOR)
    o1 = random_model(rng, n1, MOTOR, SENSOR)
    mapping = _random_map(rng, n0, n1)
    base = evaluate(o0, o1, mapping).total

    perm0 = rng.permutation(n0)
    perm1 = rng.permutation(n1)
    p0 = np.zeros((n0, n0))
    p0[perm0, np.arange(n0)] = 1.0
    p1 = np.zeros((n1, n1))
    p1[perm1, np.arange(n1)] = 1.0
    relabeled = evaluate(
        permuted_copy(o0, perm0),
        permuted_copy(o1, perm1),
        OntologyMap(phi=p0 @ mapping.phi @ p1.T, phi_inv=p1 @ mapping.phi_inv @ p0.T),
    ).total
    assert relabeled == pytest.approx(base, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n0=st.integers(2, 4), n1=st.integers(2, 4))
def test_role_symmetry(seed, n0, n1):
    rng = np.random.default_rng(seed)
    o0 = random_model(rng, n0, MOTOR, SENSOR)
    o1 = random_model(rng, n1, MOTOR, SENSOR)
    mapping = _random_map(rng, n0, n1)
    assert evaluate(o0, o1, mapping).total == pytest.approx(
        evaluate(o1, o0, mapping.swapped()).total, abs=1e-9
    )


def test_isomorphism_zero_deterministic_model(corridor4):
    # 0/1 matrices hit the smoothing floor, so the score is bounded by the
    # smoothing slack rather than exactly zero.
    perm = np.array([2, 0, 3, 1])
    o1 = permuted_copy(corridor4, perm)
    p = np.zeros((4, 4))
    p[perm, np.arange(4)] = 1.0
    report = evaluate(corridor4, o1, OntologyMap(phi=p.T, phi_inv=p))
    assert report.total <= 1e-6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_isomorphism_scores_near_zero(corridor4, seed, n):
    rng = np.random.default_rng(seed)
    o0 = random_model(rng, n, MOTOR, SENSOR)
    perm = rng.permutation(n)
    o1 = permuted_copy(o0, perm)
    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0
    report = evaluate(o0, o1, OntologyMap(phi=p.T, phi_inv=p))
    assert report.total <= 1e-9


def _sparse_stochastic(rng, rows, cols):
    """Column-stochastic with exact zeros; some columns one-hot."""
    m = rng.standard_exponential((rows, cols))
    m[rng.random((rows, cols)) < 0.4] = 0.0
    one_hot = rng.random(cols) < 0.3
    m[:, one_hot] = 0.0
    empty = m.sum(axis=0) == 0
    m[rng.integers(rows, size=cols)[empty], np.flatnonzero(empty)] = 1.0
    return m / m.sum(axis=0, keepdims=True)


def _sparse_model(rng, n, motor, sensor):
    return FiniteStateModel(
        n=n,
        motor=motor,
        sensor=sensor,
        transitions={x: _sparse_stochastic(rng, n, n) for x in motor},
        output=_sparse_stochastic(rng, len(sensor), n),
    )


def _alphabets(motor, sensor):
    return Alphabet(tuple(f"x{i}" for i in range(motor))), Alphabet(tuple(f"s{i}" for i in range(sensor)))


# Small pairs, and large ones with thousands of entries per term.
_PAIR_STATES = st.one_of(st.integers(1, 8), st.integers(48, 64))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n0=_PAIR_STATES,
    n1=_PAIR_STATES,
    motor=st.integers(1, 3),
    sensor=st.integers(1, 4),
    epsilon=st.sampled_from([1e-9, 1e-6, 1e-3]),
)
@example(seed=0, n0=64, n1=48, motor=2, sensor=3, epsilon=1e-9)
@example(seed=1, n0=5, n1=60, motor=3, sensor=1, epsilon=1e-3)
def test_kernel_equals_kl_columns_exactly(seed, n0, n1, motor, sensor, epsilon):
    rng = np.random.default_rng(seed)
    mot, sen = _alphabets(motor, sensor)
    o0, o1 = _sparse_model(rng, n0, mot, sen), _sparse_model(rng, n1, mot, sen)
    phi = _sparse_stochastic(rng, n0, n1)
    phi_inv = _sparse_stochastic(rng, n1, n0)
    kernel = PairObjective(o0, o1, epsilon)
    want = reference_terms(o0, o1, phi, phi_inv, epsilon)
    report = kernel.report(phi, phi_inv)
    assert report.terms() == want
    assert report.total == math.fsum(want)
    assert kernel.exact_totals(kernel.entries(phi[None], phi_inv[None])) == [report.total]


_STATES = st.one_of(st.integers(1, 8), st.integers(16, 40))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 12),
    n0=_STATES,
    n1=_STATES,
    motor=st.integers(1, 3),
    sensor=st.integers(1, 4),
    epsilon=st.sampled_from([2.0**-1022, 1e-9, 1e-6, 1e-3]),
)
def test_totals_equal_total_exactly(seed, r, n0, n1, motor, sensor, epsilon):
    # A stack scores each of its map pairs bit for bit as a single call
    # does, so batching restarts or grid points changes no decision.
    rng = np.random.default_rng(seed)
    mot, sen = _alphabets(motor, sensor)
    o0, o1 = _sparse_model(rng, n0, mot, sen), _sparse_model(rng, n1, mot, sen)
    phi = np.stack([_sparse_stochastic(rng, n0, n1) for _ in range(r)])
    phi_inv = np.stack([_sparse_stochastic(rng, n1, n0) for _ in range(r)])
    kernel = PairObjective(o0, o1, epsilon)
    x = kernel.entries(phi, phi_inv)
    assert kernel.exact_totals(x) == [kernel.report(phi[i], phi_inv[i]).total for i in range(r)]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.integers(1, 4),
    b=st.integers(1, 4),
    n0=st.integers(1, 8),
    n1=st.integers(1, 8),
    motor=st.integers(1, 3),
    sensor=st.integers(1, 4),
    epsilon=st.sampled_from([2.0**-1022, 1e-9, 1e-3]),
    sparse=st.booleans(),
)
@example(seed=0, a=3, b=4, n0=1, n1=5, motor=2, sensor=3, epsilon=2.0**-1022, sparse=True)
@example(seed=1, a=4, b=2, n0=6, n1=1, motor=3, sensor=4, epsilon=1e-9, sparse=False)
def test_broadcast_stacks_equal_repeated_stacks(seed, a, b, n0, n1, motor, sensor, epsilon, sparse):
    # a phi maps against b phi_inv maps score, in C order, the a * b rows
    # of the pairs spelled out one by one, byte for byte: the products a
    # map forms once for its whole row or column of the grid are the ones
    # each of its pairs would form.
    rng = np.random.default_rng(seed)
    mot, sen = _alphabets(motor, sensor)
    model = _sparse_model if sparse else random_model
    kernel = PairObjective(model(rng, n0, mot, sen), model(rng, n1, mot, sen), epsilon)
    phi = np.stack([_sparse_stochastic(rng, n0, n1) for _ in range(a)])
    phi_inv = np.stack([_sparse_stochastic(rng, n1, n0) for _ in range(b)])
    x = kernel.entries(phi[:, None], phi_inv[None])
    want = kernel.entries(np.repeat(phi, b, axis=0), np.tile(phi_inv, (a, 1, 1)))
    assert x.shape == want.shape == (a * b, kernel.p.shape[1])
    assert x.tobytes() == want.tobytes()


def _float_sum_and_radius(kernel: PairObjective, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float sum ``a`` and radius ``r`` of each row, as the proof in
    ``PairObjective.bounds`` defines them."""
    return x.sum(axis=1), np.abs(x).sum(axis=1) * kernel.radius_scale + 2.0**-1069


def _entry_rows(rng, family: str, rows: int, n: int) -> np.ndarray:
    """(rows, n) entries of one family, for the certified-interval property."""
    if family == "mixed":  # both signs, magnitudes from 1e-300 to 1e300
        return rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-300, 301, (rows, n))
    if family == "cancel":  # each row sums to exactly 0
        half = rng.standard_normal((rows, n // 2)) * 2.0 ** rng.integers(-40, 41, (rows, n // 2))
        return rng.permuted(np.concatenate([half, -half, np.zeros((rows, n % 2))], axis=1), axis=1)
    if family == "subnormal":
        return rng.integers(-(2**20), 2**20, (rows, n)) * 2.0**-1074
    if family == "nonfinite":
        return rng.choice([math.inf, -math.inf, math.nan, 0.5], (rows, n), p=[0.02, 0.02, 0.02, 0.94])
    # KL-like p*log(p/q): rows of one draw, or copies of one row with an
    # entry moved by one ulp either way, whose totals tie or nearly tie.
    p = rng.random((rows, n)) + 1e-12
    x = p * np.log(p / (rng.random((rows, n)) + 1e-9))
    if family == "near-ties":
        x[:] = x[0]
        cols = rng.integers(n, size=rows)
        x[np.arange(rows), cols] = np.nextafter(x[0, cols], rng.choice([-np.inf, np.inf], rows))
        if rows > 1:
            x[0] = x[1]  # an exact tie
    return x


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n0=st.integers(1, 6),
    n1=st.integers(1, 6),
    motor=st.integers(1, 3),
    rows=st.integers(1, 6),
    family=st.sampled_from(["mixed", "cancel", "subnormal", "nonfinite", "kl", "near-ties"]),
)
def test_float_totals_certify_exact_totals(seed, n0, n1, motor, rows, family):
    # The intervals of bounds() are [a - r, a + r] with |a - c| <= r / 2 for
    # every row, so a comparison that they settle agrees with the comparison
    # of exact totals.
    rng = np.random.default_rng(seed)
    mot, sen = _alphabets(motor, 2)
    kernel = PairObjective(_sparse_model(rng, n0, mot, sen), _sparse_model(rng, n1, mot, sen), 1e-9)
    x = np.ascontiguousarray(_entry_rows(rng, family, rows, kernel.p.shape[1]))
    with np.errstate(invalid="ignore"):  # inf - inf in non-finite rows
        a, r = _float_sum_and_radius(kernel, x)
        lo, hi = kernel.bounds(x)
        assert (lo.tobytes(), hi.tobytes()) == ((a - r).tobytes(), (a + r).tobytes())
    # A non-finite row settles no comparison; the others are summed exactly.
    finite = np.isfinite(x).all(axis=1)
    c = [kernel.exact_totals(row[None])[0] if ok else None for row, ok in zip(x, finite)]
    for i in range(rows):
        if finite[i]:
            assert abs(Fraction(a[i]) - Fraction(c[i])) <= Fraction(r[i]) / 2
        for j in range(rows):
            settled = hi[i] < lo[j] or lo[i] >= hi[j]
            if not (finite[i] and finite[j]):
                assert not settled
            elif settled:
                assert (c[i] < c[j]) == (hi[i] < lo[j])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    n0=st.integers(1, 19),
    n1=st.integers(1, 19),
    motor=st.integers(1, 3),
    sensor=st.integers(1, 4),
    sparse=st.booleans(),
)
def test_approximations_equal_per_matrix_products(seed, a, b, n0, n1, motor, sensor, sparse):
    # Each block of an oracle-shaped stack is, bit for bit, the product
    # formed for one map pair (or, for an output block, one map) alone;
    # and the spans in blocks tile a row, each the union of its terms'.
    rng = np.random.default_rng(seed)
    mot, sen = _alphabets(motor, sensor)
    model = _sparse_model if sparse else random_model
    o0, o1 = model(rng, n0, mot, sen), model(rng, n1, mot, sen)
    kernel = PairObjective(o0, o1, 1e-9)
    phi = np.stack([_sparse_stochastic(rng, n0, n1) for _ in range(a)])
    phi_inv = np.stack([_sparse_stochastic(rng, n1, n0) for _ in range(b)])
    t0, t1 = ([o.transitions[x] for x in mot] for o in (o0, o1))
    q = kernel.approximations(phi[:, None], phi_inv[None])
    assert [block.shape for block in q] == [
        (a, b, motor, n1, n1),
        (a, 1, 1, sensor, n1),
        (a, b, motor, n0, n0),
        (1, b, 1, sensor, n0),
    ]
    for i in range(a):
        assert q[1][i, 0, 0].tobytes() == (o0.output @ phi[i]).tobytes()
        for j in range(b):
            assert q[0][i, j].tobytes() == np.stack([phi_inv[j] @ t @ phi[i] for t in t0]).tobytes()
            assert q[2][i, j].tobytes() == np.stack([phi[i] @ t @ phi_inv[j] for t in t1]).tobytes()
    for j in range(b):
        assert q[3][0, j, 0].tobytes() == (o1.output @ phi_inv[j]).tobytes()
    edges = [0] + [stop for _, stop in kernel.segments]
    assert kernel.segments == list(zip(edges, edges[1:])) and edges[-1] == kernel.p.shape[1]
    ends = [edges[k] for k in np.cumsum([0, motor, 1, motor, 1])]
    assert kernel.blocks == list(zip(ends, ends[1:]))


def _map_column(rng, rows: int, sparse: bool) -> np.ndarray:
    """A column-stochastic column: dense, or with exact zeros (some one-hot)."""
    if sparse:
        return _sparse_stochastic(rng, rows, 1)[:, 0]
    col = rng.standard_exponential(rows)
    return col / col.sum()


_MOVE_STATES = st.one_of(st.integers(1, 40), st.integers(48, 64))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n0=_MOVE_STATES,
    n1=_MOVE_STATES,
    motor=st.integers(1, 3),
    sensor=st.integers(1, 4),
    epsilon=st.sampled_from([2.0**-1022, 1e-9, 1e-3]),
    sparse_models=st.booleans(),
    sparse_maps=st.booleans(),
)
@example(seed=0, n0=16, n1=64, motor=2, sensor=3, epsilon=1e-9, sparse_models=False, sparse_maps=False)
@example(seed=1, n0=64, n1=1, motor=3, sensor=4, epsilon=1e-3, sparse_models=True, sparse_maps=True)
# A one-column map whose output column is long enough for numpy to sum it
# pairwise when it is the whole matrix.
@example(seed=1, n0=6, n1=1, motor=1, sensor=12, epsilon=1e-9, sparse_models=False, sparse_maps=False)
def test_moved_rows_equal_entries(seed, n0, n1, motor, sensor, epsilon, sparse_models, sparse_maps):
    # Rescoring only what a one-column move changes gives the row that
    # entries() gives for the moved pair, byte for byte, move after move;
    # every column of both maps moves once, in a random order.
    rng = np.random.default_rng(seed)
    mot, sen = _alphabets(motor, sensor)
    model = _sparse_model if sparse_models else random_model
    kernel = PairObjective(model(rng, n0, mot, sen), model(rng, n1, mot, sen), epsilon)
    phi = np.stack([_map_column(rng, n0, sparse_maps) for _ in range(n1)], axis=1)
    phi_inv = np.stack([_map_column(rng, n1, sparse_maps) for _ in range(n0)], axis=1)
    # A true-side zero scores exactly +0.0 (0 * log 0 = 0) on either path.
    zero = kernel.p[0] == 0
    x = kernel.entries(phi[None], phi_inv[None])[0]
    assert x[zero].tobytes() == bytes(8 * zero.sum())
    moves = [(0, j) for j in range(n1)] + [(1, j) for j in range(n0)]
    for k in rng.permutation(len(moves)):
        side, j = moves[k]
        mat = (phi, phi_inv)[side]
        mat[:, j] = _map_column(rng, len(mat), sparse_maps)
        x = kernel.moved(phi, phi_inv, side, j, x)
        assert x.tobytes() == kernel.entries(phi[None], phi_inv[None])[0].tobytes()
        assert x[zero].tobytes() == bytes(8 * zero.sum())
    # The moved row's certified interval holds its exact total.
    a, r = _float_sum_and_radius(kernel, x[None])
    lo, hi = kernel.bounds(x[None])
    assert (lo.tobytes(), hi.tobytes()) == ((a - r).tobytes(), (a + r).tobytes())
    [c] = kernel.exact_totals(x[None])
    assert abs(Fraction(a[0]) - Fraction(c)) <= Fraction(r[0]) / 2
