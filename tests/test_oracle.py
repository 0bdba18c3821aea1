import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontomap.objective
from conftest import permuted_copy, random_model
from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.divergence import DEFAULT_POLICY
from ontomap.model import Alphabet, FiniteStateModel
from ontomap.objective import OntologyMap, PairObjective, evaluate
from ontomap.oracle import MAX_FREE_PARAMETERS, MAX_GRID_POINTS, _grid, _grid_columns, _grid_steps
from ontomap.oracle import free_parameters, grid_step_variation, oracle_search


def one_state_model():
    return FiniteStateModel(
        n=1,
        motor=Alphabet(("a",)),
        sensor=Alphabet(("s",)),
        transitions={"a": [[1.0]]},
        output=[[1.0]],
    )


def test_grid_columns_cover_simplex():
    cols = _grid_columns(2, 20)
    assert len(cols) == 21
    assert all(abs(c.sum() - 1.0) < 1e-12 for c in cols)
    cols3 = _grid_columns(3, 4)
    assert len(cols3) == 15  # compositions of 4 into 3 parts


def _filtered_product(dim, steps):
    """The grid columns as the product of per-entry steps, filtered to the
    simplex: (steps + 1) ** (dim - 1) tuples for the ones kept."""
    kept = []
    for combo in product(range(steps + 1), repeat=dim - 1):
        rest = steps - sum(combo)
        if rest >= 0:
            kept.append(combo + (rest,))
    return np.array(kept, dtype=float) / steps


@pytest.mark.parametrize("dim", range(1, 8))
def test_grid_columns_match_filtered_product(dim):
    for steps in range(1, 21):
        cols = _grid_columns(dim, steps)
        # Every composition of steps into dim parts, once each, in strictly
        # increasing lexicographic order: the filtered product's rows.
        parts = np.rint(cols * steps).astype(int)
        assert cols.shape == (math.comb(steps + dim - 1, dim - 1), dim)
        assert (parts >= 0).all() and (parts.sum(axis=1) == steps).all()
        assert np.array_equal(parts / steps, cols)
        diff = np.diff(parts, axis=0)
        first = np.argmax(diff != 0, axis=1)
        assert (diff[np.arange(len(diff)), first] > 0).all()
        if (steps + 1) ** (dim - 1) <= 10**5:
            assert cols.tobytes() == _filtered_product(dim, steps).tobytes()


def test_resolution_must_divide_one():
    assert [_grid_steps(r) for r in (0.05, 0.1, 0.25, 1.0)] == [20, 10, 4, 1]
    m = one_state_model()
    identity = OntologyMap(phi=[[1.0]], phi_inv=[[1.0]])
    with pytest.raises(ValueError):
        grid_step_variation(m, m, identity, resolution=0.3)


def test_grid_point_cap():
    # Every instance within the free-parameter cap fits at the default
    # resolution; the largest (1 and 7 states) has 230 230 map pairs.
    sizes = [
        _grid(n0, n1, 0.05)
        for n0 in range(1, 8)
        for n1 in range(1, 8)
        if free_parameters(n0, n1) <= MAX_FREE_PARAMETERS
    ]
    assert max(n_phi * n_inv for _, n_phi, n_inv in sizes) == 230230
    assert len(_grid_columns(7, 4)) == _grid(7, 1, 0.25)[1]
    # Rejected from the counts alone, before any grid is built.
    m = build_corridor(CorridorSpec(2))
    identity = OntologyMap(phi=np.eye(2), phi_inv=np.eye(2))
    assert MAX_GRID_POINTS < 101**4
    for resolution in (0.01, 1e-300, 5e-324):
        with pytest.raises(ValueError):
            oracle_search(m, m, resolution=resolution)
    # grid_step_variation builds no grid, so only an uncountable
    # resolution is rejected; pairs far past the grid cap still score.
    with pytest.raises(ValueError):
        grid_step_variation(m, m, identity, resolution=5e-324)
    assert grid_step_variation(m, m, identity, resolution=0.01) >= 0.0
    c4, c5 = build_corridor(CorridorSpec(4)), build_corridor(CorridorSpec(5))
    uniform = OntologyMap(phi=np.full((4, 5), 0.25), phi_inv=np.full((5, 4), 0.2))
    assert grid_step_variation(c4, c5, uniform) > 0.0


def test_step_variation_rejects_mismatched_alphabets():
    m = one_state_model()
    other = FiniteStateModel(
        n=1, motor=Alphabet(("b",)), sensor=Alphabet(("s",)), transitions={"b": [[1.0]]}, output=[[1.0]]
    )
    identity = OntologyMap(phi=[[1.0]], phi_inv=[[1.0]])
    with pytest.raises(ValueError):
        grid_step_variation(m, other, identity, resolution=0.5)


def _column_near_grid(rng, dim, resolution):
    """A probability column whose entries, but for its last, lie exactly at,
    one ulp above or below, half or one and a half times the resolution, or
    at 0; the last takes the rest of the mass."""
    r = resolution
    choices = [0.0, r, np.nextafter(r, 0.0), np.nextafter(r, 1.0), r / 2, 1.5 * r]
    col = rng.choice(choices, size=dim)
    while col[:-1].sum() > 1.0:
        col[np.argmax(col[:-1])] = 0.0
    col[-1] = 1.0 - col[:-1].sum()
    return col


def _one_step_variation(o0, o1, mapping, resolution):
    """grid_step_variation written out: every move of ``resolution`` of mass
    from an entry that holds it to another entry of its column."""
    base = evaluate(o0, o1, mapping).total
    worst = 0.0
    for side in (0, 1):
        mat = (mapping.phi, mapping.phi_inv)[side]
        for j, a, b in product(range(mat.shape[1]), range(len(mat)), range(len(mat))):
            if a != b and mat[a, j] >= resolution:
                moved = [mapping.phi.copy(), mapping.phi_inv.copy()]
                moved[side][a, j] -= resolution
                moved[side][b, j] += resolution
                worst = max(worst, abs(evaluate(o0, o1, OntologyMap(*moved)).total - base))
    return worst


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n0=st.integers(1, 4),
    n1=st.integers(1, 4),
    resolution=st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1, 0.05]),
)
def test_step_variation_is_largest_one_step_change(seed, n0, n1, resolution):
    rng = np.random.default_rng(seed)
    motor, sensor = Alphabet(("a", "b")), Alphabet(("s", "t", "u"))
    o0, o1 = random_model(rng, n0, motor, sensor), random_model(rng, n1, motor, sensor)
    phi = np.column_stack([_column_near_grid(rng, n0, resolution) for _ in range(n1)])
    phi_inv = np.column_stack([_column_near_grid(rng, n1, resolution) for _ in range(n0)])
    mapping = OntologyMap(phi=phi, phi_inv=phi_inv)
    expected = _one_step_variation(o0, o1, mapping, resolution)
    assert grid_step_variation(o0, o1, mapping, resolution).hex() == expected.hex()


def test_free_parameter_count():
    assert free_parameters(1, 1) == 0
    assert free_parameters(2, 2) == 4
    assert free_parameters(4, 5) == 31


def test_instance_cap_enforced(corridor4, corridor5):
    with pytest.raises(ValueError):
        oracle_search(corridor4, corridor5)


def test_single_state_trivial():
    m = one_state_model()
    mapping, total = oracle_search(m, m)
    assert mapping.phi.tolist() == [[1.0]]
    assert mapping.phi_inv.tolist() == [[1.0]]
    assert total == 0.0


def test_identical_two_state_finds_identity():
    m = build_corridor(CorridorSpec(2))
    mapping, total = oracle_search(m, m, resolution=0.05)
    assert total <= 1e-3
    assert np.array_equal(np.argmax(mapping.phi, axis=0), [0, 1])
    assert np.array_equal(np.argmax(mapping.phi_inv, axis=0), [0, 1])


def test_permuted_two_state_recovers_swap():
    m = build_corridor(CorridorSpec(2))
    swapped = permuted_copy(m, np.array([1, 0]))
    mapping, total = oracle_search(m, swapped, resolution=0.05)
    assert total <= 1e-3
    assert np.array_equal(np.argmax(mapping.phi, axis=0), [1, 0])
    assert np.array_equal(np.argmax(mapping.phi_inv, axis=0), [1, 0])


def _first_strict_minimum(o0, o1, resolution):
    """Every grid point scored one at a time, phi outer and phi_inv inner;
    the first point with the least total wins. Also returns all totals."""
    steps = _grid_steps(resolution)
    objective = PairObjective(o0, o1, DEFAULT_POLICY.epsilon)
    best, best_total, totals = None, np.inf, []
    for phi_cols in product(_grid_columns(o0.n, steps), repeat=o1.n):
        for inv_cols in product(_grid_columns(o1.n, steps), repeat=o0.n):
            phi, phi_inv = np.stack(phi_cols, axis=1), np.stack(inv_cols, axis=1)
            total = objective.report(phi, phi_inv).total
            totals.append(total)
            if total < best_total:
                best, best_total = (phi, phi_inv), total
    return best, best_total, totals


# 16 entries per pair, 25 phi maps x 25 phi_inv maps: blocks of 1 x 1,
# 1 x 7 (splitting the phi_inv range), 1 x 25 (one phi map per block, of
# 25 and 26 pairs' room), 2 x 25 and 4 x 25.
@pytest.mark.parametrize("cap", [None, 16, 7 * 16, 25 * 16, 26 * 16, 50 * 16, 104 * 16, 105 * 16])
def test_chunked_oracle_keeps_first_minimum(cap, monkeypatch):
    # Two states that only the output could tell apart, and it does not:
    # the identity and the swap tie exactly, in grid points 520 and 104.
    m = FiniteStateModel(
        n=2, motor=Alphabet(("a",)), sensor=Alphabet(("s1", "s2")),
        transitions={"a": np.eye(2)}, output=np.full((2, 2), 0.5),
    )
    (phi, phi_inv), want, totals = _first_strict_minimum(m, m, 0.25)
    assert totals.count(want) >= 2
    if cap is not None:
        monkeypatch.setattr(ontomap.objective, "MAX_STACK_ENTRIES", cap)
    # Certified intervals cannot tell tied points apart: both must be summed
    # exactly for the first to be kept.
    exact = []
    real = PairObjective.exact_totals

    def recording(self, x):
        totals = real(self, x)
        exact.extend(totals)
        return totals

    monkeypatch.setattr(PairObjective, "exact_totals", recording)
    mapping, total = oracle_search(m, m, resolution=0.25)
    assert exact.count(want) >= 2
    assert total == want
    assert mapping.phi.tobytes() == phi.tobytes()
    assert mapping.phi_inv.tobytes() == phi_inv.tobytes()


@pytest.mark.parametrize("n0, n1", [(1, 3), (3, 1), (2, 2)])
@pytest.mark.parametrize("split", [False, True])
def test_blocked_oracle_equals_pointwise_search(n0, n1, split, monkeypatch):
    # One phi map or one phi_inv map spans the whole grid at (1, 3) and
    # (3, 1). Blocks of 4 pairs split the phi_inv range (15 maps at (1, 3),
    # 25 at (2, 2)) or take 4 phi maps of one phi_inv map at (3, 1).
    rng = np.random.default_rng([n0, n1])
    motor, sensor = Alphabet(("a", "b")), Alphabet(("s", "t", "u"))
    o0, o1 = random_model(rng, n0, motor, sensor), random_model(rng, n1, motor, sensor)
    (phi, phi_inv), want, _ = _first_strict_minimum(o0, o1, 0.25)
    if split:
        entries = PairObjective(o0, o1, DEFAULT_POLICY.epsilon).p.shape[1]
        monkeypatch.setattr(ontomap.objective, "MAX_STACK_ENTRIES", 4 * entries)
    mapping, total = oracle_search(o0, o1, resolution=0.25)
    assert total == want
    assert mapping.phi.tobytes() == phi.tobytes()
    assert mapping.phi_inv.tobytes() == phi_inv.tobytes()


def test_oracle_scores_a_block_of_phi_maps_per_call(monkeypatch):
    # corridor2 at 0.1 has 121 phi maps and 121 phi_inv maps; a batch of
    # 585 pairs takes 4 phi maps against every phi_inv map per call.
    m = build_corridor(CorridorSpec(2))
    batch = PairObjective(m, m, DEFAULT_POLICY.epsilon).batch
    assert batch // 121 == 4
    calls = []
    real = PairObjective.entries

    def entries(self, phi, phi_inv):
        x = real(self, phi, phi_inv)
        calls.append(len(x))
        return x

    monkeypatch.setattr(PairObjective, "entries", entries)
    oracle_search(m, m, resolution=0.1)
    assert len(calls) == math.ceil(121 / 4) == 31
    assert sum(calls) == 121 * 121
    assert max(calls) <= batch
