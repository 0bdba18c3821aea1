"""Hand-computed values for the benchmark's reference computations.

    python3 -m pytest perfbench/test_reference.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen_inputs  # noqa: E402
import reference  # noqa: E402


def test_kl_point_mass_against_uniform_is_ln2():
    assert reference.kl_columns([1.0, 0.0], [0.5, 0.5]) == math.log(2)


def test_kl_interior_identity_is_exactly_zero():
    p = np.array([[0.25, 0.5], [0.75, 0.5]])
    assert reference.kl_columns(p, p) == 0.0


def test_kl_zero_approximation_is_floored():
    eps = 1e-9
    # q = [0, 1] floors to [eps, 1], renormalised to [eps, 1] / (1 + eps).
    assert reference.kl_columns([1.0, 0.0], [0.0, 1.0], eps) == math.log(1 / (eps / (1 + eps)))


def test_kl_true_side_zeros_contribute_nothing():
    assert reference.kl_columns([0.0, 1.0], [0.5, 0.5]) == math.log(2)


def test_grid_columns_cover_the_simplex():
    cols = reference.grid_columns(3, 4)
    assert len(cols) == math.comb(4 + 2, 2)
    assert np.all(cols.sum(axis=1) == 1.0)


def test_corridor_identity_objective_is_the_floor_slack(tmp_path):
    # Identity map on the 2-corridor: each of the 8 transition columns pays
    # ln(1 + eps), each of the 4 output columns (two zero sensor rows) pays
    # ln(1 + 2 eps); 1 + eps is rounded to a double before the log, which
    # moves the total by ~1e-7 of itself.
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(gen_inputs.corridor(2)))
    c2 = reference.load_model(path)
    eye = np.eye(2)
    total = reference.objective(c2, c2, eye, eye)
    assert math.isclose(total, 8 * math.log1p(1e-9) + 4 * math.log1p(2e-9), rel_tol=1e-6)


def test_grid_search_finds_the_identity_and_the_swap(tmp_path):
    c2_path, swap_path = tmp_path / "c2.json", tmp_path / "swap.json"
    c2_doc = gen_inputs.corridor(2)
    c2_path.write_text(json.dumps(c2_doc))
    swap_path.write_text(json.dumps(gen_inputs.permuted(c2_doc, [1, 0])))
    c2, swap = reference.load_model(c2_path), reference.load_model(swap_path)
    total, phi, phi_inv, points = reference.grid_search(c2, c2, 4)
    assert points == 5**4
    assert np.array_equal(phi, np.eye(2)) and np.array_equal(phi_inv, np.eye(2))
    assert total == reference.objective(c2, c2, np.eye(2), np.eye(2))
    total, phi, _, _ = reference.grid_search(c2, swap, 4)
    assert np.array_equal(phi, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_step_variation_moves_one_grid_step(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(gen_inputs.corridor(2)))
    c2 = reference.load_model(path)
    eye = np.eye(2)
    base = reference.objective(c2, c2, eye, eye)
    moved = np.array([[0.75, 0.0], [0.25, 1.0]])
    expected = max(
        abs(reference.objective(c2, c2, m0, m1) - base)
        for m0, m1 in [(moved, eye), (moved[::-1, ::-1], eye), (eye, moved), (eye, moved[::-1, ::-1])]
    )
    assert reference.step_variation(c2, c2, eye, eye, 0.25) == expected
