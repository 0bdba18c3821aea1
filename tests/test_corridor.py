from importlib import resources

import numpy as np
import pytest

from ontomap.corridor import MAX_LENGTH, CorridorSpec, build_corridor, corridor_goal
from ontomap.model import validate_model, write_model

T4_LEFT = [
    [1, 1, 0, 0],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
    [0, 0, 0, 0],
]
T4_RIGHT = [
    [0, 0, 0, 0],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 1, 1],
]
A4 = [
    [1, 0, 0, 0],
    [0, 1, 1, 0],
    [0, 0, 0, 1],
]

T5_LEFT = [
    [1, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
]
T5_RIGHT = [
    [0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1],
]
A5 = [
    [1, 0, 0, 0, 0],
    [0, 1, 1, 1, 0],
    [0, 0, 0, 0, 1],
]


def test_length4_matrices(corridor4):
    assert np.array_equal(corridor4.transitions["L"], np.array(T4_LEFT, float))
    assert np.array_equal(corridor4.transitions["R"], np.array(T4_RIGHT, float))
    assert np.array_equal(corridor4.output, np.array(A4, float))


def test_length5_matrices(corridor5):
    assert np.array_equal(corridor5.transitions["L"], np.array(T5_LEFT, float))
    assert np.array_equal(corridor5.transitions["R"], np.array(T5_RIGHT, float))
    assert np.array_equal(corridor5.output, np.array(A5, float))


def test_length2_edge_case():
    m = build_corridor(CorridorSpec(2))
    assert np.array_equal(m.transitions["L"], np.array([[1, 1], [0, 0]], float))
    assert np.array_equal(m.transitions["R"], np.array([[0, 0], [1, 1]], float))
    assert np.array_equal(m.output, np.array([[1, 0], [0, 0], [0, 1]], float))
    assert len(m.sensor) == 3  # middle symbol kept even though unreachable


def test_too_short_rejected():
    with pytest.raises(ValueError):
        CorridorSpec(1)


def test_too_long_rejected():
    # Checked in the spec, before build_corridor allocates anything.
    with pytest.raises(ValueError):
        CorridorSpec(MAX_LENGTH + 1)


def test_goal_vectors():
    assert corridor_goal(CorridorSpec(4)).values.tolist() == [0, 0, 0, 1]
    assert corridor_goal(CorridorSpec(5)).values.tolist() == [0, 0, 0, 0, 1]
    assert corridor_goal(CorridorSpec(2)).values.tolist() == [0, 1]


@pytest.mark.parametrize("length", range(2, 9))
def test_generated_models_valid_and_deterministic(length):
    m = build_corridor(CorridorSpec(length))
    assert validate_model(m) == []
    for mat in [*m.transitions.values(), m.output]:
        assert np.all((mat == 0) | (mat == 1))
        assert np.all(mat.sum(axis=0) == 1)


@pytest.mark.parametrize("length", [4, 5])
def test_fixtures_byte_identical_to_generator(length):
    fixture = resources.files("ontomap") / "fixtures" / f"corridor{length}.json"
    assert fixture.read_bytes() == write_model(build_corridor(CorridorSpec(length)))
