import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import published_corridor_map
from ontomap.corridor import CorridorSpec, corridor_goal
from ontomap.model import ModelFormatError
from ontomap.objective import OntologyMap
from ontomap.utility import UtilityVector, read_utility, translate, write_utility


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        UtilityVector([1.0, float("nan")])
    # A matrix or a scalar is not a utility per state.
    for not_vector in (np.ones((2, 2)), 1.0):
        with pytest.raises(ValueError, match="vector"):
            UtilityVector(not_vector)
    # Nor is an empty vector, in memory or in a file; the file parses, so
    # its refusal is a domain error, not a format error.
    with pytest.raises(ValueError, match="nonempty vector"):
        UtilityVector([])
    with pytest.raises(ValueError, match="nonempty vector") as exc:
        read_utility(b'{"model_states": 0, "values": []}')
    assert not isinstance(exc.value, ModelFormatError)
    # The utility holds a copy, so it stays finite when the caller's array
    # turns NaN after validation.
    source = np.array([1.0, 2.0])
    u = UtilityVector(source)
    source[0] = np.nan
    assert u.values.tolist() == [1.0, 2.0]
    assert not u.values.flags.writeable


def test_corridor_goal_through_published_map():
    u = corridor_goal(CorridorSpec(4))
    translated = translate(u, published_corridor_map())
    assert translated.values.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_zero_utility_stays_zero():
    mapping = published_corridor_map()
    out = translate(UtilityVector(np.zeros(4)), mapping)
    assert np.array_equal(out.values, np.zeros(5))


def test_constant_utility_preserved():
    mapping = published_corridor_map()
    out = translate(UtilityVector(np.ones(4)), mapping)
    assert np.allclose(out.values, np.ones(5), atol=1e-9)


def test_dimension_mismatch():
    mapping = published_corridor_map()
    with pytest.raises(ValueError):
        translate(UtilityVector(np.zeros(5)), mapping)


def test_utility_round_trip():
    u = UtilityVector([0.25, -1.5, 3.0])
    assert np.array_equal(read_utility(write_utility(u)).values, u.values)


def test_read_utility_length_mismatch():
    with pytest.raises(ModelFormatError):
        read_utility(b'{"model_states": 3, "values": [1.0, 2.0]}')


@pytest.mark.parametrize(
    "data",
    [
        b'{"model_states": 2.0, "values": [1.0, 2.0]}',
        b'{"model_states": true, "values": [1.0]}',
        b'{"model_states": 1, "values": [1.0], "note": "\xff"}',
        b"[1.0, 2.0]",
        b'{"model_states": 2, "values": ["1.5", true]}',
        b'{"model_states": 2, "values": "12"}',  # float() would read 1.0, 2.0
        b'{"model_states": 1, "values": [false]}',
        b'{"model_states": 1, "values": [1' + b"0" * 400 + b"]}",  # past the float range
    ],
)
def test_read_utility_rejects_malformed(data):
    with pytest.raises(ModelFormatError) as e:
        read_utility(data)
    if b"0" * 400 in data:  # an integer past the float range is named by its field
        assert str(e.value) == "malformed utility file: values: an entry is past the float range"


def test_read_utility_names_a_flat_list():
    # A utility has no rows: its values are one list of numbers.
    for values in (b'"12"', b'["1.5", true]'):
        with pytest.raises(ModelFormatError, match="'values' must be a list of numbers"):
            read_utility(b'{"model_states": 2, "values": ' + values + b"}")


def _random_map(rng, n0, n1):
    phi = rng.standard_exponential((n0, n1))
    phi_inv = rng.standard_exponential((n1, n0))
    return OntologyMap(phi=phi / phi.sum(axis=0), phi_inv=phi_inv / phi_inv.sum(axis=0))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n0=st.integers(1, 6),
    n1=st.integers(1, 6),
    alpha=st.floats(-2.0, 2.0),
    beta=st.floats(-2.0, 2.0),
)
def test_linearity(seed, n0, n1, alpha, beta):
    rng = np.random.default_rng(seed)
    mapping = _random_map(rng, n0, n1)
    u = UtilityVector(rng.normal(size=n0))
    v = UtilityVector(rng.normal(size=n0))
    combined = translate(UtilityVector(alpha * u.values + beta * v.values), mapping)
    assert np.allclose(
        combined.values,
        alpha * translate(u, mapping).values + beta * translate(v, mapping).values,
        atol=1e-9,
    )


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n0=st.integers(1, 6), n1=st.integers(1, 6), c=st.floats(-10, 10))
def test_constant_preservation_property(seed, n0, n1, c):
    rng = np.random.default_rng(seed)
    mapping = _random_map(rng, n0, n1)
    out = translate(UtilityVector(np.full(n0, c)), mapping)
    assert np.allclose(out.values, c, atol=1e-9)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n0=st.integers(1, 6), n1=st.integers(1, 6))
def test_bounds_property(seed, n0, n1):
    rng = np.random.default_rng(seed)
    mapping = _random_map(rng, n0, n1)
    u = UtilityVector(rng.normal(size=n0))
    out = translate(u, mapping)
    assert np.all(out.values >= u.values.min() - 1e-9)
    assert np.all(out.values <= u.values.max() + 1e-9)
