"""Every constructor and file reader rejects NaN and +-inf, wherever it sits."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.divergence import kl_columns
from ontomap.model import FiniteStateModel, ModelValidationError, StateDistribution, read_model, write_model
from ontomap.objective import OntologyMap, read_map, write_map
from ontomap.utility import UtilityVector, read_utility, write_utility

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Spellings of a non-finite number that json.loads accepts.
NON_FINITE_TOKENS = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])

CORRIDOR = build_corridor(CorridorSpec(3))
FILES = {
    "model": (read_model, write_model(CORRIDOR)),
    "map": (read_map, write_map(OntologyMap(phi=np.eye(3), phi_inv=np.eye(3)))),
    "utility": (read_utility, write_utility(UtilityVector([0.0, 0.5, 1.0]))),
}

EXAMPLES = settings(max_examples=60, deadline=None)


def _spoiled(mat, data, value) -> np.ndarray:
    """A copy of ``mat`` with one entry, drawn by hypothesis, set to ``value``."""
    m = np.array(mat, dtype=float)
    m.flat[data.draw(st.integers(0, m.size - 1))] = value
    return m


def _number_paths(doc, path=()):
    """Paths to every number in a parsed JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _number_paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _number_paths(v, path + (i,))
    elif isinstance(doc, (int, float)):
        yield path


@EXAMPLES
@given(data=st.data(), value=NON_FINITE)
def test_state_distribution(data, value):
    with pytest.raises(ValueError):
        StateDistribution(_spoiled([0.25, 0.25, 0.5], data, value))


@EXAMPLES
@given(data=st.data(), value=NON_FINITE, spoil_inverse=st.booleans())
def test_ontology_map(data, value, spoil_inverse):
    phi, phi_inv = np.full((2, 3), 0.5), np.full((3, 2), 1 / 3)
    if spoil_inverse:
        phi_inv = _spoiled(phi_inv, data, value)
    else:
        phi = _spoiled(phi, data, value)
    with pytest.raises(ValueError):
        OntologyMap(phi=phi, phi_inv=phi_inv)


@EXAMPLES
@given(data=st.data(), value=NON_FINITE)
def test_utility_vector(data, value):
    with pytest.raises(ValueError):
        UtilityVector(_spoiled([0.0, 1.0, 2.0], data, value))


@EXAMPLES
@given(data=st.data(), value=NON_FINITE, spoil_true_side=st.booleans())
def test_kl_columns_both_sides(data, value, spoil_true_side):
    p = q = np.array([[0.2, 1.0], [0.8, 0.0]])
    if spoil_true_side:
        p = _spoiled(p, data, value)
    else:
        q = _spoiled(q, data, value)
    with pytest.raises(ValueError):
        kl_columns(p, q)


@EXAMPLES
@given(data=st.data(), value=NON_FINITE, matrix=st.sampled_from(["L", "R", "A"]))
def test_validate_model_direct(data, value, matrix):
    transitions = dict(CORRIDOR.transitions)
    output = CORRIDOR.output
    if matrix == "A":
        output = _spoiled(output, data, value)
    else:
        transitions[matrix] = _spoiled(transitions[matrix], data, value)
    with pytest.raises(ModelValidationError) as e:
        FiniteStateModel(
            n=CORRIDOR.n, motor=CORRIDOR.motor, sensor=CORRIDOR.sensor,
            transitions=transitions, output=output,
        )
    violations = e.value.violations
    assert f"entry {value!r} outside [0, 1]" in violations[0]


@EXAMPLES
@given(data=st.data(), kind=st.sampled_from(sorted(FILES)), token=NON_FINITE_TOKENS)
def test_file_readers(data, kind, token):
    reader, clean = FILES[kind]
    doc = json.loads(clean)
    *parents, last = data.draw(st.sampled_from(list(_number_paths(doc))))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = "@@"
    text = json.dumps(doc).replace('"@@"', token)
    with pytest.raises(ValueError):
        reader(text)


@pytest.mark.parametrize(
    "p, q",
    [
        # The floored zero renormalises to ~1e-309, so p / q overflows.
        ([[1.0], [0.0]], [[0.0], [1e300]]),
        # The column sum overflows.
        ([[0.5], [0.5]], [[1e308], [1e308]]),
    ],
)
def test_kl_columns_overflow_raises(p, q):
    with pytest.raises(ValueError, match="overflows"):
        kl_columns(p, q)


def test_kl_columns_large_finite_unchanged():
    # Finite results keep their bits: the floored zero renormalises to
    # ~1e-308, and p / q stays finite.
    assert kl_columns([[1.0], [0.0]], [[0.0], [1e299]]) == 709.1962086421661
