import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.model import (
    Alphabet,
    FiniteStateModel,
    ModelFormatError,
    ModelValidationError,
    StateDistribution,
    dump_json,
    observe,
    read_model,
    step,
    validate_model,
    write_model,
)


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_alphabet_order_significant():
    assert Alphabet(("a", "b")) != Alphabet(("b", "a"))


def test_state_distribution_invariants():
    with pytest.raises(ValueError):
        StateDistribution([0.5, 0.4])
    with pytest.raises(ValueError):
        StateDistribution([1.5, -0.5])
    # A matrix or a scalar is not a distribution over states, even when
    # its entries would sum to 1.
    for not_vector in (np.eye(2) / 2, 1.0):
        with pytest.raises(ValueError, match="vector"):
            StateDistribution(not_vector)
    # A state outside range(n), and an empty state space, have no point
    # mass or uniform distribution.
    for bad in ((3, -1), (3, 3), (0, 0)):
        with pytest.raises(ValueError):
            StateDistribution.point_mass(*bad)
    with pytest.raises(ValueError):
        StateDistribution.uniform(0)
    d = StateDistribution.point_mass(3, 1)
    assert d.probs.tolist() == [0.0, 1.0, 0.0]
    # The distribution holds a copy: changing the caller's array later
    # changes nothing.
    source = np.array([0.25, 0.75])
    d = StateDistribution(source)
    source[0] = 7.0
    assert d.probs.tolist() == [0.25, 0.75]
    assert not d.probs.flags.writeable


def test_validate_corridor4_clean(corridor4):
    assert validate_model(corridor4) == []


def test_validate_single_state_model():
    m = FiniteStateModel(
        n=1,
        motor=Alphabet(("a",)),
        sensor=Alphabet(("s",)),
        transitions={"a": [[1.0]]},
        output=[[1.0]],
    )
    assert validate_model(m) == []


def test_validate_reports_broken_column(corridor4):
    t_left = np.array(corridor4.transitions["L"])
    t_left[0, 0] = 0.5
    with pytest.raises(ModelValidationError) as e:
        FiniteStateModel(
            n=4,
            motor=corridor4.motor,
            sensor=corridor4.sensor,
            transitions={"L": t_left, "R": corridor4.transitions["R"]},
            output=corridor4.output,
        )
    report = e.value.violations
    assert len(report) == 1
    assert "T^L column 1" in report[0]
    assert "0.5" in report[0]


def test_step_corridor_right(corridor4):
    d = StateDistribution.point_mass(4, 0)
    out = step(corridor4, d, "R")
    assert out.probs.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_step_corridor_left_end_absorbing(corridor4):
    d = StateDistribution.point_mass(4, 0)
    out = step(corridor4, d, "L")
    assert out.probs.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_step_identity_transition():
    m = FiniteStateModel(
        n=3,
        motor=Alphabet(("a",)),
        sensor=Alphabet(("s1", "s2", "s3")),
        transitions={"a": np.eye(3)},
        output=np.eye(3),
    )
    d = StateDistribution.uniform(3)
    assert np.allclose(step(m, d, "a").probs, d.probs)


def test_step_rejects_unknown_symbol(corridor4):
    with pytest.raises(KeyError):
        step(corridor4, StateDistribution.uniform(4), "U")


def test_step_rejects_wrong_length(corridor4):
    with pytest.raises(ValueError):
        step(corridor4, StateDistribution.uniform(3), "L")


def test_observe_rejects_wrong_length(corridor4):
    with pytest.raises(ValueError, match="length 3, model has 4 states"):
        observe(corridor4, StateDistribution.uniform(3))


def test_observe_corridor_ends(corridor4):
    right = observe(corridor4, StateDistribution.point_mass(4, 3))
    assert right.tolist() == [0.0, 0.0, 1.0]
    middle = observe(corridor4, StateDistribution.point_mass(4, 1))
    assert middle.tolist() == [0.0, 1.0, 0.0]


def test_observe_identity_output():
    m = FiniteStateModel(
        n=2,
        motor=Alphabet(("a",)),
        sensor=Alphabet(("s1", "s2")),
        transitions={"a": np.eye(2)},
        output=np.eye(2),
    )
    d = StateDistribution([0.3, 0.7])
    assert np.allclose(observe(m, d), d.probs)


def test_round_trip(corridor4):
    data = write_model(corridor4)
    again = read_model(io.BytesIO(data))
    assert again.n == corridor4.n
    assert again.motor == corridor4.motor
    assert again.sensor == corridor4.sensor
    for x in corridor4.motor:
        assert np.array_equal(again.transitions[x], corridor4.transitions[x])
    assert np.array_equal(again.output, corridor4.output)
    assert write_model(again) == data


def test_dump_json_rejects_nonfinite():
    # JSON has no NaN or infinity; json.dumps would write them as bare words.
    for value in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError):
            dump_json({"x": value})


def test_read_rejects_nonstochastic(corridor4):
    import json

    doc = json.loads(write_model(corridor4))
    doc["transitions"]["L"][0][0] = 0.4
    with pytest.raises(ModelValidationError) as exc:
        read_model(json.dumps(doc))
    assert any("T^L column 1" in v for v in exc.value.violations)


def test_read_rejects_malformed(corridor4):
    import json

    doc = json.loads(write_model(corridor4))
    for bad in (
        b"not json {",
        b'{"states": 4, "motor": ["\xff"]}',  # not UTF-8
        b"[1, 2]",
        json.dumps(dict(doc, transitions=["L", "R"])),
        json.dumps(dict(doc, motor=["L"], transitions=["LR"])),  # dict() would read {"L": "R"}
        json.dumps(dict(doc, states=2.7)),
        json.dumps(dict(doc, states=True)),
        "[" * 100000,
        json.dumps(dict(doc, motor="LR")),  # tuple() would read ("L", "R")
        json.dumps(dict(doc, sensor="abc")),
        json.dumps(dict(doc, motor=[0, 1], transitions={"0": doc["transitions"]["L"], "1": doc["transitions"]["R"]})),
        json.dumps(dict(doc, transitions=dict(doc["transitions"], L=[[str(v) for v in row] for row in doc["transitions"]["L"]]))),
        json.dumps(dict(doc, output=[[v == 1.0 or v for v in row] for row in doc["output"]])),  # true for 1.0
        json.dumps(dict(doc, output=[1.0] * len(doc["output"]))),
        json.dumps(dict(doc, transitions=dict(doc["transitions"], L=[[1.0, 0.0]] + doc["transitions"]["L"][1:]))),
    ):
        with pytest.raises(ModelFormatError):
            read_model(bad)
    # A 401-digit integer, past the float range, is named by its matrix.
    with pytest.raises(ModelFormatError, match="^malformed model file: A: an entry is past the float range$"):
        read_model(json.dumps(dict(doc, output=[[10**400] + doc["output"][0][1:]] + doc["output"][1:])))


def test_read_error_names_a_bad_value_briefly(corridor4):
    import json

    # A whole matrix where an integer or a list of strings belongs is
    # quoted by its first characters only.
    big = build_corridor(CorridorSpec(64)).transitions["L"].tolist()
    doc = json.loads(write_model(corridor4))
    for key in ("states", "motor"):
        with pytest.raises(ModelFormatError, match=f"malformed model file: '{key}' must be") as exc:
            read_model(json.dumps(dict(doc, **{key: big})))
        assert len(str(exc.value)) < 200


def test_read_rejects_dimension_mismatch(corridor4):
    import json

    doc = json.loads(write_model(corridor4))
    doc["states"] = 5
    with pytest.raises(ModelFormatError):
        read_model(json.dumps(doc))


def test_read_renormalizes_columns():
    import json

    doc = {
        "states": 2,
        "motor": ["a"],
        "sensor": ["s1", "s2"],
        # sums differ from 1 by less than 1e-9; read must renormalize exactly
        "transitions": {"a": [[0.3000000001, 1.0], [0.7, 0.0]]},
        # column 1 sums to 1 - 1e-9 and holds -1e-9, both within the
        # tolerance; dividing by the sum alone would give -1.000000001e-9
        "output": [[1.0, 0.0], [-1e-9, 1.0]],
    }
    # A model built in memory from the same numbers holds the same columns.
    given = {"a": np.array(doc["transitions"]["a"]), "A": np.array(doc["output"])}
    before = {k: v.tobytes() for k, v in given.items()}
    built = FiniteStateModel(
        n=2, motor=Alphabet(("a",)), sensor=Alphabet(("s1", "s2")), transitions={"a": given["a"]}, output=given["A"]
    )
    for m in (read_model(json.dumps(doc)), built):
        assert m.transitions["a"].sum(axis=0).tolist() == [1.0, 1.0]
        assert m.output.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert not (m.transitions["a"].flags.writeable or m.output.flags.writeable)
    # The constructor renormalizes its own copies, never the caller's arrays.
    assert {k: v.tobytes() for k, v in given.items()} == before


def test_read_validates_once(corridor4, monkeypatch):
    import ontomap.model

    calls = []
    validate = ontomap.model.validate_model
    monkeypatch.setattr(ontomap.model, "validate_model", lambda m: calls.append(m) or validate(m))
    read_model(write_model(corridor4))
    assert len(calls) == 1


simplex4 = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda v: np.array(v) / np.sum(v)
)


@settings(max_examples=120, deadline=None)
@given(probs=simplex4, symbol=st.sampled_from(["L", "R"]))
def test_step_observe_preserve_distributions(corridor4, probs, symbol):
    d = StateDistribution(probs)
    out = step(corridor4, d, symbol)
    assert np.all(out.probs >= 0)
    assert abs(out.probs.sum() - 1.0) <= 1e-9
    sensed = observe(corridor4, d)
    assert np.all(sensed >= 0)
    assert abs(sensed.sum() - 1.0) <= 1e-9


@settings(max_examples=120, deadline=None)
@given(
    d1=simplex4,
    d2=simplex4,
    alpha=st.floats(0.0, 1.0),
    symbol=st.sampled_from(["L", "R"]),
)
def test_step_linearity(corridor4, d1, d2, alpha, symbol):
    mix = StateDistribution(alpha * d1 + (1 - alpha) * d2)
    lhs = step(corridor4, mix, symbol).probs
    rhs = (
        alpha * step(corridor4, StateDistribution(d1), symbol).probs
        + (1 - alpha) * step(corridor4, StateDistribution(d2), symbol).probs
    )
    assert np.allclose(lhs, rhs, atol=1e-9)
