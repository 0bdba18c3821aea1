import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, reference_terms
from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.divergence import SmoothingPolicy
from ontomap.model import Alphabet, FiniteStateModel
from ontomap.objective import OntologyMap, PairObjective, evaluate
from ontomap.optimizer import OptimizerConfig, hill_climb, optimize, random_map

MOTOR = Alphabet(("a", "b"))
SENSOR = Alphabet(("s1", "s2"))

FAST = OptimizerConfig(seed=0, restarts=3, max_iters=500)


def one_state_model():
    return FiniteStateModel(
        n=1,
        motor=Alphabet(("a",)),
        sensor=Alphabet(("s",)),
        transitions={"a": [[1.0]]},
        output=[[1.0]],
    )


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)


def test_random_map_trivial_case():
    rng = np.random.default_rng(0)
    m = random_map(1, 1, rng)
    assert m.phi.tolist() == [[1.0]]
    assert m.phi_inv.tolist() == [[1.0]]


def test_random_map_deterministic():
    a = random_map(4, 5, np.random.default_rng(7))
    b = random_map(4, 5, np.random.default_rng(7))
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.phi_inv, b.phi_inv)


def test_random_map_columns_stochastic():
    m = random_map(4, 5, np.random.default_rng(3))
    assert np.allclose(m.phi.sum(axis=0), 1.0, atol=1e-9)
    assert np.allclose(m.phi_inv.sum(axis=0), 1.0, atol=1e-9)
    assert np.all(m.phi >= 0) and np.all(m.phi_inv >= 0)


def test_hill_climb_at_global_optimum():
    m = one_state_model()
    start = OntologyMap(phi=[[1.0]], phi_inv=[[1.0]])
    result, report, _ = hill_climb(m, m, start, FAST, np.random.default_rng(0))
    assert report.total == 0.0
    assert result.phi.tolist() == [[1.0]]


def test_hill_climb_never_worse_than_start(corridor4, corridor5):
    rng = np.random.default_rng(11)
    start = random_map(4, 5, rng)
    start_total = evaluate(corridor4, corridor5, start).total
    _, report, _ = hill_climb(corridor4, corridor5, start, FAST, rng)
    assert report.total <= start_total


def test_hill_climb_dimension_mismatch(corridor4, corridor5):
    start = OntologyMap(phi=np.eye(4), phi_inv=np.eye(4))
    with pytest.raises(ValueError):
        hill_climb(corridor4, corridor5, start, FAST, np.random.default_rng(0))


def test_final_total_is_running_minimum(corridor4, corridor5, monkeypatch):
    # The accepted-totals sequence is strictly decreasing by construction;
    # check the reported final equals the minimum ever evaluated & accepted.
    seen = []
    real = PairObjective.total

    def recording(self, phi, phi_inv):
        v = real(self, phi, phi_inv)
        seen.append(v)
        return v

    monkeypatch.setattr(PairObjective, "total", recording)
    rng = np.random.default_rng(5)
    start = random_map(4, 5, rng)
    _, report, iters = hill_climb(corridor4, corridor5, start, FAST, rng)
    assert len(seen) == iters + 1
    assert report.total == min(seen)


def test_hill_climb_matches_reference_objective(corridor4, corridor5, monkeypatch):
    # The kernel scores every proposal exactly as the public kl_columns
    # does, so climbing on either accepts the same moves.
    def climb():
        rng = np.random.default_rng(3)
        return hill_climb(corridor4, corridor5, random_map(4, 5, rng), FAST, rng)

    fast, _, fast_iters = climb()

    def reference_total(self, phi, phi_inv):
        t = reference_terms(corridor4, corridor5, phi, phi_inv, self.epsilon)
        m = len(corridor4.motor)
        return sum(t[:m]) + t[m] + sum(t[m + 1 : 2 * m + 1]) + t[2 * m + 1]

    monkeypatch.setattr(PairObjective, "total", reference_total)
    slow, _, slow_iters = climb()
    assert fast_iters == slow_iters
    assert fast.phi.tobytes() == slow.phi.tobytes()
    assert fast.phi_inv.tobytes() == slow.phi_inv.tobytes()


def test_optimize_validates_models_once(corridor4, corridor5, monkeypatch):
    # optimize checks both models up front; the restarts trust them.
    import ontomap.objective

    calls = []
    real = ontomap.objective.validate_model

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(ontomap.objective, "validate_model", counting)
    optimize(corridor4, corridor5, OptimizerConfig(restarts=10, max_iters=10))
    assert len(calls) == 2


def test_best_of_restarts_selection(corridor4, corridor5):
    res = optimize(corridor4, corridor5, FAST)
    finals = [o.final_total for o in res.per_restart]
    assert res.best_report.total == min(finals)
    assert len(finals) == FAST.restarts


def test_more_restarts_never_worse(corridor4, corridor5):
    one = optimize(corridor4, corridor5, OptimizerConfig(seed=9, restarts=1, max_iters=500))
    ten = optimize(corridor4, corridor5, OptimizerConfig(seed=9, restarts=10, max_iters=500))
    # restart streams are derived from (seed, index), so run 0 is shared
    assert ten.best_report.total <= one.best_report.total
    assert ten.per_restart[0].final_total == one.per_restart[0].final_total


def test_identical_models_reach_identity(corridor4):
    res = optimize(corridor4, corridor4, OptimizerConfig(seed=2, restarts=10, max_iters=4000))
    assert res.best_report.total <= 1e-3
    assert np.array_equal(np.argmax(res.best_map.phi, axis=0), np.arange(4))


def test_intermediate_maps_feasible(corridor4, corridor5):
    res = optimize(corridor4, corridor5, FAST)
    m = res.best_map
    assert np.allclose(m.phi.sum(axis=0), 1.0, atol=1e-9)
    assert np.allclose(m.phi_inv.sum(axis=0), 1.0, atol=1e-9)
    assert np.all(m.phi >= 0) and np.all(m.phi_inv >= 0)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    opt_seed=st.integers(0, 2**16),
    n0=st.integers(2, 3),
    n1=st.integers(2, 3),
)
def test_determinism_property(seed, opt_seed, n0, n1):
    rng = np.random.default_rng(seed)
    o0 = random_model(rng, n0, MOTOR, SENSOR)
    o1 = random_model(rng, n1, MOTOR, SENSOR)
    config = OptimizerConfig(seed=opt_seed, restarts=2, max_iters=60)
    a = optimize(o0, o1, config)
    b = optimize(o0, o1, config)
    assert a.best_report.total == b.best_report.total
    assert np.array_equal(a.best_map.phi, b.best_map.phi)
    assert np.array_equal(a.best_map.phi_inv, b.best_map.phi_inv)
    assert a.per_restart == b.per_restart


def test_epsilon_policy_threaded_through(corridor4, corridor5):
    config = OptimizerConfig(
        seed=1, restarts=1, max_iters=200, policy=SmoothingPolicy(epsilon=1e-6)
    )
    res = optimize(corridor4, corridor5, config)
    check = evaluate(corridor4, corridor5, res.best_map, config.policy)
    assert check.total == res.best_report.total
