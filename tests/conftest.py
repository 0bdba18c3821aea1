import numpy as np
import pytest

from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.divergence import SmoothingPolicy, kl_columns
from ontomap.model import FiniteStateModel
from ontomap.objective import OntologyMap


@pytest.fixture(scope="session")
def corridor4():
    return build_corridor(CorridorSpec(4))


@pytest.fixture(scope="session")
def corridor5():
    return build_corridor(CorridorSpec(5))


def permuted_copy(model: FiniteStateModel, perm: np.ndarray) -> FiniteStateModel:
    """Relabel states so that new state perm[i] is old state i."""
    n = model.n
    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0
    return FiniteStateModel(
        n=n,
        motor=model.motor,
        sensor=model.sensor,
        transitions={x: p @ model.transitions[x] @ p.T for x in model.motor},
        output=model.output @ p.T,
    )


def published_corridor_map() -> OntologyMap:
    """The 4<->5 corridor map pair reported to three significant figures,
    with columns renormalized to exact distributions."""
    phi = np.array(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 0.503, 0, 0],
            [0, 0, 0.496, 1, 0],
            [0, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    phi_inv = np.array(
        [
            [1, 0.014, 0.001, 0],
            [0, 0.715, 0, 0],
            [0, 0.270, 0.283, 0],
            [0, 0, 0.715, 0],
            [0, 0, 0, 1],
        ],
        dtype=float,
    )
    phi = phi / phi.sum(axis=0, keepdims=True)
    phi_inv = phi_inv / phi_inv.sum(axis=0, keepdims=True)
    return OntologyMap(phi=phi, phi_inv=phi_inv)


def random_model(rng: np.random.Generator, n: int, motor, sensor) -> FiniteStateModel:
    def stoch(rows, cols):
        m = rng.standard_exponential((rows, cols))
        return m / m.sum(axis=0, keepdims=True)

    return FiniteStateModel(
        n=n,
        motor=motor,
        sensor=sensor,
        transitions={x: stoch(n, n) for x in motor},
        output=stoch(len(sensor), n),
    )


def reference_terms(o0, o1, phi, phi_inv, epsilon: float) -> list[float]:
    """The objective's terms in report order, one public kl_columns call
    each: the slow reference the objective kernel must match exactly."""
    policy = SmoothingPolicy(epsilon=epsilon)
    t0, t1 = o0.transitions, o1.transitions
    forward = [kl_columns(t1[x], phi_inv @ t0[x] @ phi, policy) for x in o0.motor]
    backward = [kl_columns(t0[x], phi @ t1[x] @ phi_inv, policy) for x in o0.motor]
    return (
        forward
        + [kl_columns(o1.output, o0.output @ phi, policy)]
        + backward
        + [kl_columns(o0.output, o1.output @ phi_inv, policy)]
    )
