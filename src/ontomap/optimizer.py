"""Seeded multi-restart stochastic hill climbing over map pairs.

Proposals perturb one column at a time in logit space (Gaussian noise of
scale ``step`` on the log-entries, then softmax back to the simplex), which
keeps every iterate strictly interior to the simplex. Only strictly
improving moves are accepted; the step is halved after ``PATIENCE``
consecutive rejections and the climb stops once it falls below
``MIN_STEP``. Restarts draw from independent, seed-derived RNG streams, so
results do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DEFAULT_POLICY, SmoothingPolicy
from .model import FiniteStateModel
from .objective import ObjectiveReport, OntologyMap, PairObjective, _check_pair
from .objective import evaluate  # noqa: F401  (perfbench/spans.py wraps it here)

INITIAL_STEP = 0.5
STEP_DECAY = 0.5
PATIENCE = 200
MIN_STEP = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 10
    max_iters: int = 20000
    policy: SmoothingPolicy = DEFAULT_POLICY

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class RestartOutcome:
    restart: int
    final_total: float
    iterations: int


@dataclass(frozen=True)
class OptimizationResult:
    best_map: OntologyMap
    best_report: ObjectiveReport
    per_restart: tuple[RestartOutcome, ...]


def random_map(n0: int, n1: int, rng: np.random.Generator) -> OntologyMap:
    """Map pair with each column drawn uniformly from the simplex."""
    if n0 < 1 or n1 < 1:
        raise ValueError("state counts must be positive")
    phi = rng.standard_exponential((n0, n1))
    phi_inv = rng.standard_exponential((n1, n0))
    return OntologyMap(
        phi=phi / phi.sum(axis=0, keepdims=True),
        phi_inv=phi_inv / phi_inv.sum(axis=0, keepdims=True),
    )


def _perturb_column(col: np.ndarray, step: float, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    logits = np.log(np.maximum(col, epsilon))
    logits = logits + step * rng.standard_normal(len(col))
    logits -= logits.max()
    e = np.exp(logits)
    return e / e.sum()


def hill_climb(
    o0: FiniteStateModel,
    o1: FiniteStateModel,
    start: OntologyMap,
    config: OptimizerConfig,
    rng: np.random.Generator,
) -> tuple[OntologyMap, ObjectiveReport, int]:
    """Climb from ``start``; returns (map, report, iterations used).

    The returned map's total never exceeds the start's, and the sequence of
    accepted totals is strictly decreasing. Trusts its models: ``optimize``
    is the validated entry point.
    """
    if start.n0 != o0.n or start.n1 != o1.n:
        raise ValueError(
            f"map shape ({start.n0}, {start.n1}) does not match models ({o0.n}, {o1.n})"
        )
    eps = config.policy.epsilon
    objective = PairObjective(o0, o1, eps)
    phi = np.array(start.phi)
    phi_inv = np.array(start.phi_inv)
    current = objective.total(phi, phi_inv)
    step = INITIAL_STEP
    rejections = 0
    iters = 0
    n_cols = o1.n + o0.n  # phi has n1 columns, phi_inv has n0
    while iters < config.max_iters and step >= MIN_STEP:
        iters += 1
        k = int(rng.integers(n_cols))
        if k < o1.n:
            mat, j = phi, k
        else:
            mat, j = phi_inv, k - o1.n
        old_col = mat[:, j].copy()
        mat[:, j] = _perturb_column(old_col, step, eps, rng)
        candidate = objective.total(phi, phi_inv)
        if candidate < current:
            current = candidate
            rejections = 0
        else:
            mat[:, j] = old_col
            rejections += 1
            if rejections >= PATIENCE:
                step *= STEP_DECAY
                rejections = 0
    result = OntologyMap(phi=phi, phi_inv=phi_inv)
    return result, objective.report(result.phi, result.phi_inv), iters


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    # Seed-derived independent streams; reproducible regardless of the
    # order restarts are executed in.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(restart,)))


def optimize(
    o0: FiniteStateModel,
    o1: FiniteStateModel,
    config: OptimizerConfig = OptimizerConfig(),
) -> OptimizationResult:
    """Best-of-``config.restarts`` hill climbing from random starts.

    Fully deterministic given the config; ties between restarts break
    toward the lowest restart index.
    """
    _check_pair(o0, o1)
    outcomes = []
    best = None
    best_restart = None
    for r in range(config.restarts):
        rng = _restart_rng(config.seed, r)
        start = random_map(o0.n, o1.n, rng)
        mapping, report, iters = hill_climb(o0, o1, start, config, rng)
        outcomes.append(RestartOutcome(restart=r, final_total=report.total, iterations=iters))
        if best is None or report.total < best[1].total:
            best = (mapping, report)
            best_restart = r
    return OptimizationResult(
        best_map=best[0], best_report=best[1], per_restart=tuple(outcomes)
    )
