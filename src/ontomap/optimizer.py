"""Seeded multi-restart stochastic hill climbing over map pairs.

Proposals perturb one column at a time in logit space (Gaussian noise of
scale ``step`` on the log-entries, then softmax back to the simplex), which
keeps every iterate strictly interior to the simplex. Only strictly
improving moves are accepted; the step is halved after ``PATIENCE``
consecutive rejections and the climb stops once it falls below
``MIN_STEP``. Restarts draw from independent, seed-derived RNG streams, so
results do not depend on execution order: ``optimize`` climbs them in
lock-step and scores all their proposals in one batched objective call,
or, for map pairs too large to stack, rescores only what each proposal's
moved column changes. Totals are compared through certified intervals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .divergence import DEFAULT_POLICY, SmoothingPolicy
from .model import FiniteStateModel
from .objective import ObjectiveReport, OntologyMap, PairObjective
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
        for name, least in (("seed", 0), ("restarts", 1), ("max_iters", 1)):
            value = getattr(self, name)
            try:
                ok = not isinstance(value, bool) and operator.index(value) >= least
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class RestartOutcome:
    restart: int
    final_total: float
    iterations: int
    accepted: int  # moves accepted
    stop: str  # why the climb stopped: "max_iters" or "min_step"


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


def _perturb_rows(rows: np.ndarray, steps: np.ndarray, epsilon: float, noise: np.ndarray) -> np.ndarray:
    """Each row (a column of one restart's map) moved in logit space by its
    restart's step times its noise, then mapped back to the simplex."""
    logits = np.log(np.maximum(rows, epsilon))
    logits += steps[:, None] * noise
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


def _climb(
    objective: PairObjective,
    starts: list[OntologyMap],
    rngs: list[np.random.Generator],
    max_iters: int,
) -> list[tuple[np.ndarray, np.ndarray, float, int, int, str]]:
    """Climb from each start with its own rng, all restarts in lock-step.

    Each restart draws from its rng exactly as a climb on its own would
    (a column, then that column's noise) and keeps its own step, rejection
    count and stop test. A candidate is accepted when its total is below
    the current one. The certified intervals of ``bounds`` settle that
    comparison when they do not overlap; otherwise ``exact_totals`` sums
    both rows, the current one from its stored entries.

    Candidates are scored in one ``entries`` call, unless the kernel takes
    one map pair per call (``objective.batch == 1``): then each candidate
    is rescored from its restart's current row by ``moved``, which gives
    the same row bit for bit, so the same moves are accepted. Returns (phi,
    phi_inv, total, iterations, accepted moves, stop reason) per restart,
    with the exact total; the stop reason is "min_step" once the step has
    fallen below MIN_STEP, and "max_iters" otherwise.
    """
    n0, n1 = starts[0].n0, starts[0].n1
    n_cols = n1 + n0  # phi has n1 columns, phi_inv has n0
    eps = objective.epsilon
    single = objective.batch == 1
    phi = np.stack([s.phi for s in starts])
    phi_inv = np.stack([s.phi_inv for s in starts])
    # Each restart's current state: its entries row and their certified
    # interval [lo, hi].
    x = objective.entries(phi, phi_inv)
    lo, hi = (b.tolist() for b in objective.bounds(x))
    step = [INITIAL_STEP] * len(starts)
    rejections = [0] * len(starts)
    accepted = [0] * len(starts)
    live = list(range(len(starts)))  # restart index of each stack entry
    done = [None] * len(starts)
    iters = 0
    while live:
        keep = []
        for i, s in enumerate(step):
            if iters < max_iters and s >= MIN_STEP:
                keep.append(i)
            else:
                [total] = objective.exact_totals(x[i : i + 1])
                stop = "min_step" if s < MIN_STEP else "max_iters"
                done[live[i]] = (phi[i], phi_inv[i], total, iters, accepted[i], stop)
        if len(keep) < len(live):
            phi, phi_inv, x = phi[keep], phi_inv[keep], x[keep]
            lo, hi, step, rejections, accepted, live = (
                [v[i] for i in keep] for v in (lo, hi, step, rejections, accepted, live)
            )
            continue
        iters += 1
        # Changed columns, gathered as rows of one batch per matrix.
        batches = ([], [])  # (stack entry, column, noise)
        for i, r in enumerate(live):
            k = int(rngs[r].integers(n_cols))
            m, j = (0, k) if k < n1 else (1, k - n1)
            batches[m].append((i, j, rngs[r].standard_normal(n1 if m else n0)))
        undo = {}
        for m, (mat, batch) in enumerate(zip((phi, phi_inv), batches)):
            if batch:
                old = np.array([mat[i, :, j] for i, j, _ in batch])
                steps = np.array([step[i] for i, _, _ in batch])
                new = _perturb_rows(old, steps, eps, np.array([z for _, _, z in batch]))
                for (i, j, _), row, before in zip(batch, new, old):
                    mat[i, :, j] = row
                    undo[i] = (m, j, before)
        if single:  # a group of one restart
            x_new = objective.moved(phi[0], phi_inv[0], *undo[0][:2], x[0])[None]
        else:
            x_new = objective.entries(phi, phi_inv)
        new_lo, new_hi = (b.tolist() for b in objective.bounds(x_new))
        for i in range(len(live)):
            if new_hi[i] < lo[i]:
                better = True
            elif new_lo[i] >= hi[i]:
                better = False
            else:  # overlapping or non-finite intervals: exact totals decide
                new, cur = objective.exact_totals(np.stack((x_new[i], x[i])))
                better = new < cur
            if better:
                x[i], lo[i], hi[i] = x_new[i], new_lo[i], new_hi[i]
                rejections[i] = 0
                accepted[i] += 1
                continue
            m, j, before = undo[i]
            (phi, phi_inv)[m][i, :, j] = before
            rejections[i] += 1
            if rejections[i] >= PATIENCE:
                step[i] *= STEP_DECAY
                rejections[i] = 0
    return done


def hill_climb(
    o0: FiniteStateModel,
    o1: FiniteStateModel,
    start: OntologyMap,
    config: OptimizerConfig,
    rng: np.random.Generator,
) -> tuple[OntologyMap, ObjectiveReport, int]:
    """Climb from ``start``; returns (map, report, iterations used).

    The returned map's total never exceeds the start's, and the sequence of
    accepted totals is strictly decreasing. Raises ValueError for an
    invalid model pair or a start of the wrong shape.
    """
    objective = PairObjective(o0, o1, config.policy.epsilon)
    objective.check_map(start)
    [(phi, phi_inv, _, iters, _, _)] = _climb(objective, [start], [rng], config.max_iters)
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
    objective = PairObjective(o0, o1, config.policy.epsilon)
    outcomes = []
    best = None
    # Restarts are independent, so climbing them in groups of the kernel's
    # batch size changes no result.
    for first in range(0, config.restarts, objective.batch):
        group = range(first, min(first + objective.batch, config.restarts))
        rngs = [_restart_rng(config.seed, r) for r in group]
        starts = [random_map(o0.n, o1.n, rng) for rng in rngs]
        climbs = _climb(objective, starts, rngs, config.max_iters)
        for r, (phi, phi_inv, total, iters, accepted, stop) in zip(group, climbs):
            outcomes.append(
                RestartOutcome(restart=r, final_total=total, iterations=iters, accepted=accepted, stop=stop)
            )
            if best is None or total < best[2]:
                best = (phi, phi_inv, total)
    best_map = OntologyMap(phi=best[0], phi_inv=best[1])
    return OptimizationResult(
        best_map=best_map,
        best_report=objective.report(best_map.phi, best_map.phi_inv),
        per_restart=tuple(outcomes),
    )
