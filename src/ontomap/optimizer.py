"""Seeded multi-restart stochastic hill climbing over map pairs.

Proposals perturb one column at a time in logit space (Gaussian noise of
scale ``step`` on the log-entries, then softmax back to the simplex), which
keeps every iterate strictly interior to the simplex. Only strictly
improving moves are accepted; the step is halved after ``PATIENCE``
consecutive rejections and the climb stops once it falls below
``MIN_STEP``. Restarts draw from independent, seed-derived RNG streams, so
results do not depend on execution order: ``optimize`` climbs them in
lock-step. Each round scores a window of every restart's next proposals
(``FIRST_WINDOW`` plus its rejections since its last acceptance or step
decay) in one batched objective call, on the assumption that each is
rejected, and keeps the ones up to the first acceptance; for map pairs too
large to stack, it rescores only what each proposal's moved column
changes. Totals are compared through certified intervals.
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
FIRST_WINDOW = 4  # proposals per restart and round, before any rejection


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
    count, iteration count and stop test. A candidate is accepted when its
    total is below the current one. The certified intervals of ``bounds``
    settle that comparison when they do not overlap; otherwise
    ``exact_totals`` sums both rows, the current one from its stored
    entries. Every restart keeps its slot (its index in ``starts``) from
    start to end; a restart that stops just leaves the live ones.

    The climb goes in rounds, each scoring a window of every live
    restart's next proposals in one ``entries`` call (speculative moves,
    or pre-fetching: Brockwell 2006). Proposal t of a window is built from
    the restart's current maps with the step it has after t rejections, as
    if every earlier one were rejected. The windows are walked in order;
    the first acceptance ends a window, and the draws of the proposals
    after it stay queued for the next round. So each restart consumes its
    draws and accepts its moves exactly as a climb of one proposal per
    iteration does. A window holds FIRST_WINDOW proposals plus the
    restart's rejections since its last acceptance or step decay, at most
    ``objective.batch // FIRST_WINDOW`` (one at least) per restart and
    ``objective.batch`` per round. It ends at the restart's last iteration
    and before its step would decay, so it never draws past the restart's
    stop and its proposals share one step.

    When the kernel takes one map pair per call (``objective.batch ==
    1``), a window holds one proposal, rescored from its restart's current
    row by ``moved``, which gives the same row bit for bit. Returns (phi,
    phi_inv, total, iterations, accepted moves, stop reason) per restart,
    with the exact total; the stop reason is "min_step" once the step has
    fallen below MIN_STEP, and "max_iters" otherwise.
    """
    n0, n1 = starts[0].n0, starts[0].n1
    n_cols = n1 + n0  # phi has n1 columns, phi_inv has n0
    maps = (np.stack([s.phi for s in starts]), np.stack([s.phi_inv for s in starts]))
    # Each restart's current state: its entries row and their certified
    # interval [lo, hi].
    x = objective.entries(*maps)
    lo, hi = (b.tolist() for b in objective.bounds(x))
    count = len(starts)
    step = [INITIAL_STEP] * count
    rejections = [0] * count
    accepted = [0] * count
    iters = [0] * count
    drawn = [[] for _ in range(count)]  # draws not yet consumed: (matrix, column, noise)
    live = list(range(count))  # the restarts that have not stopped
    while live:
        # A restart's window holds batch // FIRST_WINDOW proposals at most:
        # 3 for dense pairs of 1 120 entries (16 x 16 models), where windows
        # paid off, and 1 for 2 704 (16 x 32), where they did not.
        cap = min(max(1, objective.batch // FIRST_WINDOW), objective.batch // len(live))
        props = []  # (matrix, column, noise) of each row
        owner = []  # the restart of each row
        sizes = []  # (restart, rows) of each window
        for i in live:
            w = min(FIRST_WINDOW + rejections[i], cap, max_iters - iters[i], PATIENCE - rejections[i])
            queue = drawn[i]
            while len(queue) < w:
                k = int(rngs[i].integers(n_cols))
                m, j = (0, k) if k < n1 else (1, k - n1)
                queue.append((m, j, rngs[i].standard_normal(n1 if m else n0)))
            props += queue[:w]
            owner += [i] * w
            sizes.append((i, w))
        # Each row is a copy of its restart's current maps with one column moved.
        rows = (maps[0].take(owner, axis=0), maps[1].take(owner, axis=0))
        for m in (0, 1):
            picked = [(k, j, noise, step[owner[k]]) for k, (side, j, noise) in enumerate(props) if side == m]
            if picked:
                k, j, noise, steps = map(np.array, zip(*picked))  # the moved columns and their moves
                rows[m][k, :, j] = _perturb_rows(rows[m][k, :, j], steps, objective.epsilon, noise)
        if objective.batch == 1:  # one restart, one proposal
            m, j, _ = props[0]
            x_new = objective.moved(rows[0][0], rows[1][0], m, j, x[owner[0]])[None]
        else:
            x_new = objective.entries(*rows)
        new_lo, new_hi = (b.tolist() for b in objective.bounds(x_new))
        # Walk each window in order up to its first acceptance.
        first = 0
        for i, w in sizes:
            for k in range(first, first + w):
                if new_hi[k] < lo[i]:
                    better = True
                elif new_lo[k] >= hi[i]:
                    better = False
                else:  # overlapping or non-finite intervals: exact totals decide
                    a, c = objective.exact_totals(np.stack((x_new[k], x[i])))
                    better = a < c
                if better:
                    m, j, _ = props[k]
                    maps[m][i, :, j] = rows[m][k, :, j]
                    x[i], lo[i], hi[i] = x_new[k], new_lo[k], new_hi[k]
                    rejections[i] = 0
                    accepted[i] += 1
                    used = k + 1 - first
                    break
            else:  # every proposal rejected
                used = w
                rejections[i] += w
                if rejections[i] == PATIENCE:
                    step[i] *= STEP_DECAY
                    rejections[i] = 0
            iters[i] += used
            del drawn[i][:used]
            first += w
            if iters[i] == max_iters or step[i] < MIN_STEP:
                live.remove(i)
    stops = ["min_step" if s < MIN_STEP else "max_iters" for s in step]
    return list(zip(maps[0], maps[1], objective.exact_totals(x), iters, accepted, stops))


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
    # Restarts are independent, so climbing them in groups of the kernel's
    # batch size changes no result.
    climbs = []
    for first in range(0, config.restarts, objective.batch):
        rngs = [_restart_rng(config.seed, r) for r in range(first, min(first + objective.batch, config.restarts))]
        starts = [random_map(o0.n, o1.n, rng) for rng in rngs]
        climbs += _climb(objective, starts, rngs, config.max_iters)
    phi, phi_inv = min(climbs, key=lambda climb: climb[2])[:2]  # the first of equal totals
    return OptimizationResult(
        best_map=OntologyMap(phi=phi, phi_inv=phi_inv),
        best_report=objective.report(phi, phi_inv),
        per_restart=tuple(RestartOutcome(r, *climb[2:]) for r, climb in enumerate(climbs)),
    )
