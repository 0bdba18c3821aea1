"""Brute-force grid search over map pairs, for validating the optimizer.

Enumerates every map whose columns lie on a discretized simplex (entries
are multiples of the resolution) and returns the best under the objective.
Only feasible for tiny instances; the free-parameter cap keeps it honest.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .divergence import DEFAULT_POLICY, SmoothingPolicy
from .model import FiniteStateModel
from .objective import OntologyMap, PairObjective

MAX_FREE_PARAMETERS = 6
DEFAULT_RESOLUTION = 0.05
# Cap on the map pairs of one grid; at the default resolution 0.05 the
# largest instance within MAX_FREE_PARAMETERS (1 and 7 states) has 230 230.
MAX_GRID_POINTS = 10**7


def free_parameters(n0: int, n1: int) -> int:
    return n1 * (n0 - 1) + n0 * (n1 - 1)


def _grid_steps(resolution: float) -> int:
    """Grid steps per unit of mass; the resolution must divide 1."""
    if not 0.0 < resolution <= 1.0:
        raise ValueError(f"resolution must be in (0, 1], got {resolution!r}")
    if 1.0 / resolution == math.inf:
        raise ValueError(f"resolution {resolution!r} is too fine to count its grid steps")
    steps = round(1.0 / resolution)
    if abs(1.0 / resolution - steps) > 1e-9:
        raise ValueError(f"resolution must divide 1, got {resolution!r}")
    return steps


def _grid(n0: int, n1: int, resolution: float) -> tuple[int, int, int]:
    """(steps, phi grid points, phi_inv grid points) of the grid of
    (n0, n1) map pairs, counted before anything is enumerated; the grid
    may hold at most MAX_GRID_POINTS map pairs."""
    steps = _grid_steps(resolution)
    n_phi = math.comb(steps + n0 - 1, n0 - 1) ** n1
    n_inv = math.comb(steps + n1 - 1, n1 - 1) ** n0
    if n_phi * n_inv > MAX_GRID_POINTS:
        raise ValueError(f"resolution {resolution!r} gives more than {MAX_GRID_POINTS} grid points")
    return steps, n_phi, n_inv


def _grid_columns(dim: int, steps: int) -> np.ndarray:
    """All probability vectors of the given dimension whose entries are
    multiples of 1/steps, one per row, in lexicographic order."""
    # Stars and bars: dim - 1 bars among steps + dim - 1 slots, in
    # lexicographic order, give every composition of steps into dim parts
    # in lexicographic order.
    bars = list(combinations(range(steps + dim - 1), dim - 1))
    bars = np.array(bars, dtype=np.intp).reshape(len(bars), dim - 1)
    return (np.diff(bars, axis=1, prepend=-1, append=steps + dim - 1) - 1) / steps


def _grid_maps(cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Every map of ``n_cols`` columns drawn from the rows of ``cols``, in
    ``product(cols, repeat=n_cols)`` order, as a stack of matrices."""
    digits = np.indices((len(cols),) * n_cols).reshape(n_cols, -1).T
    return np.ascontiguousarray(cols[digits].transpose(0, 2, 1))


def oracle_search(
    o0: FiniteStateModel,
    o1: FiniteStateModel,
    resolution: float = DEFAULT_RESOLUTION,
    policy: SmoothingPolicy = DEFAULT_POLICY,
) -> tuple[OntologyMap, float]:
    """Exhaustive search; returns (best map, best total).

    Ties keep the first grid point in enumeration order: phi outer,
    phi_inv inner, each in ``product`` order of its grid columns. The grid
    is scored in blocks of phi maps x phi_inv maps, one broadcasting
    ``entries`` call of at most ``batch`` pairs each. Exact totals are
    taken only where the certified intervals of ``PairObjective.bounds``
    cannot rule a point out.
    """
    n0, n1 = o0.n, o1.n
    if free_parameters(n0, n1) > MAX_FREE_PARAMETERS:
        raise ValueError(
            f"instance has {free_parameters(n0, n1)} free parameters; "
            f"oracle is capped at {MAX_FREE_PARAMETERS}"
        )
    steps, n_phi, n_inv = _grid(n0, n1, resolution)
    objective = PairObjective(o0, o1, policy.epsilon)
    # Blocks of n_i phi maps x n_j phi_inv maps, phi blocks outer. A block
    # spans every phi_inv map or holds one phi map, so blocks and their
    # rows run in grid order.
    n_j = min(n_inv, objective.batch)
    n_i = max(1, objective.batch // n_j)
    # Both sides' maps, built once: under the free-parameter cap each stack
    # takes at most the space of its grid columns, or of 3 136 2 x 2 maps.
    phi_maps = _grid_maps(_grid_columns(n0, steps), n1)
    inv_maps = _grid_maps(_grid_columns(n1, steps), n0)
    best_total = np.inf
    best = None
    for first_i in range(0, n_phi, n_i):
        phi = phi_maps[first_i : first_i + n_i]
        for first_j in range(0, n_inv, n_j):
            phi_inv = inv_maps[first_j : first_j + n_j]
            # Only rows whose certified interval reaches down to the least
            # upper bound can hold the block's first minimum below
            # best_total; a NaN bound makes every row a candidate, as the
            # exact argmin would see it.
            x = objective.entries(phi[:, None], phi_inv[None])
            lo, hi = objective.bounds(x)
            candidates = np.flatnonzero(~(lo > min(hi.min(), best_total)))
            if not len(candidates):
                continue
            totals = objective.exact_totals(x[candidates])
            k = int(np.argmin(totals))
            if totals[k] < best_total:
                best_total = totals[k]
                i, j = divmod(candidates[k], len(phi_inv))
                best = OntologyMap(phi=phi[i], phi_inv=phi_inv[j])
    return best, best_total


def grid_step_variation(
    o0: FiniteStateModel,
    o1: FiniteStateModel,
    mapping: OntologyMap,
    resolution: float = DEFAULT_RESOLUTION,
    policy: SmoothingPolicy = DEFAULT_POLICY,
) -> float:
    """Largest objective change from moving one grid step away from the map.

    Moves one unit of mass (of size ``resolution``) between a pair of
    entries within a single column; used as the tolerance when comparing
    the oracle's best against the optimizer's.
    """
    _grid_steps(resolution)
    objective = PairObjective(o0, o1, policy.epsilon)
    objective.check_map(mapping)
    base = objective.report(mapping.phi, mapping.phi_inv).total
    worst = 0.0
    for m, mat in enumerate((mapping.phi, mapping.phi_inv)):
        for a, j in np.argwhere(mat >= resolution):
            for b in range(len(mat)):
                if b != a:
                    moved = [np.array(mapping.phi), np.array(mapping.phi_inv)]
                    moved[m][a, j] -= resolution
                    moved[m][b, j] += resolution
                    worst = max(worst, abs(objective.report(*moved).total - base))
    return worst
