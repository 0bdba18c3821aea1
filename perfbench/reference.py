"""Reference computations the workload checks compare the program against.

Written apart from ``ontomap`` with numpy and math only. Column KL is in
nats; approximation columns are floored at epsilon and renormalised, and
true-side zeros contribute exactly 0. Models are the parsed JSON documents
of the file format, with columns renormalised as the format specifies.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

import numpy as np

EPSILON = 1e-9


def load_model(path: Path) -> dict:
    """Model file -> {"T": {symbol: matrix}, "A": matrix, "motor": [...]}."""
    doc = json.loads(Path(path).read_text())

    def renorm(rows):
        m = np.array(rows, dtype=float)
        return m / m.sum(axis=0, keepdims=True)

    return {
        "motor": list(doc["motor"]),
        "T": {x: renorm(doc["transitions"][x]) for x in doc["motor"]},
        "A": renorm(doc["output"]),
    }


def kl_columns(p: np.ndarray, q: np.ndarray, epsilon: float = EPSILON) -> float:
    """Sum over columns of KL(p_col || floored-and-renormalised q_col)."""
    p = np.asarray(p, dtype=float).reshape(len(p), -1)
    q = np.maximum(np.asarray(q, dtype=float).reshape(len(q), -1), epsilon)
    q = q / q.sum(axis=0, keepdims=True)
    mask = p > 0
    return math.fsum(p[mask] * np.log(p[mask] / q[mask]))


def objective_terms(o0: dict, o1: dict, phi, phi_inv, epsilon: float = EPSILON) -> dict:
    """Every term of the bisimulation objective plus their total."""
    phi = np.asarray(phi, dtype=float)
    phi_inv = np.asarray(phi_inv, dtype=float)
    fwd = {x: kl_columns(o1["T"][x], phi_inv @ o0["T"][x] @ phi, epsilon) for x in o0["motor"]}
    bwd = {x: kl_columns(o0["T"][x], phi @ o1["T"][x] @ phi_inv, epsilon) for x in o0["motor"]}
    fwd_out = kl_columns(o1["A"], o0["A"] @ phi, epsilon)
    bwd_out = kl_columns(o0["A"], o1["A"] @ phi_inv, epsilon)
    total = sum(fwd.values()) + fwd_out + sum(bwd.values()) + bwd_out
    return {"forward": fwd, "forward_out": fwd_out, "backward": bwd, "backward_out": bwd_out, "total": total}


def objective(o0: dict, o1: dict, phi, phi_inv, epsilon: float = EPSILON) -> float:
    return objective_terms(o0, o1, phi, phi_inv, epsilon)["total"]


def grid_columns(dim: int, steps: int) -> np.ndarray:
    """All probability vectors of length dim with entries in multiples of
    1/steps, one per row."""
    cols = [c + (steps - sum(c),) for c in product(range(steps + 1), repeat=dim - 1) if sum(c) <= steps]
    return np.array(cols, dtype=float) / steps


def grid_choices(rows: int, cols: int, steps: int) -> np.ndarray:
    """Every (rows x cols) matrix whose columns are grid vectors: (B, rows, cols)."""
    g = grid_columns(rows, steps)
    idx = np.array(list(product(range(len(g)), repeat=cols)))
    return np.transpose(g[idx], (0, 2, 1))


def _batched_kl(p: np.ndarray, q: np.ndarray, epsilon: float) -> np.ndarray:
    q = np.maximum(q, epsilon)
    q = q / q.sum(axis=-2, keepdims=True)
    mask = p > 0
    return np.sum(p[mask] * np.log(p[mask] / q[..., mask]), axis=-1)


def grid_search(o0: dict, o1: dict, steps: int, epsilon: float = EPSILON, chunk: int = 21):
    """Minimum of the objective over the simplex grid with 1/steps spacing.

    A vectorised pass over chunks of phi choices finds every grid point
    within 1e-9 of the smallest approximate total; those few points are then
    scored exactly with ``objective``. Returns (min total, phi, phi_inv,
    number of grid points).
    """
    n0, n1 = o0["A"].shape[1], o1["A"].shape[1]
    phis = grid_choices(n0, n1, steps)
    invs = grid_choices(n1, n0, steps)
    approx = np.empty((len(phis), len(invs)))
    for start in range(0, len(phis), chunk):
        ph = phis[start : start + chunk, None]  # (c, 1, n0, n1)
        total = _batched_kl(o1["A"], o0["A"] @ ph, epsilon) + _batched_kl(o0["A"], o1["A"] @ invs, epsilon)
        for x in o0["motor"]:
            total = total + _batched_kl(o1["T"][x], invs @ o0["T"][x] @ ph, epsilon)
            total = total + _batched_kl(o0["T"][x], ph @ o1["T"][x] @ invs, epsilon)
        approx[start : start + chunk] = total
    low = approx.min()
    best = None
    for i, j in zip(*np.nonzero(approx <= low + 1e-9 * (1 + abs(low)))):
        phi, phi_inv = np.array(phis[i]), np.array(invs[j])
        exact = objective(o0, o1, phi, phi_inv, epsilon)
        if best is None or exact < best[0]:
            best = (exact, phi, phi_inv)
    return best + (approx.size,)


def step_variation(o0: dict, o1: dict, phi, phi_inv, resolution: float, epsilon: float = EPSILON) -> float:
    """Largest |objective change| from moving ``resolution`` of mass between
    two entries of one column of phi or phi_inv."""
    phi = np.asarray(phi, dtype=float)
    phi_inv = np.asarray(phi_inv, dtype=float)
    base = objective(o0, o1, phi, phi_inv, epsilon)
    worst = 0.0
    for which in (0, 1):
        mat = (phi, phi_inv)[which]
        rows, cols = mat.shape
        for j, a, b in product(range(cols), range(rows), range(rows)):
            if a == b or mat[a, j] < resolution:
                continue
            moved = [phi.copy(), phi_inv.copy()]
            moved[which][a, j] -= resolution
            moved[which][b, j] += resolution
            worst = max(worst, abs(objective(o0, o1, moved[0], moved[1], epsilon) - base))
    return worst


def column_stochastic(mat, tol: float = 1e-9) -> bool:
    mat = np.asarray(mat, dtype=float)
    return bool(np.all(np.isfinite(mat)) and np.all(mat >= -tol) and np.all(np.abs(mat.sum(axis=0) - 1) <= tol))
