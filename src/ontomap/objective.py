"""Composite bisimulation objective for a pair of models and a map pair.

For models O0 (n0 states) and O1 (n1 states) and column-stochastic maps
phi (n0 x n1) and phi_inv (n1 x n0), the objective sums, over every motor
symbol x, the column-KL of T1^x against phi_inv @ T0^x @ phi and of T0^x
against phi @ T1^x @ phi_inv, plus the two output terms comparing A1 with
A0 @ phi and A0 with A1 @ phi_inv.

Note on the output terms: conjugating A0 by phi_inv on the left is
dimensionally impossible (phi_inv maps state distributions, not sensor
distributions), so the output comparisons compose the maps on the state
side only: A0 @ phi against A1, and A1 @ phi_inv against A0.

``PairObjective.approximations`` is the one place the four approximation
blocks are formed; ``entries`` and ``moved`` smooth and score them.
``PairObjective`` owns the question "which total is lower": ``bounds``
gives each row of entries a certified interval around its total, and
``exact_totals`` the correctly rounded totals that settle the rows whose
intervals overlap. ``report`` scores a single map pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .divergence import DEFAULT_POLICY, SmoothingPolicy, _fsums, _kl_entries, _smooth, _smooth_column
from .divergence import kl_columns  # noqa: F401  (perfbench/spans.py wraps it here)
from .model import FiniteStateModel, ModelValidationError, dump_json, load_json
from .model import _freeze, _matrix_from_rows, column_violations
from .model import validate_model  # noqa: F401  (perfbench/spans.py wraps it here)


@dataclass(frozen=True)
class OntologyMap:
    """Pair of column-stochastic maps between the state spaces of two models.

    phi carries O1 state distributions to O0; phi_inv carries O0
    distributions to O1. phi_inv is a notational inverse only.
    """

    phi: np.ndarray
    phi_inv: np.ndarray

    def __post_init__(self):
        phi, phi_inv = _freeze(self.phi, "phi", 2), _freeze(self.phi_inv, "phi_inv", 2)
        violations = column_violations("phi", phi) + column_violations("phi_inv", phi_inv)
        if violations:
            raise ModelValidationError(violations)
        if phi.shape != phi_inv.shape[::-1]:
            raise ValueError(
                f"phi is {phi.shape} but phi_inv is {phi_inv.shape}; expected transposed shapes"
            )
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_inv", phi_inv)

    @property
    def n0(self) -> int:
        return self.phi.shape[0]

    @property
    def n1(self) -> int:
        return self.phi.shape[1]

    def swapped(self) -> "OntologyMap":
        """The same map pair viewed from the other model's side."""
        return OntologyMap(phi=self.phi_inv, phi_inv=self.phi)


@dataclass(frozen=True)
class ObjectiveReport:
    """Objective value with its per-term breakdown; ``total`` is
    ``math.fsum(terms())``."""

    total: float
    forward_transition_terms: dict[str, float]
    forward_output_term: float
    backward_transition_terms: dict[str, float]
    backward_output_term: float

    def terms(self) -> list[float]:
        return (
            list(self.forward_transition_terms.values())
            + [self.forward_output_term]
            + list(self.backward_transition_terms.values())
            + [self.backward_output_term]
        )

    def to_bytes(self) -> bytes:
        return dump_json(asdict(self))


def read_map(source) -> OntologyMap:
    """Parse a map file: JSON with row-major ``phi`` and ``phi_inv``."""
    phi, phi_inv = load_json(source, "map", lambda doc: [_matrix_from_rows(doc[k], k) for k in ("phi", "phi_inv")])
    return OntologyMap(phi=phi, phi_inv=phi_inv)


def write_map(mapping: OntologyMap) -> bytes:
    return dump_json({"phi": mapping.phi.tolist(), "phi_inv": mapping.phi_inv.tolist()})


# Cap on the float64 entries of one stacked approximation: 16 384 entries
# (128 KiB) keep a batch's temporaries in cache; larger stacks page-fault
# more than batching saves. Callers split their stacks by ``batch``.
MAX_STACK_ENTRIES = 16384


class PairObjective:
    """The objective of one model pair, as a function of the map pair.

    Built once per model pair, which it checks: the models must share their
    motor and sensor alphabets. Each model's transition matrices are stacked
    in motor order, and a row of entries scores every entry of the four term
    blocks, in report order.
    """

    def __init__(self, o0: FiniteStateModel, o1: FiniteStateModel, epsilon: float):
        if o0.motor != o1.motor or o0.sensor != o1.sensor:
            raise ValueError("models must share motor and sensor alphabets")
        self.motor = o0.motor.symbols
        self.epsilon = epsilon
        # Each side's transition stack and output matrix: side 0 is O0, whose
        # approximations phi_inv @ T0^x @ phi and A0 @ phi move with phi's
        # columns; side 1 is O1, whose approximations move with phi_inv's.
        self.t = tuple(np.stack([o.transitions[x] for x in self.motor]) for o in (o0, o1))
        self.a = (o0.output, o1.output)
        # True sides as stacks of terms, in report order: T1^x for each x,
        # A1, T0^x for each x, A0.
        trues = (self.t[1], self.a[1][None], self.t[0], self.a[0][None])
        # As a row, so that one map pair's entries need no broadcasting.
        self.p = np.concatenate(trues, axis=None)[None]
        # The zero guard: a true-side zero scores 0 * log(1 / q) = +0.0, as
        # 0 * log 0 = 0 asks. A kernel approximation column sums to 1 up to
        # rounding and is floored at epsilon >= 2**-1022, so q is at most 1
        # and 1 / q at most ~2**1022: the log is finite and nonnegative.
        self.p1 = np.where(self.p > 0, self.p, 1.0)
        # Each term's and each block's (start, stop) in a row of entries.
        stops = np.cumsum([term.size for block in trues for term in block]).tolist()
        self.segments = list(zip([0] + stops[:-1], stops))
        ends = np.cumsum([block.size for block in trues]).tolist()
        self.blocks = list(zip([0] + ends[:-1], ends))
        #: Map pairs per ``entries`` call that keep it within MAX_STACK_ENTRIES.
        self.batch = max(1, MAX_STACK_ENTRIES // self.p.shape[1])
        # k = N + 2 for N entries per pair; the bound in ``bounds`` holds
        # for k <= 2**25, beyond which every comparison takes the exact sums.
        k = self.p.shape[1] + 2
        self.radius_scale = 2 * k * 2.0**-53 if k <= 2**25 else np.inf

    def check_map(self, mapping: OntologyMap) -> None:
        """Raise ValueError unless ``mapping`` maps between this pair's states."""
        n = tuple(a.shape[1] for a in self.a)  # the state counts of O0 and O1
        if (mapping.n0, mapping.n1) != n:
            raise ValueError(f"map shape ({mapping.n0}, {mapping.n1}) does not match models {n}")

    def approximations(self, phi: np.ndarray, phi_inv: np.ndarray) -> list[np.ndarray]:
        """The four unsmoothed approximation blocks of stacks of maps
        (..., n0, n1) and (..., n1, n0), in row order: phi_inv @ T0^x @ phi,
        A0 @ phi, phi @ T1^x @ phi_inv and A1 @ phi_inv, each shaped as its
        true side, (..., m, n, n) or (..., 1, s, n). A transition block
        takes the maps' broadcast stack and an output block its own map's;
        a left factor (phi_inv @ T0^x or phi @ T1^x) is formed once per map
        of its own stack."""
        q = []
        for side, (right, left) in enumerate(((phi, phi_inv), (phi_inv, phi))):
            right = right[..., None, :, :]
            q += [left[..., None, :, :] @ self.t[side] @ right, self.a[side] @ right]
        return q

    def entries(self, phi: np.ndarray, phi_inv: np.ndarray) -> np.ndarray:
        """The KL entries of each map pair in stacks of shape (..., n0, n1)
        and (..., n1, n0) whose stack dimensions broadcast, as an (R, N)
        matrix: one row per pair of the broadcast stack, in C order, and one
        column per entry of the four term blocks, in the order of the terms.
        Each block of ``approximations`` is smoothed and written into its
        span of ``blocks``, so an output block is smoothed once per map of
        its own stack; a row's bits depend only on its map pair."""
        q = self.approximations(phi, phi_inv)
        row = np.empty(q[0].shape[:-3] + self.p.shape[1:])
        for (start, stop), block in zip(self.blocks, q):
            row[..., start:stop] = _smooth(block, self.epsilon).reshape(block.shape[:-3] + (-1,))
        return _kl_entries(self.p, self.p1, row.reshape(-1, self.p.shape[1]))

    def moved(self, phi: np.ndarray, phi_inv: np.ndarray, side: int, j: int, x: np.ndarray) -> np.ndarray:
        """The entries row of the map pair (phi, phi_inv), whose column j of
        phi (side 0) or of phi_inv (side 1) has moved since its row was
        ``x``.

        Moving column j of phi changes column j of phi_inv @ T0^x @ phi and
        of A0 @ phi, every entry of phi @ T1^x @ phi_inv, and nothing of
        A1 @ phi_inv; a column of phi_inv mirrors this. The blocks come
        from ``approximations``, as in ``entries``, but only the changed
        entries are smoothed and rescored (``_smooth_column`` for column
        j), and the others are copied from ``x``: the row equals
        ``entries(phi[None], phi_inv[None])[0]`` bit for bit.
        """
        eps, b, q = self.epsilon, self.blocks, self.approximations(phi[None], phi_inv[None])
        # A side's two blocks read as one (m * n + s, n) matrix, so column j
        # of both takes every n-th entry from the side's j-th.
        column = slice(b[2 * side][0] + j, b[2 * side + 1][1], q[2 * side].shape[-1])
        other = slice(*b[2 - 2 * side])
        changed = np.concatenate([_smooth_column(c, j, eps) for c in q[2 * side : 2 * side + 2]], axis=None)
        p, p1, row = self.p[0], self.p1[0], x.copy()
        row[column] = _kl_entries(p[column], p1[column], changed)
        row[other] = _kl_entries(p[other], p1[other], _smooth(q[2 - 2 * side], eps).reshape(-1))
        return row

    def bounds(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row of entries ``x`` (from ``entries``), the certified
        interval (lo, hi) = (a - r, a + r) around c, exactly what
        ``exact_totals`` returns for that row: ``a`` is the row's float sum
        and the radius ``r`` has |a - c| <= r / 2.

        Proof, with u = 2**-53, gamma_j = j * u / (1 - j * u), N entries per
        row, S the exact sum of a row and s = sum |x_i|:

        * ``a`` is a float sum of the N entries, and any summation tree
          (numpy's pairwise one, or partial sums added up) gives
          |a - S| <= gamma_{N-1} * s. The computed s' of the |x_i|
          likewise has s <= s' / (1 - gamma_{N-1}).
        * c = fl(sum t_j) is the correctly rounded sum of the correctly
          rounded term sums t_j: |t_j - T_j| <= u * |T_j| for each exact
          term sum T_j, and |c - sum t_j| <= u * (1 + u) * s, so
          |c - S| <= u * s + u * (1 + u) * s <= gamma_2 * s.
        * With K = N + 1, gamma_{N-1} + gamma_2 <= gamma_K, so
          |a - c| <= gamma_K * s' / (1 - gamma_{N-1}) <= K * u * s' / (1 - 2 * K * u),
          which is at most k * u * s' * (1 - u)**2 for k = K + 1 <= 2**25.
        * r is computed as 2 * k * u * s' (k * u is exact) plus 2**-1069, so
          r >= 2 * k * u * s' * (1 - u)**2: the product underflows by at
          most 2**-1075. Half of r bounds |a - c|; the other half covers the
          rounding of a +- r, since u * |a +- r| <= u * (1.01 * s' + r) is
          below r / 2 for k >= 2. So the computed a + r is at least c and
          the computed a - r at most c. Additions, and exact sums of
          subnormals, round relatively or not at all.

        A non-finite entry makes ``a`` or ``r`` non-finite, and so lo or hi
        NaN or infinite: no comparison of such an interval can settle.
        """
        a, r = x.sum(axis=1), np.abs(x).sum(axis=1) * self.radius_scale + 2.0**-1069
        return a - r, a + r

    def exact_totals(self, x: np.ndarray) -> list[float]:
        """The objective of each row of entries ``x``: ``math.fsum`` of its term sums."""
        return [math.fsum(terms) for terms in _fsums(x, self.segments)]

    def report(self, phi: np.ndarray, phi_inv: np.ndarray) -> ObjectiveReport:
        """The objective at (phi, phi_inv) with its per-term breakdown."""
        terms = _fsums(self.entries(phi[None], phi_inv[None]), self.segments)[0]
        m = len(self.motor)
        return ObjectiveReport(
            total=math.fsum(terms),
            forward_transition_terms=dict(zip(self.motor, terms[:m])),
            forward_output_term=terms[m],
            backward_transition_terms=dict(zip(self.motor, terms[m + 1 : 2 * m + 1])),
            backward_output_term=terms[2 * m + 1],
        )


def evaluate(
    o0: FiniteStateModel,
    o1: FiniteStateModel,
    mapping: OntologyMap,
    policy: SmoothingPolicy = DEFAULT_POLICY,
) -> ObjectiveReport:
    """Evaluate the bisimulation objective; deterministic for fixed inputs."""
    objective = PairObjective(o0, o1, policy.epsilon)
    objective.check_map(mapping)
    return objective.report(mapping.phi, mapping.phi_inv)
