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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .divergence import DEFAULT_POLICY, SmoothingPolicy, _fsums, _kl_entries, _smooth, _smooth_column
from .divergence import kl_columns  # noqa: F401  (perfbench/spans.py wraps it here)
from .model import FiniteStateModel, ModelFormatError, ModelValidationError, dump_json, load_json
from .model import _matrix_from_rows, column_violations, validate_model


@dataclass(frozen=True)
class OntologyMap:
    """Pair of column-stochastic maps between the state spaces of two models.

    phi carries O1 state distributions to O0; phi_inv carries O0
    distributions to O1. phi_inv is a notational inverse only.
    """

    phi: np.ndarray
    phi_inv: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        phi_inv = np.array(self.phi_inv, dtype=float)
        for name, m in (("phi", phi), ("phi_inv", phi_inv)):
            if m.ndim != 2:
                raise ValueError(f"{name} must be a matrix")
        violations = column_violations("phi", phi) + column_violations("phi_inv", phi_inv)
        if violations:
            raise ModelValidationError(violations)
        if phi.shape != phi_inv.shape[::-1]:
            raise ValueError(
                f"phi is {phi.shape} but phi_inv is {phi_inv.shape}; expected transposed shapes"
            )
        phi.flags.writeable = False
        phi_inv.flags.writeable = False
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
    """Objective value with its per-term breakdown."""

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

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "forward_transition_terms": dict(self.forward_transition_terms),
            "forward_output_term": self.forward_output_term,
            "backward_transition_terms": dict(self.backward_transition_terms),
            "backward_output_term": self.backward_output_term,
        }

    def to_bytes(self) -> bytes:
        return dump_json(self.to_dict())


def read_map(source) -> OntologyMap:
    """Parse a map file: JSON with row-major ``phi`` and ``phi_inv``."""
    doc = load_json(source, "map")
    try:
        phi, phi_inv = doc["phi"], doc["phi_inv"]
    except KeyError as e:
        raise ModelFormatError(f"malformed map file: missing {e}") from None
    return OntologyMap(phi=_matrix_from_rows(phi, "phi"), phi_inv=_matrix_from_rows(phi_inv, "phi_inv"))


def write_map(mapping: OntologyMap) -> bytes:
    return dump_json({"phi": mapping.phi.tolist(), "phi_inv": mapping.phi_inv.tolist()})


def _check_pair(o0: FiniteStateModel, o1: FiniteStateModel) -> None:
    if o0.motor != o1.motor or o0.sensor != o1.sensor:
        raise ValueError("models must share motor and sensor alphabets")
    for m, name in ((o0, "o0"), (o1, "o1")):
        violations = validate_model(m)
        if violations:
            raise ValueError(f"{name} is not a valid model: {violations[0]}")


def _check_map_shape(o0: FiniteStateModel, o1: FiniteStateModel, mapping: OntologyMap) -> None:
    if mapping.n0 != o0.n or mapping.n1 != o1.n:
        raise ValueError(
            f"map shape ({mapping.n0}, {mapping.n1}) does not match models ({o0.n}, {o1.n})"
        )


# Cap on the float64 entries of one stacked approximation: 16 384 entries
# (128 KiB) keep a batch's temporaries in cache; larger stacks page-fault
# more than batching saves. Callers split their stacks by ``batch``.
MAX_STACK_ENTRIES = 16384


class _Moves(NamedTuple):
    """Index tables for ``PairObjective.moved``, one entry per side (0 when
    a column of phi moves, 1 when a column of phi_inv moves).

    ``columns[side][j]`` holds the row positions of the entries in column j
    of the side's transition terms and then of its output term, their
    places in that column of the side's approximations, and their
    true-side values. ``spans[side]`` holds the row range of the other
    side's transition terms, their places in its flattened transition
    stack, and their true-side values. A place list is None where it would
    take every place in order, as it does for a model without zeros.
    """

    columns: tuple[list[tuple[np.ndarray, np.ndarray | None, np.ndarray]], ...]
    spans: tuple[tuple[slice, np.ndarray | None, np.ndarray], ...]


def _places(keep: np.ndarray) -> np.ndarray | None:
    return None if keep.all() else np.flatnonzero(keep)


class PairObjective:
    """The objective of one model pair, as a function of the map pair.

    Built once per model pair: each model's transition matrices are stacked
    in motor order, and the true side of every term is reduced to its
    positive entries, in report order. Trusts its models and maps;
    ``evaluate`` and ``optimize`` are the validated entry points.
    """

    def __init__(self, o0: FiniteStateModel, o1: FiniteStateModel, epsilon: float):
        self.motor = o0.motor.symbols
        self.epsilon = epsilon
        # Each side's transition stack and output matrix: side 0 is O0, whose
        # approximations phi_inv @ T0^x @ phi and A0 @ phi move with phi's
        # columns; side 1 is O1, whose approximations move with phi_inv's.
        self.t = tuple(np.stack([o.transitions[x] for x in self.motor]) for o in (o0, o1))
        self.a = (o0.output, o1.output)
        # True sides as stacks of terms, in the order terms() approximates
        # them: T1^x for each x, A1, T0^x for each x, A0.
        trues = (self.t[1], self.a[1][None], self.t[0], self.a[0][None])
        masks = [p > 0 for p in trues]
        # As a row, so that one map pair's entries need no broadcasting.
        self.p = np.concatenate([p[mask] for p, mask in zip(trues, masks)])[None]
        self.index = np.flatnonzero(np.concatenate(masks, axis=None))
        # Each term's (start, stop) in a row of entries.
        stops = np.cumsum(np.concatenate([np.count_nonzero(mask, axis=(1, 2)) for mask in masks])).tolist()
        self.segments = list(zip([0] + stops[:-1], stops))
        entries = sum(mask.size for mask in masks)
        #: Map pairs per ``entries`` call that keep it within MAX_STACK_ENTRIES.
        self.batch = max(1, MAX_STACK_ENTRIES // entries)
        # k = N + 2m + 2 for N entries per pair and m motor symbols; the
        # bound in ``float_totals`` holds for k <= 2**25, beyond which every
        # comparison takes the exact sums.
        k = self.p.shape[1] + 2 * len(self.motor) + 2
        self.radius_scale = 2 * k * 2.0**-53 if k <= 2**25 else np.inf

    def entries(self, phi: np.ndarray, phi_inv: np.ndarray) -> np.ndarray:
        """The KL entries of each map pair in stacks of shape (R, n0, n1) and
        (R, n1, n0), as an (R, N) matrix: one column per positive true-side
        entry, in the order of the terms."""
        r = len(phi)
        maps = (phi, phi_inv)
        q = np.concatenate(
            [
                _smooth(b, self.epsilon).reshape(r, -1)
                for side in (0, 1)
                for b in (self._transitions(side, phi, phi_inv), self.a[side] @ maps[side])
            ],
            axis=1,
        ).take(self.index, axis=1)
        return _kl_entries(self.p, q)

    def _transitions(self, side: int, phi: np.ndarray, phi_inv: np.ndarray) -> np.ndarray:
        """The transition approximations of side 0 (phi_inv @ T0^x @ phi)
        or side 1 (phi @ T1^x @ phi_inv) for stacked map pairs; the output
        approximations are A0 @ phi and A1 @ phi_inv."""
        right, left = (phi, phi_inv)[side], (phi_inv, phi)[side]
        return left[:, None] @ self.t[side] @ right[:, None]

    @cached_property
    def _moves(self) -> _Moves:
        # Built on a climber's first move, so evaluate, the oracle and
        # stacked climbs never pay for it.
        m, k = len(self.motor), self.a[0].shape[0]
        n = (self.t[1].shape[-1], self.t[0].shape[-1])  # columns of phi, of phi_inv
        # The four blocks entries() gathers from: each side's transition
        # stack (m, n, n), then its output matrix (k, n).
        offsets = np.cumsum([0] + [size for s in (0, 1) for size in (m * n[s] * n[s], k * n[s])])
        rows = np.full(offsets[-1], -1)  # the row position of each gathered entry
        rows[self.index] = np.arange(len(self.index))
        columns, spans = [], []
        for side, other in ((0, 1), (1, 0)):
            # Places of column 0: transition entries in (x, i) order, then
            # output entries; column j's are j further on.
            column0 = np.concatenate(
                (
                    offsets[2 * side] + np.arange(m * n[side]) * n[side],
                    offsets[2 * side + 1] + np.arange(k) * n[side],
                )
            )
            table = []
            for j in range(n[side]):
                pos = rows[column0 + j]
                keep = pos >= 0
                table.append((pos[keep], _places(keep), self.p[0, pos[keep]]))
            columns.append(table)
            start, stop = np.searchsorted(self.index, offsets[2 * other : 2 * other + 2])
            keep = rows[offsets[2 * other] : offsets[2 * other + 1]] >= 0
            spans.append((slice(start, stop), _places(keep), self.p[0, start:stop]))
        return _Moves(tuple(columns), tuple(spans))

    def moved(self, phi: np.ndarray, phi_inv: np.ndarray, side: int, j: int, x: np.ndarray) -> np.ndarray:
        """The entries row of the map pair (phi, phi_inv), whose column j of
        phi (side 0) or of phi_inv (side 1) has moved since its row was
        ``x``.

        Moving column j of phi changes column j of phi_inv @ T0^x @ phi and
        of A0 @ phi, every entry of phi @ T1^x @ phi_inv, and nothing of
        A1 @ phi_inv; a column of phi_inv mirrors this. The products are
        formed whole, as ``entries`` forms them, but only the changed
        entries are smoothed and rescored (``_smooth_column`` for column
        j), and the others are copied from ``x``: the row equals
        ``entries(phi[None], phi_inv[None])[0]`` bit for bit.
        """
        eps = self.epsilon
        pos, take, p = self._moves.columns[side][j]
        span, span_take, span_p = self._moves.spans[side]
        maps = (phi[None], phi_inv[None])
        trans, out = self._transitions(side, *maps), self.a[side] @ maps[side]
        q = np.concatenate((_smooth_column(trans, j, eps), _smooth_column(out, j, eps)), axis=None)
        whole = _smooth(self._transitions(1 - side, *maps), eps).reshape(-1)
        row = x.copy()
        row[span] = _kl_entries(span_p, whole if span_take is None else whole.take(span_take))
        row[pos] = _kl_entries(p, q if take is None else q.take(take))
        return row

    def float_totals(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row of entries ``x`` (from ``entries``), its float sum
        ``a`` and a radius ``r`` with |a - c| <= r / 2, where c is exactly
        what ``exact_totals`` returns for that row.

        Proof, with u = 2**-53, gamma_j = j * u / (1 - j * u), N entries per
        row, m motor symbols, S the exact sum of a row and s = sum |x_i|:

        * ``a`` is a float sum of the N entries, and any summation tree
          (numpy's pairwise one, or partial sums added up) gives
          |a - S| <= gamma_{N-1} * s. The computed s' of the |x_i|
          likewise has s <= s' / (1 - gamma_{N-1}).
        * c adds 2m + 2 correctly rounded term sums t_j with 2m + 1 rounded
          additions (``_sum``): |t_j - T_j| <= u * |T_j| for each exact term
          sum T_j, and sum |t_j| <= (1 + u) * s, so
          |c - S| <= u * s + gamma_{2m+1} * (1 + u) * s <= gamma_{2m+2} * s.
        * With K = N + 2m + 1, gamma_{N-1} + gamma_{2m+2} <= gamma_K, so
          |a - c| <= gamma_K * s' / (1 - gamma_{N-1}) <= K * u * s' / (1 - 2 * K * u),
          which is at most k * u * s' * (1 - u)**2 for k = K + 1 <= 2**25.
        * r is computed as 2 * k * u * s' (k * u is exact) plus 2**-1069, so
          r >= 2 * k * u * s' * (1 - u)**2: the product underflows by at
          most 2**-1075. Half of r bounds |a - c|; the other half covers the
          rounding of a +- r, since u * |a +- r| <= u * (1.01 * s' + r) is
          below r / 2 for k >= 2. So the computed a + r is at least c and
          the computed a - r at most c. Additions, and exact sums of
          subnormals, round relatively or not at all.

        A non-finite entry makes ``a`` or ``r`` non-finite, so no
        comparison of the interval [a - r, a + r] can settle.
        """
        return x.sum(axis=1), np.abs(x).sum(axis=1) * self.radius_scale + 2.0**-1069

    def exact_totals(self, x: np.ndarray) -> list[float]:
        """The objective of each row of entries ``x`` (from ``entries``):
        correctly rounded term sums, added left to right."""
        return [self._sum(terms) for terms in _fsums(x, self.segments)]

    def _sum(self, terms: list[float]) -> float:
        # Left-to-right adds from 0.0 on every Python version: the builtin
        # sum compensates its rounding from 3.12 on.
        m = len(self.motor)
        forward = backward = 0.0
        for t in terms[:m]:
            forward += t
        for t in terms[m + 1 : 2 * m + 1]:
            backward += t
        return forward + terms[m] + backward + terms[2 * m + 1]

    def terms(self, phi: np.ndarray, phi_inv: np.ndarray) -> list[float]:
        """Per-term values in report order: forward transition terms,
        forward output, backward transition terms, backward output."""
        return _fsums(self.entries(phi[None], phi_inv[None]), self.segments)[0]

    def total(self, phi: np.ndarray, phi_inv: np.ndarray) -> float:
        """The objective's value at (phi, phi_inv)."""
        return self._sum(self.terms(phi, phi_inv))

    def report(self, phi: np.ndarray, phi_inv: np.ndarray) -> ObjectiveReport:
        """The objective at (phi, phi_inv) with its per-term breakdown."""
        terms = self.terms(phi, phi_inv)
        m = len(self.motor)
        return ObjectiveReport(
            total=self._sum(terms),
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
    _check_pair(o0, o1)
    _check_map_shape(o0, o1, mapping)
    return PairObjective(o0, o1, policy.epsilon).report(mapping.phi, mapping.phi_inv)
