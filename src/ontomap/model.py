"""Finite state models: hidden states, per-action transition matrices, output matrix.

Convention: all matrices are column-stochastic. Columns index the "from"
state, rows index the "to" state (or sensor symbol). A distribution over
states is a column vector acted on from the left, so one time step under
motor symbol ``x`` is ``T^x @ d`` and the sensor distribution is ``A @ d``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-9


class ModelFormatError(ValueError):
    """Raised by ``load_json`` when a model, map or utility file cannot be parsed."""


class ModelValidationError(ValueError):
    """Raised when a model, map or distribution violates stochasticity invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("not column-stochastic:\n" + "\n".join(self.violations))


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol names; order fixes matrix indexing."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet: {self.symbols}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class StateDistribution:
    """Probability distribution over the hidden states of one model."""

    probs: np.ndarray

    def __post_init__(self):
        p = _freeze(self.probs, "distribution", 1)
        violations = column_violations("distribution", p[:, None])
        if violations:
            raise ModelValidationError(violations)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return len(self.probs)

    @classmethod
    def point_mass(cls, n: int, state: int) -> "StateDistribution":
        return cls(np.arange(n) == state)

    @classmethod
    def uniform(cls, n: int) -> "StateDistribution":
        return cls(np.ones(n) / n)


def _freeze(a, name: str, ndim: int) -> np.ndarray:
    """A read-only float copy of ``a``: the caller's array cannot change it.
    ValueError naming ``name`` unless it is a nonempty vector (``ndim`` 1) or matrix (2)."""
    a = np.array(a, dtype=float)
    if a.ndim != ndim or 0 in a.shape:
        raise ValueError(f"{name} must be a nonempty {('vector', 'matrix')[ndim - 1]}, got shape {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FiniteStateModel:
    """n hidden states, one n-by-n transition matrix per motor symbol, one
    s-by-n output matrix. Each column within STOCHASTIC_TOL of the simplex, or
    ModelValidationError; the model stores it clipped at 0 and renormalized exactly."""

    n: int
    motor: Alphabet
    sensor: Alphabet
    transitions: dict[str, np.ndarray]
    output: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state count must be positive")
        if set(self.transitions) != set(self.motor.symbols):
            raise ValueError(
                f"transition keys {sorted(self.transitions)} do not match "
                f"motor alphabet {list(self.motor)}"
            )
        trans = {x: _freeze(self.transitions[x], f"T^{x}", 2) for x in self.motor}
        out = _freeze(self.output, "A", 2)
        n = f"{self.n!r:.40}"  # a huge declared count is quoted briefly
        for x, t in trans.items():
            if t.shape != (self.n, self.n):
                raise ValueError(f"transition matrix for {x!r} has shape {t.shape}, expected ({n}, {n})")
        if out.shape != (len(self.sensor), self.n):
            raise ValueError(f"output matrix has shape {out.shape}, expected ({len(self.sensor)}, {n})")
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "output", out)
        violations = validate_model(self)
        if violations:
            raise ModelValidationError(violations)
        for m in (*trans.values(), out):  # the model's own copies, so in place
            m.flags.writeable = True
            m.clip(0, out=m)  # else renormalizing can push an entry just below 0 past the tolerance
            m /= m.sum(axis=0)
            m.flags.writeable = False


def column_violations(name: str, mat) -> list[str]:
    """Return the ways the columns of ``mat`` fail to be distributions.

    Per 1-based column, in column order: an entry outside [0, 1], then a
    sum off 1, each beyond STOCHASTIC_TOL. NaN and infinite entries fail
    both tests. Empty iff every column is on the simplex.
    """
    mat = np.asarray(mat, dtype=float)
    # Written as negated "inside" tests so that NaN, which fails every
    # comparison, lands outside.
    outside = ~((mat >= -STOCHASTIC_TOL) & (mat <= 1 + STOCHASTIC_TOL))
    # Rows of a contiguous transpose are summed pairwise, exactly as a lone
    # column is; mat.sum(axis=0) adds rows in sequence and can differ in the
    # last bit.
    sums = np.ascontiguousarray(mat.T).sum(axis=1)
    off = ~(np.abs(sums - 1.0) <= STOCHASTIC_TOL)
    violations: list[str] = []
    for j in np.flatnonzero(outside.any(axis=0) | off):
        if outside[:, j].any():
            bad = mat[outside[:, j], j][0]
            violations.append(f"{name} column {j + 1}: entry {float(bad)!r} outside [0, 1]")
        if off[j]:
            violations.append(f"{name} column {j + 1}: sum {float(sums[j])!r}, expected 1")
    return violations


def validate_model(model: FiniteStateModel) -> list[str]:
    """Return a list of invariant violations; empty iff the model is valid.

    Violations name the offending matrix, its 1-based column, and the
    measured column sum or out-of-range entry. FiniteStateModel raises on any.
    """
    violations: list[str] = []
    for x in model.motor:
        violations += column_violations(f"T^{x}", model.transitions[x])
    return violations + column_violations("A", model.output)


def step(model: FiniteStateModel, d: StateDistribution, x: str) -> StateDistribution:
    """One time step: the state distribution after emitting motor symbol x."""
    if len(d) != model.n:
        raise ValueError(f"distribution has length {len(d)}, model has {model.n} states")
    if x not in model.transitions:
        raise KeyError(f"unknown motor symbol {x!r}; alphabet is {list(model.motor)}")
    return StateDistribution(model.transitions[x] @ d.probs)


def observe(model: FiniteStateModel, d: StateDistribution) -> np.ndarray:
    """Distribution over sensor symbols given a state distribution."""
    if len(d) != model.n:
        raise ValueError(f"distribution has length {len(d)}, model has {model.n} states")
    return model.output @ d.probs


def _json_numbers(values) -> bool:
    """Whether ``values`` is a JSON list of numbers (strings and booleans
    are not numbers; NaN is, and is left to validation)."""
    return isinstance(values, list) and set(map(type, values)) <= {int, float}


def _matrix_from_rows(rows, name: str) -> np.ndarray:
    """A JSON list of equal-length rows of numbers as a float matrix."""
    if not (isinstance(rows, list) and all(map(_json_numbers, rows))):
        raise TypeError(f"{name}: not a list of rows of JSON numbers")
    if len(set(map(len, rows))) > 1:
        raise ValueError(f"{name}: rows of different lengths")
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError:
        raise OverflowError(f"{name}: an entry is past the float range") from None


def load_json(source, what: str, build):
    """``build`` applied to the JSON object in bytes, text or a readable stream.

    With ``dump_json`` the one home of the file format: bytes that are not
    UTF-8, JSON that does not parse, a non-object and a field that ``build``
    finds missing or mistyped all become ModelFormatError naming ``what``.
    A ModelValidationError from ``build`` passes through unchanged.
    """
    if hasattr(source, "read"):
        source = source.read()
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        doc = json.loads(source)
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        return build(doc)
    except ModelValidationError:
        raise
    # UnicodeDecodeError and JSONDecodeError are ValueErrors.
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
        reason = f"missing {e}" if isinstance(e, KeyError) else e
        raise ModelFormatError(f"malformed {what} file: {reason}") from None


def dump_json(doc) -> bytes:
    """The one file encoding: UTF-8 JSON, indent 2, one trailing newline.
    A NaN or infinity, which JSON cannot hold, raises ValueError."""
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")


def _json_int(doc: dict, key: str) -> int:
    """``doc[key]`` if it is a JSON integer (a bool is not)."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key!r} must be an integer, got {value!r:.40}")
    return value


def _json_strings(doc: dict, key: str) -> tuple[str, ...]:
    """``doc[key]`` if it is a JSON list of strings."""
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise TypeError(f"{key!r} must be a list of strings, got {value!r:.40}")
    return tuple(value)


def read_model(source) -> FiniteStateModel:
    """Parse a model file (bytes, text, or readable stream).

    Matrices in the file are row-major nested lists; they are interpreted
    column-stochastically (see module docstring). A missing or mistyped
    field, or a key or shape that ``FiniteStateModel`` refuses, is a format
    error; columns off the simplex raise its ModelValidationError.
    """

    def build(doc):
        raw_trans = doc["transitions"]
        if not isinstance(raw_trans, dict):
            raise TypeError("'transitions' must be a JSON object keyed by motor symbol")
        return FiniteStateModel(
            n=_json_int(doc, "states"),
            motor=Alphabet(_json_strings(doc, "motor")),
            sensor=Alphabet(_json_strings(doc, "sensor")),
            transitions={x: _matrix_from_rows(rows, f"T^{x}") for x, rows in raw_trans.items()},
            output=_matrix_from_rows(doc["output"], "A"),
        )

    return load_json(source, "model", build)


def write_model(model: FiniteStateModel) -> bytes:
    """Serialize a model to the canonical text format (UTF-8 JSON)."""
    doc = {
        "states": model.n,
        "motor": list(model.motor),
        "sensor": list(model.sensor),
        "transitions": {x: model.transitions[x].tolist() for x in model.motor},
        "output": model.output.tolist(),
    }
    return dump_json(doc)
