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
    """Raised when a model or utility file cannot be parsed."""


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

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


@dataclass(frozen=True)
class StateDistribution:
    """Probability distribution over the hidden states of one model."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        violations = column_violations("distribution", p[:, None])
        if violations:
            raise ModelValidationError(violations)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return len(self.probs)

    @classmethod
    def point_mass(cls, n: int, state: int) -> "StateDistribution":
        p = np.zeros(n)
        p[state] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, n: int) -> "StateDistribution":
        return cls(np.full(n, 1.0 / n))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FiniteStateModel:
    """n hidden states, one n-by-n transition matrix per motor symbol, one
    s-by-n output matrix. All matrices column-stochastic."""

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
        trans = {x: _freeze(self.transitions[x]) for x in self.motor}
        out = _freeze(self.output)
        for x, t in trans.items():
            if t.shape != (self.n, self.n):
                raise ValueError(f"transition matrix for {x!r} has shape {t.shape}, expected {(self.n, self.n)}")
        if out.shape != (len(self.sensor), self.n):
            raise ValueError(f"output matrix has shape {out.shape}, expected {(len(self.sensor), self.n)}")
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "output", out)

    def transition(self, x: str) -> np.ndarray:
        try:
            return self.transitions[x]
        except KeyError:
            raise KeyError(f"unknown motor symbol {x!r}; alphabet is {list(self.motor)}") from None


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
    measured column sum or out-of-range entry.
    """
    violations: list[str] = []
    for x in model.motor:
        violations += column_violations(f"T^{x}", model.transitions[x])
    return violations + column_violations("A", model.output)


def step(model: FiniteStateModel, d: StateDistribution, x: str) -> StateDistribution:
    """One time step: the state distribution after emitting motor symbol x."""
    if len(d) != model.n:
        raise ValueError(f"distribution has length {len(d)}, model has {model.n} states")
    t = model.transition(x)
    return StateDistribution(t @ d.probs)


def observe(model: FiniteStateModel, d: StateDistribution) -> np.ndarray:
    """Distribution over sensor symbols given a state distribution."""
    if len(d) != model.n:
        raise ValueError(f"distribution has length {len(d)}, model has {model.n} states")
    return model.output @ d.probs


def _renormalize_columns(mat: np.ndarray) -> np.ndarray:
    return mat / mat.sum(axis=0, keepdims=True)


def _json_numbers(values) -> bool:
    """Whether ``values`` is a JSON list of numbers (strings and booleans
    are not numbers; NaN is, and is left to validation)."""
    return isinstance(values, list) and set(map(type, values)) <= {int, float}


def _matrix_from_rows(rows, name: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """A JSON list of rows of numbers as a float matrix, of ``shape`` if given."""
    if not (isinstance(rows, list) and all(map(_json_numbers, rows))):
        raise ModelFormatError(f"{name}: not a list of rows of JSON numbers")
    try:
        mat = np.asarray(rows, dtype=float)
    except (ValueError, OverflowError) as e:
        raise ModelFormatError(f"{name}: not a numeric matrix ({e})") from None
    if shape is not None and mat.shape != shape:
        raise ModelFormatError(f"{name}: shape {mat.shape} does not match declared sizes {shape}")
    return mat


def load_json(source, what: str):
    """Parse one JSON object from bytes, text or a readable stream.

    With ``dump_json`` the one home of the file format: bytes that are not
    UTF-8, JSON that does not parse and a non-object all raise
    ModelFormatError naming ``what``.
    """
    if hasattr(source, "read"):
        source = source.read()
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        doc = json.loads(source)
    # UnicodeDecodeError and JSONDecodeError are ValueErrors.
    except (ValueError, RecursionError) as e:
        raise ModelFormatError(f"malformed {what} file: {e}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"malformed {what} file: not a JSON object")
    return doc


def dump_json(doc) -> bytes:
    """The one file encoding: UTF-8 JSON, indent 2, one trailing newline.
    A NaN or infinity, which JSON cannot hold, raises ValueError."""
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")


def _json_int(doc: dict, key: str) -> int:
    """``doc[key]`` if it is a JSON integer (a bool is not)."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def _json_strings(doc: dict, key: str) -> tuple[str, ...]:
    """``doc[key]`` if it is a JSON list of strings."""
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise TypeError(f"{key!r} must be a list of strings, got {value!r}")
    return tuple(value)


def read_model(source) -> FiniteStateModel:
    """Parse a model file (bytes, text, or readable stream).

    Matrices in the file are row-major nested lists; they are interpreted
    column-stochastically (see module docstring). Columns are validated to
    sum to 1 within 1e-9, then renormalized exactly so downstream math sees
    exact simplex points.
    """
    doc = load_json(source, "model")
    try:
        n = _json_int(doc, "states")
        motor = Alphabet(_json_strings(doc, "motor"))
        sensor = Alphabet(_json_strings(doc, "sensor"))
        raw_trans = doc["transitions"]
        raw_out = doc["output"]
    except (KeyError, TypeError, ValueError) as e:
        raise ModelFormatError(f"missing or malformed field: {e}") from None
    if not isinstance(raw_trans, dict):
        raise ModelFormatError("'transitions' must be a JSON object keyed by motor symbol")
    if set(raw_trans) != set(motor.symbols):
        raise ModelFormatError(
            f"transition keys {sorted(raw_trans)} do not match motor alphabet {list(motor)}"
        )
    transitions = {x: _matrix_from_rows(raw_trans[x], f"T^{x}", (n, n)) for x in motor}
    output = _matrix_from_rows(raw_out, "A", (len(sensor), n))
    model = FiniteStateModel(n=n, motor=motor, sensor=sensor, transitions=transitions, output=output)
    violations = validate_model(model)
    if violations:
        raise ModelValidationError(violations)
    return FiniteStateModel(
        n=n,
        motor=motor,
        sensor=sensor,
        transitions={x: _renormalize_columns(transitions[x]) for x in motor},
        output=_renormalize_columns(output),
    )


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
