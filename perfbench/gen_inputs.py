"""Write every model, map and utility file the benchmark workloads use.

Independent of ``ontomap``: the files are built here with numpy and written
in the program's JSON formats (matrices row-major, columns index the "from"
state), so the program under test receives only files. The same seed gives
byte-identical files.

    python3 perfbench/gen_inputs.py --seed 3 --out perfbench/work/inputs

writes one subdirectory per workload.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

MOTOR = ("L", "R")
SENSOR = ("left-end", "middle", "right-end")

WORKLOADS = ("corridor-map", "oracle-grid", "random-wide", "cli-batch")

# random-wide: state counts; every op maps one size onto another.
WIDE_SIZES = (16, 32, 64)
WIDE_PAIRS = tuple((a, b) for a in WIDE_SIZES for b in WIDE_SIZES if a != b)

# cli-batch: model sizes for validate, (n0, n1) pairs for objective/translate,
# and corridor lengths for the corridor command.
CLI_SIZES = (2, 4, 8, 16, 32, 64)
CLI_PAIRS = ((2, 4), (4, 8), (8, 16), (16, 32), (32, 64), (64, 64))
CLI_CORRIDORS = (2, 3, 5, 8, 16, 64)


def corridor(n: int) -> dict:
    """Corridor of n locations: L/R moves absorbing at the ends, sensor
    reports left end, middle or right end."""
    left = np.zeros((n, n))
    right = np.zeros((n, n))
    left[0, 0] = 1.0
    right[n - 1, n - 1] = 1.0
    for j in range(1, n):
        left[j - 1, j] = 1.0
    for j in range(n - 1):
        right[j + 1, j] = 1.0
    out = np.zeros((3, n))
    out[0, 0] = 1.0
    out[2, n - 1] = 1.0
    out[1, 1 : n - 1] = 1.0
    return model_doc({"L": left, "R": right}, out)


def permuted(doc: dict, perm) -> dict:
    """Relabel states so that new state perm[i] is old state i."""
    n = doc["states"]
    p = np.zeros((n, n))
    p[list(perm), np.arange(n)] = 1.0
    trans = {x: p @ np.array(doc["transitions"][x]) @ p.T for x in doc["motor"]}
    return model_doc(trans, np.array(doc["output"]) @ p.T)


def stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Dense column-stochastic matrix, each column uniform on the simplex."""
    m = rng.standard_exponential((rows, cols))
    return m / m.sum(axis=0, keepdims=True)


def random_model(rng: np.random.Generator, n: int) -> dict:
    return model_doc({x: stochastic(rng, n, n) for x in MOTOR}, stochastic(rng, len(SENSOR), n))


def model_doc(transitions: dict, output: np.ndarray) -> dict:
    n = output.shape[1]
    return {
        "states": n,
        "motor": list(MOTOR),
        "sensor": list(SENSOR),
        "transitions": {x: np.asarray(transitions[x]).tolist() for x in MOTOR},
        "output": np.asarray(output).tolist(),
    }


def map_doc(phi: np.ndarray, phi_inv: np.ndarray) -> dict:
    return {"phi": phi.tolist(), "phi_inv": phi_inv.tolist()}


def utility_doc(values) -> dict:
    values = [float(v) for v in values]
    return {"model_states": len(values), "values": values}


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the input files of one workload into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, workload)
    if workload == "corridor-map":
        # The paper's headline instance; the seed does not change it.
        _write(out / "corridor4.json", corridor(4))
        _write(out / "corridor5.json", corridor(5))
        _write(out / "goal.json", utility_doc([0, 0, 0, 1]))
    elif workload == "oracle-grid":
        c2 = corridor(2)
        _write(out / "corridor2.json", c2)
        _write(out / "corridor2-swap.json", permuted(c2, [1, 0]))
    elif workload == "random-wide":
        for n in WIDE_SIZES:
            _write(out / f"model-{n}.json", random_model(rng, n))
            _write(out / f"utility-{n}.json", utility_doc(rng.normal(size=n)))
    elif workload == "cli-batch":
        models = {n: random_model(rng, n) for n in CLI_SIZES}
        for n, doc in models.items():
            _write(out / f"model-{n}.json", doc)
            _write(out / f"utility-{n}.json", utility_doc(rng.normal(size=n)))
        for n0, n1 in CLI_PAIRS:
            _write(out / f"map-{n0}x{n1}.json", map_doc(stochastic(rng, n0, n1), stochastic(rng, n1, n0)))
        # Fixed inputs, the same for every seed, for the operations that
        # must be refused: each has a documented exit code.
        c4 = corridor(4)
        _write(out / "corridor2.json", corridor(2))
        _write(out / "corridor4.json", c4)
        text = json.dumps(c4, indent=2)
        (out / "malformed.json").write_text(text[: len(text) // 2])
        _write(out / "missing-field.json", {k: v for k, v in c4.items() if k != "output"})
        bad = json.loads(text)
        bad["transitions"]["L"][0][1] += 0.1  # column 2 of T^L sums to 1.1
        _write(out / "nonstochastic.json", bad)
        nan_model = json.loads(text)
        nan_model["transitions"]["R"][1][2] = float("nan")
        _write(out / "nan-model.json", nan_model)
        nan_map = map_doc(np.eye(4), np.eye(4))
        nan_map["phi"][2][1] = float("nan")
        _write(out / "nan-map.json", nan_map)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        generate(workload, args.seed, args.out / workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
