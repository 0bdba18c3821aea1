"""The four workloads: their inputs, one cycle of operations, and the checks
on every output.

An operation that raises, or ends with another exit code than the CLI's
documented 0/1/2 contract gives, has failed (``Failed``). An operation that
completes but whose output disagrees with the reference computations or
with a property the method must have is wrong (``Wrong``).
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ontomap.cli
import ontomap.model
import ontomap.objective
import ontomap.optimizer
import ontomap.oracle
import ontomap.utility

import gen_inputs
import reference

# Objective of the published 4<->5 corridor map, and the map itself: the
# figures reported to three significant digits, columns renormalised.
PUBLISHED_TOTAL = 6.868154495913968
PUBLISHED_PHI = [[1, 0, 0, 0, 0], [0, 1, 0.503, 0, 0], [0, 0, 0.496, 1, 0], [0, 0, 0, 0, 1]]
PUBLISHED_PHI_INV = [[1, 0.014, 0.001, 0], [0, 0.715, 0, 0], [0, 0.270, 0.283, 0], [0, 0, 0.715, 0], [0, 0, 0, 1]]

# Scaled from the acceptance suite's 20 000 iterations and 0.05 resolution
# so that one operation takes ~2 s and a run holds several samples.
CORRIDOR_MAX_ITERS = 2000
ORACLE_RESOLUTION = 0.1
WIDE_RESTARTS = 2
WIDE_MAX_ITERS = 300


class Failed(Exception):
    """The operation did not complete as the program's contract says."""


class Wrong(Exception):
    """The operation completed with an incorrect output."""


def need(ok, message: str) -> None:
    if not ok:
        raise Wrong(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list[Op]  # one cycle
    warmup: list[Op]
    cycle_s: float  # cost of one cycle on the reference machine
    min_cycles: int = 1

    def cycles(self, seconds: float) -> int:
        """A fixed count for a given --seconds, so every run of a workload
        attempts the same operations."""
        return max(self.min_cycles, round(seconds / self.cycle_s))


def setup(name: str, seed: int, work: Path) -> dict:
    """Generate the workload's inputs and load them with the program; this
    is what ``setup_s`` times from a fresh interpreter."""
    inputs = work / "inputs"
    gen_inputs.generate(name, seed, inputs)
    loaded = {}
    for path in sorted(inputs.glob("*.json")):
        stem = path.stem
        if stem.startswith(("model-", "corridor")):
            loaded[path.name] = ontomap.model.read_model(path.read_bytes())
        elif stem.startswith(("utility-", "goal")):
            loaded[path.name] = ontomap.utility.read_utility(path.read_bytes())
        elif stem.startswith("map-"):
            loaded[path.name] = ontomap.objective.read_map(path.read_bytes())
    return loaded


def cli(argv) -> tuple[int, str]:
    """One in-process ``ontomap`` command: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = ontomap.cli.main([str(a) for a in argv])
        except SystemExit as e:
            code = e.code
        except Exception as e:
            raise Failed(f"{argv[0]} raised {type(e).__name__}: {e}") from None
    return code, out.getvalue()


def expect_code(got: int, want: int, argv) -> None:
    if got != want:
        words = [a.name if isinstance(a, Path) else str(a) for a in argv]
        raise Failed(f"{' '.join(words)}: exit {got}, documented {want}")


def close_6g(printed: str, ref: float) -> bool:
    """True when ``printed`` is ``ref`` rounded to six significant figures."""
    value = float(printed)
    if ref == 0:
        return value == 0
    half_unit = 0.5 * 10 ** (math.floor(math.log10(abs(ref))) - 5)
    return abs(value - ref) <= half_unit * (1 + 1e-9)


def close(a, b, rel: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def _corridor_map(seed: int, work: Path, loaded: dict) -> Workload:
    inp = work / "inputs"
    c4, c5, goal = inp / "corridor4.json", inp / "corridor5.json", inp / "goal.json"
    r4, r5 = reference.load_model(c4), reference.load_model(c5)
    published = reference.objective(r4, r5, _renorm(PUBLISHED_PHI), _renorm(PUBLISHED_PHI_INV))
    first_map: list[bytes] = []

    def make(out: Path) -> Op:
        argvs = [
            ["map", c4, c5, "--seed", 0, "--restarts", 10, "--max-iters", CORRIDOR_MAX_ITERS, "--out", out],
            ["objective", c4, c5, out / "map.json"],
            ["translate", goal, out / "map.json", "--out", out],
        ]

        def run():
            return [cli(a) for a in argvs]

        def check(results):
            for (code, _), a in zip(results, argvs):
                expect_code(code, 0, a)
            raw = (out / "map.json").read_bytes()
            if not first_map:
                first_map.append(raw)
            need(raw == first_map[0], "map.json differs between repeats of the operation")
            doc = json.loads(raw)
            phi, phi_inv = np.array(doc["phi"]), np.array(doc["phi_inv"])
            total = json.loads((out / "report.json").read_text())["total"]
            ref = reference.objective(r4, r5, phi, phi_inv)
            need(abs(ref - total) <= 1e-9, f"report total {total!r} vs reference {ref!r}")
            need(abs(published - PUBLISHED_TOTAL) <= 1e-9, f"published map objective {published!r}")
            need(total <= PUBLISHED_TOTAL + 1e-2, f"best total {total!r} above the published map's")
            printed = results[1][1].splitlines()[-1].split(": ")[1]
            need(close_6g(printed, ref), f"printed total {printed} vs reference {ref!r}")
            # Structure: 5-state ends and neighbours map to the 4-state ones,
            # the middle splits between states 2 and 3.
            arg = np.argmax(phi, axis=0)
            for col, state in [(0, 0), (1, 1), (3, 2), (4, 3)]:
                need(arg[col] == state and phi[:, col].max() >= 0.85, f"phi column {col + 1} misplaced")
            need(0.35 <= phi[1, 2] <= 0.65 and 0.35 <= phi[2, 2] <= 0.65, "middle state does not split")
            fwd, bwd = np.diag(phi @ phi_inv), np.diag(phi_inv @ phi)
            need(np.all(fwd >= 0.7) and np.all(bwd >= 0.25) and bwd[0] >= 0.7 and bwd[4] >= 0.7,
                 "round-trip products off the diagonal")
            v = np.array(json.loads((out / "translated.json").read_text())["values"])
            need(close(v, np.array([0, 0, 0, 1.0]) @ phi, 1e-12), "translated utility is not u @ phi")
            need(np.argmax(v) == 4 and v[4] >= 0.9 and np.all(v[:4] <= 0.15), "goal not at the right end")

        return Op("corridor", run, check)

    return Workload(ops=[make(work / "corridor-op")], warmup=[make(work / "corridor-warm")], cycle_s=2.5)


def _renorm(rows) -> np.ndarray:
    m = np.array(rows, dtype=float)
    return m / m.sum(axis=0, keepdims=True)


def _oracle_grid(seed: int, work: Path, loaded: dict) -> Workload:
    inp = work / "inputs"
    c2 = loaded["corridor2.json"]
    ref_c2 = reference.load_model(inp / "corridor2.json")

    def make(name: str, perm: list[int]) -> Op:
        o1 = loaded[name]
        ref_o1 = reference.load_model(inp / name)
        expected: list[float] = []

        def run():
            mapping, total = ontomap.oracle.oracle_search(c2, o1, resolution=ORACLE_RESOLUTION)
            variation = ontomap.oracle.grid_step_variation(c2, o1, mapping, resolution=ORACLE_RESOLUTION)
            return mapping, total, variation

        def check(result):
            mapping, total, variation = result
            if not expected:
                expected.append(reference.grid_search(ref_c2, ref_o1, round(1 / ORACLE_RESOLUTION))[0])
            ref_min = expected[0]
            need(abs(total - ref_min) <= 1e-12 * abs(ref_min), f"oracle total {total!r} vs grid minimum {ref_min!r}")
            ref_total = reference.objective(ref_c2, ref_o1, mapping.phi, mapping.phi_inv)
            need(abs(total - ref_total) <= 1e-12 * abs(ref_total), "oracle total is not its map's objective")
            need(total <= 1e-3, f"oracle total {total!r} above 1e-3")
            need(list(np.argmax(mapping.phi, axis=0)) == perm and list(np.argmax(mapping.phi_inv, axis=0)) == perm,
                 f"oracle map does not recover the permutation {perm}")
            ref_var = reference.step_variation(ref_c2, ref_o1, mapping.phi, mapping.phi_inv, ORACLE_RESOLUTION)
            need(close(variation, ref_var, 1e-9), f"step variation {variation!r} vs reference {ref_var!r}")

        return Op(name, run, check)

    # The corridor against itself and against its swapped copy: same grid,
    # same per-point cost; the seed picks which comes first in the cycle.
    ops = [make("corridor2.json", [0, 1]), make("corridor2-swap.json", [1, 0])]
    if seed % 2:
        ops.reverse()
    return Workload(ops=ops, warmup=[ops[0]], cycle_s=2.8)


def _random_wide(seed: int, work: Path, loaded: dict) -> Workload:
    inp = work / "inputs"
    refs = {n: reference.load_model(inp / f"model-{n}.json") for n in gen_inputs.WIDE_SIZES}
    rng = np.random.default_rng([seed, 7])
    order = [gen_inputs.WIDE_PAIRS[i] for i in rng.permutation(len(gen_inputs.WIDE_PAIRS))]
    seen: dict = {}

    def make(n0: int, n1: int, opt_seed: int) -> Op:
        config = ontomap.optimizer.OptimizerConfig(seed=opt_seed, restarts=WIDE_RESTARTS, max_iters=WIDE_MAX_ITERS)
        u_values = np.array(json.loads((inp / f"utility-{n0}.json").read_text())["values"])

        def run():
            o0 = ontomap.model.read_model((inp / f"model-{n0}.json").read_bytes())
            o1 = ontomap.model.read_model((inp / f"model-{n1}.json").read_bytes())
            result = ontomap.optimizer.optimize(o0, o1, config)
            report = ontomap.objective.evaluate(o0, o1, result.best_map)
            u = ontomap.utility.read_utility((inp / f"utility-{n0}.json").read_bytes())
            return result, report, ontomap.utility.translate(u, result.best_map)

        def check(out):
            result, report, translated = out
            phi, phi_inv = result.best_map.phi, result.best_map.phi_inv
            total = result.best_report.total
            ref = reference.objective(refs[n0], refs[n1], phi, phi_inv)
            need(close(total, ref, 1e-12), f"{n0}x{n1}: total {total!r} vs reference {ref!r}")
            need(report.total == total, f"{n0}x{n1}: evaluate disagrees with the optimizer's report")
            need(total == min(r.final_total for r in result.per_restart), f"{n0}x{n1}: best is not the minimum")
            need(reference.column_stochastic(phi) and reference.column_stochastic(phi_inv),
                 f"{n0}x{n1}: map is not column-stochastic")
            need(close(translated.values, u_values @ phi, 1e-12), f"{n0}x{n1}: translate is not u @ phi")
            key = (n0, n1)
            state = (phi.tobytes(), phi_inv.tobytes(), total)
            need(seen.setdefault(key, state) == state, f"{n0}x{n1}: repeat is not bit-identical")

        return Op(f"p{min(n0, n1)}x{max(n0, n1)}", run, check)

    ops = [make(n0, n1, seed * 100 + i) for i, (n0, n1) in enumerate(order)]
    return Workload(ops=ops, warmup=[ops[0]], cycle_s=3.0, min_cycles=2)


def _cli_batch(seed: int, work: Path, loaded: dict) -> Workload:
    inp = work / "inputs"
    out = work / "cli-out"
    refs = {n: reference.load_model(inp / f"model-{n}.json") for n in gen_inputs.CLI_SIZES}
    ops: list[Op] = []

    def add(label, argv, code, check_out=None):
        def run():
            return cli(argv)

        def check(result):
            got, stdout = result
            expect_code(got, code, argv)
            if check_out is not None:
                check_out(stdout)

        ops.append(Op(label, run, check))

    def valid(stdout):
        need(stdout.strip().endswith(": valid"), "validate did not report valid")

    def objective_check(n0, n1, phi, phi_inv):
        ref = reference.objective_terms(refs[n0], refs[n1], phi, phi_inv)
        want = [ref["forward"][x] for x in ref["forward"]] + [ref["forward_out"]]
        want += [ref["backward"][x] for x in ref["backward"]] + [ref["backward_out"], ref["total"]]

        def check(stdout):
            printed = [line.rsplit(": ", 1)[1] for line in stdout.splitlines()]
            need(len(printed) == len(want), "objective printed the wrong number of terms")
            for p, w in zip(printed, want):
                need(close_6g(p, w), f"objective {n0}x{n1}: printed {p} vs reference {w!r}")

        return check

    def translate_check(n0, phi):
        u = np.array(json.loads((inp / f"utility-{n0}.json").read_text())["values"])

        def check(stdout):
            v = json.loads((out / "translated.json").read_text())["values"]
            need(close(v, u @ phi, 1e-12), f"translate {n0}: output is not u @ phi")

        return check

    def corridor_check(n):
        want = gen_inputs.corridor(n)

        def check(stdout):
            need(json.loads(stdout) == want, f"corridor {n} differs from the reference corridor")

        return check

    for n in gen_inputs.CLI_SIZES:
        add("validate", ["validate", inp / f"model-{n}.json"], 0, valid)
    add("validate", ["validate", inp / "malformed.json"], 2)
    add("validate", ["validate", inp / "missing-field.json"], 2)
    add("validate", ["validate", inp / "nonstochastic.json"], 1,
        lambda s: need("T^L column 2" in s, "violation does not name T^L column 2"))
    add("validate", ["validate", inp / "nan-model.json"], 1)  # fault: NaN passes validation
    for n0, n1 in gen_inputs.CLI_PAIRS:
        doc = json.loads((inp / f"map-{n0}x{n1}.json").read_text())
        phi, phi_inv = np.array(doc["phi"]), np.array(doc["phi_inv"])
        add("objective", ["objective", inp / f"model-{n0}.json", inp / f"model-{n1}.json", inp / f"map-{n0}x{n1}.json"],
            0, objective_check(n0, n1, phi, phi_inv))
        add("translate", ["translate", inp / f"utility-{n0}.json", inp / f"map-{n0}x{n1}.json", "--out", out],
            0, translate_check(n0, phi))
    add("objective", ["objective", inp / "corridor4.json", inp / "corridor4.json", inp / "nan-map.json"], 1)  # fault
    add("objective", ["objective", inp / "model-4.json", inp / "model-8.json", inp / "map-2x4.json"], 1)
    add("objective", ["objective", inp / "model-4.json", inp / "model-8.json", inp / "malformed.json"], 2)
    add("translate", ["translate", inp / "utility-8.json", inp / "map-2x4.json", "--out", out], 1)
    for n in gen_inputs.CLI_CORRIDORS:
        add("corridor", ["corridor", "--length", n], 0, corridor_check(n))
    add("corridor", ["corridor", "--length", 1], 1)
    # Faults: a bad optimizer or oracle setting ends in a traceback.
    add("map", ["map", inp / "corridor4.json", inp / "corridor4.json", "--restarts", 0, "--out", work / "cli-map"], 1)
    add("map", ["map", inp / "corridor4.json", inp / "corridor4.json", "--epsilon", 0, "--out", work / "cli-map"], 1)
    add("oracle", ["oracle", inp / "corridor2.json", inp / "corridor2.json", "--resolution", 0], 1)
    # One whole cycle warms every command kind; 33 cycles leave ten samples
    # beyond op_ms_p99 even with today's five failures per cycle.
    return Workload(ops=ops, warmup=list(ops), cycle_s=0.16, min_cycles=33)


BUILDERS = {
    "corridor-map": _corridor_map,
    "oracle-grid": _oracle_grid,
    "random-wide": _random_wide,
    "cli-batch": _cli_batch,
}


def build(name: str, seed: int, work: Path, loaded: dict) -> Workload:
    return BUILDERS[name](seed, work, loaded)
