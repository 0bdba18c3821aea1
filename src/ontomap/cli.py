"""Command-line front end.

Exit codes: 0 on success, 1 for validation/domain errors, 2 for I/O or
parse errors; ``main`` is the one place an exception becomes an exit code.
Commands that write outputs also write a run manifest next to them,
recording the inputs and configuration needed to reproduce the run
exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .corridor import CorridorSpec, build_corridor
from .divergence import DEFAULT_POLICY, SmoothingPolicy
from .model import (
    ModelFormatError,
    ModelValidationError,
    dump_json,
    read_model,
    write_model,
)
from .objective import evaluate, read_map, write_map
from .optimizer import OptimizerConfig, optimize
from .oracle import DEFAULT_RESOLUTION, oracle_search
from .utility import read_utility, translate, write_utility

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _print_matrices(*named: tuple[str, np.ndarray]) -> None:
    # 3 significant figures for display; files carry full precision.
    for name, mat in named:
        print(f"{name}:")
        for row in mat:
            print("  " + "  ".join(f"{v:8.3g}" for v in row))


@functools.cache
def _blas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked at run time (which
    ``OPENBLAS_CORETYPE`` overrides), or None where numpy bundles no
    OpenBLAS that reports it (numpy 1.x, MKL, Accelerate)."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so"):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _environment() -> dict:
    """What the output bytes depend on beyond the inputs and configuration:
    the ontomap and numpy versions, the BLAS numpy was built against (where
    numpy reports it) with the kernel it runs, and the CPU features numpy
    dispatches to on this machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"], "core": _blas_core()}
    except (TypeError, KeyError):  # numpy < 1.25 only prints its build
        blas = None
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatch = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return {"ontomap": __version__, "numpy": np.__version__, "blas": blas, "cpu_dispatch": dispatch}


def _write_outputs(args: argparse.Namespace, files: dict[str, bytes], **inputs) -> None:
    """Write ``files`` into ``args.out`` with a manifest of the command's
    inputs, configuration and environment."""
    manifest = {"command": args.command, **inputs}
    for key in ("seed", "restarts", "max_iters", "epsilon"):
        if hasattr(args, key):
            manifest[key] = getattr(args, key)
    manifest["outputs"] = sorted(files)
    manifest["environment"] = _environment()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
    (out / "manifest.json").write_bytes(dump_json(manifest))


def cmd_validate(args) -> int:
    try:
        read_model(Path(args.model).read_bytes())
    except ModelValidationError as e:
        for v in e.violations:
            print(v)
        return EXIT_DOMAIN
    print(f"{args.model}: valid")
    return EXIT_OK


def cmd_map(args) -> int:
    o0 = read_model(Path(args.o0).read_bytes())
    o1 = read_model(Path(args.o1).read_bytes())
    config = OptimizerConfig(
        seed=args.seed,
        restarts=args.restarts,
        max_iters=args.max_iters,
        policy=SmoothingPolicy(epsilon=args.epsilon),
    )
    result = optimize(o0, o1, config)
    mapping = result.best_map
    _print_matrices(
        ("phi", mapping.phi),
        ("phi_inv", mapping.phi_inv),
        ("phi @ phi_inv", mapping.phi @ mapping.phi_inv),
        ("phi_inv @ phi", mapping.phi_inv @ mapping.phi),
    )
    for o in result.per_restart:
        print(
            f"restart {o.restart}: total {o.final_total:.6g}, {o.iterations} iterations, "
            f"{o.accepted} accepted, stopped on {o.stop}"
        )
    print(f"objective total: {result.best_report.total:.6g}")
    files = {"map.json": write_map(mapping), "report.json": result.best_report.to_bytes()}
    _write_outputs(args, files, o0=args.o0, o1=args.o1)
    return EXIT_OK


def cmd_translate(args) -> int:
    u = read_utility(Path(args.utility).read_bytes())
    mapping = read_map(Path(args.map).read_bytes())
    translated = translate(u, mapping)
    print("utility:    ", "  ".join(f"{v:.3g}" for v in u.values))
    print("translated: ", "  ".join(f"{v:.3g}" for v in translated.values))
    _write_outputs(
        args, {"translated.json": write_utility(translated)}, utility=args.utility, map=args.map
    )
    return EXIT_OK


def cmd_objective(args) -> int:
    o0 = read_model(Path(args.o0).read_bytes())
    o1 = read_model(Path(args.o1).read_bytes())
    mapping = read_map(Path(args.map).read_bytes())
    report = evaluate(o0, o1, mapping, SmoothingPolicy(epsilon=args.epsilon))
    for x, v in report.forward_transition_terms.items():
        print(f"forward transition {x}: {v:.6g}")
    print(f"forward output: {report.forward_output_term:.6g}")
    for x, v in report.backward_transition_terms.items():
        print(f"backward transition {x}: {v:.6g}")
    print(f"backward output: {report.backward_output_term:.6g}")
    print(f"total: {report.total:.6g}")
    return EXIT_OK


def cmd_corridor(args) -> int:
    data = write_model(build_corridor(CorridorSpec(length=args.length)))
    if args.out_file:
        Path(args.out_file).write_bytes(data)
    else:
        sys.stdout.write(str(data, "utf-8"))
    return EXIT_OK


def cmd_oracle(args) -> int:
    o0 = read_model(Path(args.o0).read_bytes())
    o1 = read_model(Path(args.o1).read_bytes())
    mapping, total = oracle_search(
        o0, o1, resolution=args.resolution, policy=SmoothingPolicy(epsilon=args.epsilon)
    )
    _print_matrices(("phi", mapping.phi), ("phi_inv", mapping.phi_inv))
    print(f"oracle total: {total:.6g}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontomap",
        description="Translate utility functions between finite state model ontologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The model pair and smoothing floor of map, objective and oracle.
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("o0")
    pair.add_argument("o1")
    pair.add_argument("--epsilon", type=float, default=DEFAULT_POLICY.epsilon)

    p = sub.add_parser("validate", help="check a model file's stochasticity invariants")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("map", parents=[pair], help="learn a stochastic map pair between two models")
    p.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    p.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    p.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters, dest="max_iters")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("translate", help="translate a utility file through a map file")
    p.add_argument("utility")
    p.add_argument("map")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("objective", parents=[pair], help="evaluate the objective for a map file")
    p.add_argument("map")
    p.set_defaults(func=cmd_objective)

    p = sub.add_parser("corridor", help="emit a corridor model file")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out", dest="out_file", default=None)
    p.set_defaults(func=cmd_corridor)

    p = sub.add_parser("oracle", parents=[pair], help="brute-force grid search (tiny instances only)")
    p.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO if isinstance(e, (OSError, ModelFormatError)) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
