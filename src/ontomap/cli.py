"""Command-line front end.

Exit codes: 0 on success, 1 for validation/domain errors, 2 for I/O or
parse errors. Commands that write outputs also write a run manifest next
to them, recording the inputs and configuration needed to reproduce the
run exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .corridor import CorridorSpec, build_corridor
from .divergence import SmoothingPolicy
from .model import (
    FiniteStateModel,
    ModelFormatError,
    ModelValidationError,
    read_model,
    write_model,
)
from .objective import evaluate, read_map, write_map
from .optimizer import OptimizerConfig, optimize
from .utility import read_utility, translate, write_utility

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str, reader):
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_IO)
    try:
        return reader(data)
    except ModelFormatError as e:
        raise CliError(str(e), EXIT_IO)
    except ValueError as e:
        raise CliError(str(e), EXIT_DOMAIN)


def _load_model(path: str) -> FiniteStateModel:
    return _load(path, read_model)


def _format_matrix(mat: np.ndarray, indent: str = "  ") -> str:
    # 3 significant figures for display; files carry full precision.
    rows = []
    for row in mat:
        rows.append(indent + "  ".join(f"{v:8.3g}" for v in row))
    return "\n".join(rows)


def _write_outputs(out_dir: str, manifest: dict, files: dict[str, bytes]) -> None:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (out / name).write_bytes(data)
        manifest = dict(manifest, outputs=sorted(files))
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except OSError as e:
        raise CliError(f"cannot write outputs to {out_dir}: {e}", EXIT_IO)


def _manifest(args: argparse.Namespace, command: str, **inputs) -> dict:
    doc = {"command": command, **inputs}
    for key in ("seed", "restarts", "max_iters", "epsilon"):
        if hasattr(args, key):
            doc[key] = getattr(args, key)
    return doc


def cmd_validate(args) -> int:
    p = Path(args.model)
    try:
        data = p.read_bytes()
    except OSError as e:
        print(f"error: cannot read {args.model}: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        read_model(data)
    except ModelValidationError as e:
        for v in e.violations:
            print(v)
        return EXIT_DOMAIN
    except ModelFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"{args.model}: valid")
    return EXIT_OK


def cmd_map(args) -> int:
    o0 = _load_model(args.o0)
    o1 = _load_model(args.o1)
    try:
        config = OptimizerConfig(
            seed=args.seed,
            restarts=args.restarts,
            max_iters=args.max_iters,
            policy=SmoothingPolicy(epsilon=args.epsilon),
        )
        result = optimize(o0, o1, config)
    except ValueError as e:
        raise CliError(str(e), EXIT_DOMAIN)
    mapping = result.best_map
    print("phi:")
    print(_format_matrix(mapping.phi))
    print("phi_inv:")
    print(_format_matrix(mapping.phi_inv))
    print("phi @ phi_inv:")
    print(_format_matrix(mapping.phi @ mapping.phi_inv))
    print("phi_inv @ phi:")
    print(_format_matrix(mapping.phi_inv @ mapping.phi))
    print(f"objective total: {result.best_report.total:.6g}")
    _write_outputs(
        args.out,
        _manifest(args, "map", o0=args.o0, o1=args.o1),
        {
            "map.json": write_map(mapping),
            "report.json": result.best_report.to_bytes(),
        },
    )
    return EXIT_OK


def cmd_translate(args) -> int:
    u = _load(args.utility, read_utility)
    mapping = _load(args.map, read_map)
    try:
        translated = translate(u, mapping)
    except ValueError as e:
        raise CliError(str(e), EXIT_DOMAIN)
    print("utility:    ", "  ".join(f"{v:.3g}" for v in u.values))
    print("translated: ", "  ".join(f"{v:.3g}" for v in translated.values))
    _write_outputs(
        args.out,
        _manifest(args, "translate", utility=args.utility, map=args.map),
        {"translated.json": write_utility(translated)},
    )
    return EXIT_OK


def cmd_objective(args) -> int:
    o0 = _load_model(args.o0)
    o1 = _load_model(args.o1)
    mapping = _load(args.map, read_map)
    try:
        report = evaluate(o0, o1, mapping, SmoothingPolicy(epsilon=args.epsilon))
    except ValueError as e:
        raise CliError(str(e), EXIT_DOMAIN)
    for x, v in report.forward_transition_terms.items():
        print(f"forward transition {x}: {v:.6g}")
    print(f"forward output: {report.forward_output_term:.6g}")
    for x, v in report.backward_transition_terms.items():
        print(f"backward transition {x}: {v:.6g}")
    print(f"backward output: {report.backward_output_term:.6g}")
    print(f"total: {report.total:.6g}")
    return EXIT_OK


def cmd_corridor(args) -> int:
    try:
        model = build_corridor(CorridorSpec(length=args.length))
    except ValueError as e:
        raise CliError(str(e), EXIT_DOMAIN)
    data = write_model(model)
    if args.out_file:
        try:
            Path(args.out_file).write_bytes(data)
        except OSError as e:
            raise CliError(f"cannot write {args.out_file}: {e}", EXIT_IO)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import oracle_search

    o0 = _load_model(args.o0)
    o1 = _load_model(args.o1)
    try:
        mapping, total = oracle_search(
            o0, o1, resolution=args.resolution, policy=SmoothingPolicy(epsilon=args.epsilon)
        )
    except ValueError as e:
        raise CliError(str(e), EXIT_DOMAIN)
    print("phi:")
    print(_format_matrix(mapping.phi))
    print("phi_inv:")
    print(_format_matrix(mapping.phi_inv))
    print(f"oracle total: {total:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontomap",
        description="Translate utility functions between finite state model ontologies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file's stochasticity invariants")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("map", help="learn a stochastic map pair between two models")
    p.add_argument("o0")
    p.add_argument("o1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-iters", type=int, default=20000, dest="max_iters")
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("translate", help="translate a utility file through a map file")
    p.add_argument("utility")
    p.add_argument("map")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("objective", help="evaluate the objective for a map file")
    p.add_argument("o0")
    p.add_argument("o1")
    p.add_argument("map")
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.set_defaults(func=cmd_objective)

    p = sub.add_parser("corridor", help="emit a corridor model file")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out", dest="out_file", default=None)
    p.set_defaults(func=cmd_corridor)

    p = sub.add_parser("oracle", help="brute-force grid search (tiny instances only)")
    p.add_argument("o0")
    p.add_argument("o1")
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
