import json
import math
from pathlib import Path

import numpy as np
import pytest

import ontomap
from conftest import published_corridor_map
from ontomap.cli import build_parser, main
from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.divergence import DEFAULT_POLICY
from ontomap.model import read_model, write_model
from ontomap.objective import read_map, write_map
from ontomap.optimizer import OptimizerConfig, optimize
from ontomap.oracle import DEFAULT_RESOLUTION
from ontomap.utility import read_utility, write_utility, UtilityVector


@pytest.fixture
def corridor_files(tmp_path):
    p4 = tmp_path / "corridor4.json"
    p5 = tmp_path / "corridor5.json"
    p4.write_bytes(write_model(build_corridor(CorridorSpec(4))))
    p5.write_bytes(write_model(build_corridor(CorridorSpec(5))))
    return p4, p5


def test_validate_ok(corridor_files, capsys):
    p4, _ = corridor_files
    assert main(["validate", str(p4)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_broken_file(tmp_path, capsys):
    doc = json.loads(write_model(build_corridor(CorridorSpec(4))))
    doc["transitions"]["L"][0][0] = 0.4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert "T^L column 1" in capsys.readouterr().out


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/model.json"]) == 2


def test_validate_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["validate", str(bad)]) == 2


def test_corridor_command_round_trips(tmp_path):
    out = tmp_path / "c6.json"
    assert main(["corridor", "--length", "6", "--out", str(out)]) == 0
    model = read_model(out.read_bytes())
    assert model.n == 6


def test_corridor_command_rejects_short(capsys):
    assert main(["corridor", "--length", "1"]) == 1


def test_map_command_writes_outputs(corridor_files, tmp_path, capsys):
    p4, p5 = corridor_files
    out = tmp_path / "run"
    code = main(
        [
            "map", str(p4), str(p5),
            "--seed", "0", "--restarts", "2", "--max-iters", "400",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "phi:" in text and "phi_inv @ phi:" in text
    mapping = read_map((out / "map.json").read_bytes())
    assert mapping.n0 == 4 and mapping.n1 == 5
    report = json.loads((out / "report.json").read_text())
    # The total is exactly math.fsum of the six terms the report lists.
    assert report["total"] == math.fsum(
        list(report["forward_transition_terms"].values())
        + [report["forward_output_term"], report["backward_output_term"]]
        + list(report["backward_transition_terms"].values())
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "map"
    assert manifest["seed"] == 0
    assert sorted(manifest["outputs"]) == ["map.json", "report.json"]


def test_map_command_reproducible(corridor_files, tmp_path, capsys):
    p4, p5 = corridor_files
    args = ["map", str(p4), str(p5), "--seed", "3", "--restarts", "2", "--max-iters", "300"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "map.json").read_bytes() == (out_b / "map.json").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()


def test_map_command_reports_each_restart(corridor_files, tmp_path, capsys):
    # One line per restart: its final total, iterations, accepted moves and
    # why it stopped. report.json keeps the best map's report alone.
    p4, p5 = corridor_files
    out = tmp_path / "run"
    argv = ["map", str(p4), str(p5), "--seed", "1", "--restarts", "3", "--max-iters", "200"]
    assert main(argv + ["--out", str(out)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("restart ")]
    o0, o1 = read_model(p4.read_bytes()), read_model(p5.read_bytes())
    result = optimize(o0, o1, OptimizerConfig(seed=1, restarts=3, max_iters=200))
    assert printed == [
        f"restart {o.restart}: total {o.final_total:.6g}, {o.iterations} iterations, "
        f"{o.accepted} accepted, stopped on {o.stop}"
        for o in result.per_restart
    ]
    assert (out / "report.json").read_bytes() == result.best_report.to_bytes()


def test_manifest_records_environment(corridor_files, tmp_path, capsys):
    # The bytes of a run depend on the ontomap version, the numpy build, the
    # BLAS kernel it runs and the CPU features it dispatches to, so the
    # manifest records them.
    p4, p5 = corridor_files
    out = tmp_path / "run"
    assert main(["map", str(p4), str(p5), "--restarts", "1", "--max-iters", "5", "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["ontomap"] == ontomap.__version__
    assert env["numpy"] == np.__version__
    assert env["blas"] is None or set(env["blas"]) == {"name", "version", "core"}
    assert env["blas"] is None or env["blas"]["core"] is None or isinstance(env["blas"]["core"], str)
    assert all(isinstance(f, str) for f in env["cpu_dispatch"])


def test_objective_command(corridor_files, tmp_path, capsys):
    p4, p5 = corridor_files
    map_path = tmp_path / "map.json"
    map_path.write_bytes(write_map(published_corridor_map()))
    assert main(["objective", str(p4), str(p5), str(map_path)]) == 0
    out = capsys.readouterr().out
    assert "total: 6.86815" in out


def test_objective_identity_map_zero(corridor_files, tmp_path, capsys):
    p4, _ = corridor_files
    map_path = tmp_path / "map.json"
    from ontomap.objective import OntologyMap

    map_path.write_bytes(write_map(OntologyMap(phi=np.eye(4), phi_inv=np.eye(4))))
    assert main(["objective", str(p4), str(p4), str(map_path)]) == 0
    out = capsys.readouterr().out
    total = float(out.strip().splitlines()[-1].split(":")[1])
    assert total <= 1e-6  # smoothing slack on 0/1 matrices


def test_translate_command(corridor_files, tmp_path, capsys):
    map_path = tmp_path / "map.json"
    map_path.write_bytes(write_map(published_corridor_map()))
    u_path = tmp_path / "u.json"
    u_path.write_bytes(write_utility(UtilityVector([0, 0, 0, 1])))
    out = tmp_path / "run"
    assert main(["translate", str(u_path), str(map_path), "--out", str(out)]) == 0
    translated = read_utility((out / "translated.json").read_bytes())
    assert translated.values.tolist() == [0, 0, 0, 0, 1]


def test_translate_dimension_mismatch(corridor_files, tmp_path):
    map_path = tmp_path / "map.json"
    map_path.write_bytes(write_map(published_corridor_map()))
    u_path = tmp_path / "u.json"
    u_path.write_bytes(write_utility(UtilityVector([1, 2, 3])))
    assert main(["translate", str(u_path), str(map_path)]) == 1


def test_oracle_command(tmp_path, capsys):
    p2 = tmp_path / "c2.json"
    p2.write_bytes(write_model(build_corridor(CorridorSpec(2))))
    assert main(["oracle", str(p2), str(p2), "--resolution", "0.25"]) == 0
    assert "oracle total" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        "map {c2} {c2} --restarts 0",
        "map {c2} {c2} --max-iters 0",
        "map {c2} {c2} --seed -1",
        "map {c2} {c2} --epsilon 0",
        "map {c2} {c2} --epsilon nan",
        # Subnormal: p / q would overflow to inf.
        "objective {c4} {c5} {map} --epsilon 1e-320",
        # Rejected before anything is allocated.
        "corridor --length 100000000",
        "objective {c4} {c5} {map_sum_09}",
        "translate {goal} {map_sum_09}",
        "translate {utility_nan} {map}",
        "translate {utility_inf} {map}",
        # NaN is a JSON number to the readers and fails validation.
        "map {model_nan} {c5}",
        "objective {c4} {c5} {map_nan}",
    ]
    + [f"oracle {{c2}} {{c2}} --resolution {r}" for r in ("0", "-0.5", "0.3", "3", "inf", "nan", "1e-300")],
)
def test_bad_input_exits_1(argv, corridor_files, tmp_path, capsys):
    p4, p5 = corridor_files
    p2 = tmp_path / "c2.json"
    p2.write_bytes(write_model(build_corridor(CorridorSpec(2))))
    published = published_corridor_map()
    (tmp_path / "map.json").write_bytes(write_map(published))
    phi = published.phi.copy()
    phi[0, 0] = 0.9  # column 1 sums to 0.9
    (tmp_path / "map_sum_09.json").write_text(
        json.dumps({"phi": phi.tolist(), "phi_inv": published.phi_inv.tolist()})
    )
    (tmp_path / "goal.json").write_bytes(write_utility(UtilityVector([0, 0, 0, 1])))
    (tmp_path / "utility_nan.json").write_text('{"model_states": 4, "values": [0, NaN, 0, 1]}')
    (tmp_path / "utility_inf.json").write_text('{"model_states": 4, "values": [0, 1e999, 0, 1]}')
    (tmp_path / "model_nan.json").write_text(p4.read_text().replace("1.0", "NaN", 1))
    (tmp_path / "map_nan.json").write_text(
        json.dumps({"phi": phi.tolist(), "phi_inv": published.phi_inv.tolist()}).replace("0.9", "NaN", 1)
    )
    paths = {"c2": p2, "c4": p4, "c5": p5}
    for name in ("map", "map_sum_09", "goal", "utility_nan", "utility_inf", "model_nan", "map_nan"):
        paths[name] = tmp_path / f"{name}.json"
    args = [a.format(**paths) for a in argv.split()]
    if args[0] in ("map", "translate"):
        args += ["--out", str(tmp_path / "run")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        cmd.replace("{bad}", "{%s}" % kind)
        for cmd in ("validate {bad}", "objective {c4} {c5} {bad}", "translate {bad} {map}", "map {bad} {c5}")
        for kind in ("missing", "directory", "malformed", "non_utf8")
    ]
    + [
        "validate {transitions_list}",
        "map {transitions_list} {c5}",
        "validate {states_2_7}",
        "validate {motor_string}",
        "map {numeric_strings} {c2}",
        "objective {c4} {c5} {map_strings}",
        "objective {c4} {c5} {map_no_phi_inv}",
        "objective {c4} {c5} {map_ragged}",
        "objective {c4} {c5} {map_huge}",
        "translate {utility_bool} {map}",
        "translate {utility_no_values} {map}",
        "translate {utility_huge} {map}",
        "translate {utility_value_huge} {map}",
        "map {c2} {c2} --restarts 1 --max-iters 3 --out {c2}/sub",
        "corridor --length 3 --out /nonexistent/x.json",
    ]
    # Files that parse but that FiniteStateModel refuses.
    + [f"validate {{{kind}}}" for kind in ("states_5", "no_R", "extra_key", "states_0", "output_2_rows", "states_huge")],
)
def test_bad_file_exits_2(argv, corridor_files, tmp_path, capsys):
    p4, p5 = corridor_files
    c2 = write_model(build_corridor(CorridorSpec(2)))
    doc = json.loads(c2)
    doc4 = json.loads(p4.read_bytes())
    published = json.loads(write_map(published_corridor_map()))
    files = {
        "c2": c2,
        "map": write_map(published_corridor_map()),
        "malformed": b"{ not json",
        "non_utf8": b'{"states": 4, "motor": ["\xff"]}',
        "transitions_list": json.dumps(dict(doc, transitions=["L", "R"])).encode(),
        "states_2_7": json.dumps(dict(doc, states=2.7)).encode(),
        "motor_string": json.dumps(dict(doc, motor="LR")).encode(),
        "numeric_strings": json.dumps(dict(doc, output=[[str(v) for v in row] for row in doc["output"]])).encode(),
        "map_strings": json.dumps(
            {"phi": [[str(v) for v in row] for row in published_corridor_map().phi.tolist()],
             "phi_inv": published_corridor_map().phi_inv.tolist()}
        ).encode(),
        "map_no_phi_inv": json.dumps({"phi": published["phi"]}).encode(),
        "map_ragged": json.dumps(dict(published, phi=[published["phi"][0][:-1]] + published["phi"][1:])).encode(),
        "map_huge": json.dumps(dict(published, phi=[[10**400] + published["phi"][0][1:]] + published["phi"][1:])).encode(),
        "utility_bool": b'{"model_states": 4, "values": [0, 0, 0, true]}',
        "utility_no_values": b'{"model_states": 4}',
        "utility_huge": b'{"model_states": 1' + b"0" * 400 + b', "values": [0, 0, 0, 1]}',
        "utility_value_huge": b'{"model_states": 4, "values": [0, 0, 0, 1' + b"0" * 400 + b"]}",
        "states_5": json.dumps(dict(doc4, states=5)).encode(),  # 4 x 4 matrices
        "no_R": json.dumps(dict(doc4, transitions={"L": doc4["transitions"]["L"]})).encode(),
        "extra_key": json.dumps(dict(doc4, transitions=dict(doc4["transitions"], U=doc4["transitions"]["L"]))).encode(),
        "states_0": json.dumps(dict(doc4, states=0)).encode(),
        "output_2_rows": json.dumps(dict(doc4, output=doc4["output"][:2])).encode(),
        "states_huge": json.dumps(dict(doc4, states=10**400)).encode(),
    }
    paths = {"c4": p4, "c5": p5, "missing": tmp_path / "missing.json", "directory": tmp_path}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(data)
    args = [a.format(**paths) for a in argv.split()]
    if args[0] in ("map", "translate") and "--out" not in args:
        args += ["--out", str(tmp_path / "run")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # A huge number in a file is quoted by its first 40 characters.
    assert max(map(len, err.splitlines())) < 200
    # Each file the command reads but refuses by its content (not a missing
    # path, a directory or an unwritable --out) is named by its kind.
    if not any(s in argv for s in ("{missing}", "{directory}", "--out")):
        what = {"validate": "model", "map": "model", "objective": "map", "translate": "utility"}[args[0]]
        assert err.startswith(f"error: malformed {what} file: ")
    if "{map_huge}" in argv:  # an integer past the float range is named by its matrix
        assert err == "error: malformed map file: phi: an entry is past the float range\n"
    if "{utility_value_huge}" in argv:
        assert err == "error: malformed utility file: values: an entry is past the float range\n"


def test_parser_built_once_per_process(corridor_files, capsys):
    assert build_parser() is build_parser()
    # A parse error leaves the shared parser fit for the next command.
    with pytest.raises(SystemExit) as e:
        main(["map"])
    assert e.value.code == 2
    assert main(["validate", str(corridor_files[0])]) == 0
    assert "valid" in capsys.readouterr().out


def test_defaults_come_from_library():
    config = OptimizerConfig()
    args = build_parser().parse_args(["map", "a", "b"])
    assert (args.seed, args.restarts, args.max_iters) == (config.seed, config.restarts, config.max_iters)
    assert args.epsilon == config.policy.epsilon == DEFAULT_POLICY.epsilon
    args = build_parser().parse_args(["oracle", "a", "b"])
    assert (args.resolution, args.epsilon) == (DEFAULT_RESOLUTION, DEFAULT_POLICY.epsilon)
    assert build_parser().parse_args(["objective", "a", "b", "m"]).epsilon == DEFAULT_POLICY.epsilon


@pytest.mark.parametrize("command", ["validate", "map", "translate", "objective", "corridor", "oracle"])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: ontomap {command}")
    if command in ("map", "objective", "oracle"):
        assert all(arg in out for arg in ("o0", "o1", "--epsilon"))
