import json
from pathlib import Path

import numpy as np
import pytest

from conftest import published_corridor_map
from ontomap.cli import main
from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.model import read_model, write_model
from ontomap.objective import read_map, write_map
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
    assert report["total"] == pytest.approx(sum(
        list(report["forward_transition_terms"].values())
        + [report["forward_output_term"], report["backward_output_term"]]
        + list(report["backward_transition_terms"].values())
    ))
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
        "translate {utility_bool} {map}",
        "map {c2} {c2} --restarts 1 --max-iters 3 --out {c2}/sub",
        "corridor --length 3 --out /nonexistent/x.json",
    ],
)
def test_bad_file_exits_2(argv, corridor_files, tmp_path, capsys):
    p4, p5 = corridor_files
    c2 = write_model(build_corridor(CorridorSpec(2)))
    doc = json.loads(c2)
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
        "utility_bool": b'{"model_states": 4, "values": [0, 0, 0, true]}',
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
