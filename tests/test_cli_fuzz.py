"""Fuzz ``cli.main`` in-process with mutated input files and flag values.

Whatever the inputs, a command must end in its documented exit code (0, 1
or 2) and never in a traceback; a failure says ``error: `` on stderr, and a
success prints and writes only finite numbers.
"""

import copy
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import published_corridor_map
from ontomap.cli import main
from ontomap.corridor import CorridorSpec, build_corridor
from ontomap.model import write_model
from ontomap.objective import write_map
from ontomap.utility import UtilityVector, write_utility

BASE = {
    "c4": json.loads((files("ontomap") / "fixtures" / "corridor4.json").read_bytes()),
    "c5": json.loads((files("ontomap") / "fixtures" / "corridor5.json").read_bytes()),
    # The oracle only ever sees two-state models: mutations cannot add states.
    "c2": json.loads(write_model(build_corridor(CorridorSpec(2)))),
    "map": json.loads(write_map(published_corridor_map())),
    "utility": json.loads(write_utility(UtilityVector([0.0, 0.0, 0.0, 1.0]))),
}


class Raw(str):
    """Text written into the document as it is."""


class Pairs(list):
    """A JSON object as (key, value) pairs, so that a key can repeat."""


def _encode(node) -> str:
    if isinstance(node, Raw):
        return node
    if isinstance(node, dict):
        node = Pairs(node.items())
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_encode(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_encode, node)) + "]"
    return json.dumps(node)  # NaN and infinities as json.loads reads them


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))


def _replace(doc, path, new):
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


OTHER_TYPES = st.sampled_from(["x", "0.5", True, None, [], {}, [[1]], [["1"]], 3, 0.5, {"a": 1}])
BAD_NUMBERS = st.sampled_from(
    [math.nan, math.inf, -math.inf, Raw("1e999"), Raw("-1e999"), 1e308, -1e308, -1.0, -0.5, 1e-320, 0, 2, 10**30]
)


def _reshapes(m: list) -> list:
    """A list one item shorter or longer, or nested once more; a matrix
    also ragged, transposed or flattened."""
    if not all(isinstance(r, list) and r for r in m):
        return [m[:-1], m + m[-1:], [m]]
    return [m[:-1], m + m[-1:], [m], [m[0][:-1]] + m[1:], [list(r) for r in zip(*m)], sum(m, [])]


def _mutated(data, doc) -> bytes:
    """``doc`` encoded after one mutation drawn from ``data``."""
    doc = copy.deepcopy(doc)
    kind = data.draw(st.sampled_from(["type", "drop", "duplicate", "number", "reshape", "nest", "bytes"]))
    nodes = list(_nodes(doc))
    if kind == "type":
        path, _ = data.draw(st.sampled_from(nodes))
        doc = _replace(doc, path, data.draw(OTHER_TYPES))
    elif kind in ("drop", "duplicate"):
        # Only an object's key can repeat; keys are strings, list indices not.
        path = data.draw(st.sampled_from([p for p, _ in nodes if p and (kind == "drop" or isinstance(p[-1], str))]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            extra = (path[-1], data.draw(st.one_of(st.just(parent[path[-1]]), OTHER_TYPES)))
            pairs = list(parent.items())
            doc = _replace(doc, path[:-1], Pairs([extra] + pairs if data.draw(st.booleans()) else pairs + [extra]))
    elif kind == "number":
        path, _ = data.draw(st.sampled_from([(p, n) for p, n in nodes if isinstance(n, (int, float))]))
        doc = _replace(doc, path, data.draw(BAD_NUMBERS))
    elif kind == "reshape":
        path, m = data.draw(st.sampled_from([(p, n) for p, n in nodes if isinstance(n, list) and n]))
        doc = _replace(doc, path, data.draw(st.sampled_from(_reshapes(m))))
    elif kind == "nest":
        path, node = data.draw(st.sampled_from(nodes))
        depth = data.draw(st.sampled_from([1, 5000]))
        doc = _replace(doc, path, Raw("[" * depth + _encode(node) + "]" * depth))
    raw = _encode(doc).encode()
    if kind == "bytes":
        i = data.draw(st.integers(0, len(raw)))
        raw = data.draw(st.sampled_from([raw[:i], raw[:i] + b"\xff" + raw[i:], raw[:i] + b"\xc3" + raw[i + 1 :]]))
    return raw




def _flag(valid: list[str], invalid: list[str]):
    """Flag values, valid about half the time."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


EPSILON = _flag(["1e-9", "1e-3", "2.2250738585072014e-308"], ["0.002", "0", "-1e-9", "nan", "inf", "1e-320", "x"])
SEED = _flag(["0", "7", str(2**64)], ["-1", "1.5", "x"])
RESTARTS = _flag(["1", "2"], ["0", "-1", "2.5"])
MAX_ITERS = _flag(["1", "5"], ["0", "-2", "nan"])
# Up to 64 states, or beyond corridor.MAX_LENGTH, which is refused before
# anything is allocated.
LENGTH = st.one_of(st.integers(-2, 64).map(str), st.sampled_from(["1025", "100000000", str(2**63), "2.5", "x"]))
RESOLUTION = _flag(["0.25", "0.5", "1"], ["0.3", "0", "-0.5", "nan", "inf", "3", "x"])


def _command(data, work: Path) -> list[str]:
    """A command line whose input files are written into ``work``; at most
    one of them is mutated."""
    mutate = data.draw(st.integers(0, 3))  # the index of the mutated file
    written = []

    def file(kind: str) -> str:
        path = work / f"in{len(written)}.json"
        path.write_bytes(_mutated(data, BASE[kind]) if len(written) == mutate else _encode(BASE[kind]).encode())
        written.append(path)
        return str(path)

    def flag(name: str, values) -> list[str]:
        return [name, data.draw(values)] if data.draw(st.booleans()) else []

    out = ["--out", str(work / "out")]
    command = data.draw(st.sampled_from(["validate", "objective", "translate", "map", "corridor", "oracle"]))
    if command == "validate":
        return ["validate", file(data.draw(st.sampled_from(["c4", "c5", "c2"])))]
    if command == "objective":
        return ["objective", file("c4"), file("c5"), file("map")] + flag("--epsilon", EPSILON)
    if command == "translate":
        return ["translate", file("utility"), file("map")] + out
    if command == "map":
        return (
            ["map", file("c4"), file("c5"), "--restarts", data.draw(RESTARTS), "--max-iters", data.draw(MAX_ITERS)]
            + flag("--seed", SEED) + flag("--epsilon", EPSILON) + out
        )
    if command == "corridor":
        return ["corridor", "--length", data.draw(LENGTH)] + flag("--out", st.just(str(work / "c.json")))
    return ["oracle", file("c2"), file("c2"), "--resolution", data.draw(RESOLUTION)] + flag("--epsilon", EPSILON)


def _reject_constant(token):
    raise AssertionError(f"non-finite number {token} written")


NON_FINITE_TEXT = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_fuzz(data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = _command(data, work)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse refuses the command line
                code = e.code
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        if code == 0:
            assert not NON_FINITE_TEXT.search(out.replace(tmp, "")), out
            for path in work.rglob("*"):
                if path.is_file() and not path.name.startswith("in"):
                    json.loads(path.read_bytes(), parse_constant=_reject_constant)
        elif err.startswith("usage:"):
            assert code == 2
        elif argv[0] == "validate" and not err:
            assert code == 1 and out  # violations on stdout
        else:
            assert err.startswith("error: "), err
