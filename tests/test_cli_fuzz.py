"""Bounded sweeps of the command line's input contracts, run through
cli.main in-process.

simulate: a mutated baseline scenario exits 0, 2 or 3; a run that exits 0
writes strict JSON and CSV with finite values, a refused or failed run
leaves no output, and nothing escapes as a traceback.

analyze: each of the six operations exits 0 with one strict-JSON line on
stdout and nothing on stderr, or exits 2 with nothing on stdout and one
``error:`` line ending stderr (argparse's ``usage:`` plus ``error:`` too).
pytest's ``filterwarnings = error`` turns any warning into a failure.
"""
import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nftgamesim.cli import main

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"
OUTPUTS = ("events.jsonl", "snapshots.csv", "summary.json")


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr; argparse's SystemExit counts as
    an exit, any other exception escapes to fail the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN and ±Infinity; every number is finite."""
    value = json.loads(text, parse_constant=_refuse_constant)
    assert all_finite(value), text
    return value


def all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(all_finite, value.values()))
    if isinstance(value, list):
        return all(map(all_finite, value))
    return True


# -- simulate --------------------------------------------------------------


def paths(node, prefix=()):
    """Every key and list index of a scenario document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


BASE_DOC = json.loads(BASELINE.read_text())
PATHS = list(paths(BASE_DOC))
VALUES = st.sampled_from(
    [-1, 0, 1, 2, 0.5, -0.0, 1e308, -1e308, 5e-324, 2**64, 2**63 - 1, math.nan, math.inf,
     True, False, None, "x", "", [], {}, [1.0], {"x": 1}]
)
# ("set", path, value) replaces or adds, ("del", path) removes, ("add", path)
# adds an unknown key to the object at the path.
MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(PATHS), VALUES),
    st.tuples(st.just("del"), st.sampled_from(PATHS)),
    st.tuples(st.just("add"), st.sampled_from([()] + PATHS)),
)


def mutate(doc: dict, mutation) -> None:
    """Apply one mutation; one whose path an earlier mutation removed or
    replaced changes nothing."""
    kind, path = mutation[0], mutation[1]
    parent = doc
    for key in path if kind == "add" else path[:-1]:
        if not isinstance(parent, (dict, list)):
            return
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return
    if kind == "add":
        if isinstance(parent, dict):
            parent["unknown_key"] = 1
        return
    key = path[-1]
    if isinstance(parent, dict) and kind == "set":
        parent[key] = mutation[2]
    elif isinstance(parent, dict):
        parent.pop(key, None)
    elif isinstance(parent, list) and key < len(parent):
        if kind == "set":
            parent[key] = mutation[2]
        else:
            del parent[key]


def check_outputs(out_dir: Path) -> None:
    for line in (out_dir / "events.jsonl").read_text().splitlines():
        strict_json(line)
    with open(out_dir / "snapshots.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "step" and len(rows) > 1
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        assert all(math.isfinite(float(cell)) for cell in row), row
    strict_json((out_dir / "summary.json").read_text())


def value_at(path):
    node = BASE_DOC
    for key in path:
        node = node[key]
    return node


def with_int_boundaries(test):
    """Run ``test`` on every run, before anything drawn, with each integer of
    the scenario set to 2**63 - 1, the largest C ssize_t, and to 2**64, which
    no C integer holds."""
    for path in PATHS:
        if type(value_at(path)) is int:
            for value in (2**63 - 1, 2**64):
                test = example(mutations=[("set", path, value)], steps=10)(test)
    return test


class TestSimulateContract:
    @settings(max_examples=120, deadline=None)
    @given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3), steps=st.integers(1, 10))
    @with_int_boundaries
    def test_mutated_baseline(self, mutations, steps):
        doc = copy.deepcopy(BASE_DOC)
        for mutation in mutations:
            mutate(doc, mutation)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "scenario.json"
            config.write_text(json.dumps(doc))
            out_dir = Path(tmp) / "out"
            code, out, err = run_main(
                ["simulate", "--config", str(config), "--steps", str(steps), "--out", str(out_dir)]
            )
            assert code in (0, 2, 3), (code, err)
            assert "Traceback" not in err
            if code == 0:
                assert err == ""
                check_outputs(out_dir)
            else:
                assert out == ""
                assert err.startswith("error: ")
                assert not any((out_dir / name).exists() for name in OUTPUTS)


# -- analyze ---------------------------------------------------------------


FLOAT_TEXT = st.sampled_from(
    ["0", "-0", "1", "-1", "0.5", "2", "1e-12", "5e-324", "-5e-324", "1e154", "-1e154",
     "1e308", "-1e308", "nan", "inf", "-inf", "x", ""]
)
VECTOR_TEXT = st.one_of(
    st.lists(FLOAT_TEXT.filter(bool), max_size=3).map(",".join),
    st.sampled_from(["", ",", "1,,2"]),
)
MATRIX_TEXT = st.one_of(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(FLOAT_TEXT.filter(bool), min_size=n, max_size=n).map(",".join),
            min_size=1,
            max_size=3,
        )
    ).map(";".join),
    st.sampled_from(["", ";", "1,0;1", "1;0,1"]),
)
INT_TEXT = st.sampled_from(["-1", "0", "1", "3", "7", "1025", "2.5", "1e3", "x", ""])

# Each operation's flags and how their values are drawn; None marks a flag
# that may be left out.
OPERATIONS = {
    "sharpe": {"--excess": FLOAT_TEXT, "--vol": FLOAT_TEXT, "--horizon": None},
    "allocate": {"--mu": VECTOR_TEXT, "--vol": MATRIX_TEXT, "--riskless": None},
    "envelope": {"--up": FLOAT_TEXT, "--down": FLOAT_TEXT, "--prob": None},
    "propitious": {"--seeker-exponent": None},
    "lattice": {
        "--breeds-remaining": INT_TEXT,
        "--floor": FLOAT_TEXT,
        "--child-value": FLOAT_TEXT,
        "--costs": VECTOR_TEXT,
    },
    "arbitrage": {"--capital": FLOAT_TEXT, "--growth": FLOAT_TEXT, "--cost": FLOAT_TEXT},
}


@st.composite
def analyze_argv(draw) -> list[str]:
    operation = draw(st.sampled_from(sorted(OPERATIONS)))
    argv = ["analyze", operation]
    for flag, values in OPERATIONS[operation].items():
        if values is None:
            if not draw(st.booleans()):
                continue
            values = FLOAT_TEXT
        # "--flag=value", so a value starting with "-" is not read as a flag.
        argv.append(f"{flag}={draw(values)}")
    return argv


class TestAnalyzeContract:
    @settings(max_examples=300, deadline=None)
    @given(argv=analyze_argv())
    def test_one_json_line_or_one_error_line(self, argv):
        code, out, err = run_main(argv)
        assert code in (0, 2), (code, err)
        assert "Warning" not in err and "Traceback" not in err
        if code == 0:
            assert err == ""
            lines = out.splitlines()
            assert len(lines) == 1 and out.endswith("\n")
            strict_json(lines[0])
        else:
            assert out == ""
            lines = err.splitlines()
            if lines[0].startswith("usage:"):
                assert ": error: " in lines[-1]
            else:
                assert len(lines) == 1 and lines[0].startswith("error: ")
