"""Mutated documents and argument lists cannot fool the input layer.
``parse_config`` returns a config or raises a ``ConfigError`` whose path
names a location in the document, and ``cli.main`` ends with exit code 0, 1
or 2, one error line and no file written on a nonzero one; no warning
escapes on the way (warnings are errors here).

The mutants start from the bundled documents and from the benchmark's
generated documents (``perfbench/generate.py``, imported as it is and only
read).  Each mutant carries one or two mutations: a key or list entry
deleted, a list entry duplicated, or a value set to one of :data:`HOSTILE`.
``derandomize=True`` makes hypothesis draw the same mutants and argument
lists on every run.
The first two ``@example`` documents are overflows found by such a fuzz: a
theta whose ``theta sigma theta`` overflows, and an observable whose
Hermiticity check overflowed before it could say "not Hermitian".  The other
two are finite Hermitian observables whose spectrum overflows: an
``eigenvalue_index`` readout, and a coupling at strength 0, which kicks nothing.
"""

import contextlib
import copy
import io
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pointersim import scenarios
from pointersim.cli import main
from pointersim.errors import ConfigError
from pointersim.scenarios import ScenarioConfig, bundled_scenario_names, parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCENARIOS = Path(scenarios.__file__).resolve().parent / "scenarios"

BIG = 1e308
HOSTILE = (None, True, False, 0, -1, 3, 0.5, -BIG, BIG, 1e-320, 10**400, "", "pauli_q",
           "proj0", [], [[]], [[[]]], {}, [0.0, 0.0], [[BIG, BIG], [BIG, BIG]],
           [[[BIG, BIG], [BIG, -BIG]], [[BIG, BIG], [BIG, BIG]]])


def _generated_documents() -> list[dict]:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import generate
    finally:
        sys.path.remove(str(PERFBENCH))
    names = generate.RUN_3D_TEMPLATES + generate.SWEEP_2D_TEMPLATES
    return [generate.document(template, 1, 0)
            for template in generate.load_templates(SCENARIOS, names).values()]


CORPUS = ([json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
           for name in bundled_scenario_names()] + _generated_documents())


def locations(node, path=()) -> list[tuple]:
    """The path (keys and indices) of every value below ``node``."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    return [loc for key, child in children
            for loc in [path + (key,)] + locations(child, path + (key,))]


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def mutants(draw) -> dict:
    doc = copy.deepcopy(draw(st.sampled_from(CORPUS)))
    for _ in range(draw(st.integers(1, 2))):
        *parent_path, key = draw(st.sampled_from(locations(doc)))
        parent = at(doc, parent_path)
        ops = ("set", "delete", "duplicate") if isinstance(parent, list) else ("set", "delete")
        op = draw(st.sampled_from(ops))
        if op == "set":
            parent[key] = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
        elif op == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
        if not locations(doc):
            break
    return doc


def names_a_location(doc: dict, path: str) -> bool:
    """Whether ``path`` (``a.b[2].c``) is the document itself or a value, or
    a key of an object, in ``doc``."""
    if path == "<document>":
        return True
    steps = re.findall(r"\[(\d+)\]|([^.\[\]]+)", path)
    node = doc
    for k, (index, key) in enumerate(steps):
        if index and isinstance(node, list) and int(index) < len(node):
            node = node[int(index)]
        elif key and isinstance(node, dict) and (key in node or k == len(steps) - 1):
            node = node.get(key)
        else:
            return False
    return bool(steps)


THETA_QP = CORPUS[bundled_scenario_names().index("theta_qp_gaussian")]
JOZSA = CORPUS[bundled_scenario_names().index("jozsa_baseline")]
BIG_PAIRS = [[[BIG, 0], [BIG, 0]], [[BIG, 0], [BIG, 0]]]


def four_level_big_readout() -> dict:
    """``theta_qp_gaussian`` on a 4-level system, postselected on an
    eigenvector of a readout that has every entry 1e308."""
    doc = copy.deepcopy(THETA_QP)
    doc["system"] = {"dimension": 4, "pre_state": [[1, 0]] * 4,
                     "post_state": {"eigenvalue_index": 0}}
    doc["couplings"][0]["observable"] = "proj0"
    doc["readout"]["observable"] = [[[BIG, 0]] * 4] * 4
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=mutants())
@example(doc=mutated(THETA_QP, ("pointer", "theta"), [[BIG, BIG], [BIG, BIG]]))
@example(doc=mutated(THETA_QP, ("couplings", 0, "observable"), HOSTILE[-1]))
@example(doc=four_level_big_readout())
@example(doc=mutated(JOZSA, ("couplings", 0),
                     {"observable": BIG_PAIRS, "axis": 1, "quadrature": "q", "strength": 0}))
def test_a_mutated_document_parses_or_fails_at_a_location(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = parse_config(doc)
        except ConfigError as exc:
            assert names_a_location(doc, exc.path), str(exc)
        else:
            assert isinstance(cfg, ScenarioConfig)


def test_location_rule():
    doc = {"pointer": {"sigma": [[1.0]]}, "couplings": [{"axis": 1}]}
    for path in ("<document>", "pointer.grid", "pointer.sigma[0][0]", "couplings[0].axis"):
        assert names_a_location(doc, path), path
    for path in ("", "grid.extent", "pointer.sigma[1]", "couplings.axis", "couplings[0][0]"):
        assert not names_a_location(doc, path), path


# ---------------------------------------------------------------------------
# Argument lists

# Half the numbers drawn are ordinary, some negative in exponent notation, and
# half hostile; "-inf" last, as only a flag=value token can carry it.
ORDINARY = ("0.25", "1", "2.5e-1", "5E-1", ".75", "-0.125", "-.5", "-1e-3", "-2E+0")
HOSTILE_NUMBERS = ("0", "1e300", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf")
NUMBERS = st.sampled_from(ORDINARY) | st.sampled_from(HOSTILE_NUMBERS)
MULTIPLIERS = st.sampled_from(ORDINARY) | st.sampled_from(HOSTILE_NUMBERS[:-1])
# Command -> (its positional document's template or None, required options,
# optional options).  Every option takes one of NUMBERS, but --l an integer and
# --multipliers a list.
COMMANDS = {
    "entangle": (None, ("--alpha", "--beta", "--gamma"), ("--strength",)),
    "appendix-a": (None, ("--sigma1", "--sigma2", "--c12"), ()),
    "lg-check": (None, ("--l",), ("--sigma",)),
    "run": ("two_mode_entangle", (), ()),
    "sweep": ("jozsa_baseline", (), ("--multipliers",)),
}
TWO_MODE = CORPUS[bundled_scenario_names().index("two_mode_entangle")]
# --out choices under a fresh directory {base}, which holds the file "taken";
# None leaves --out out, so the default ./out lands in {base}, the working
# directory of the call.
OUTS = ("{base}/out", "{base}/a/b c/\u00fc", "{base}", "{base}/taken", "{base}/taken/sub", "",
        None)


def option_tokens(flag: str, value: str, joined: bool) -> list[str]:
    """``flag value``, or ``flag=value`` when ``joined`` or when the value
    starts with "-" but is not a number to the parser ("-" then a digit or
    ".digit"), as ``-inf`` is not."""
    if joined or (value.startswith("-") and not re.match(r"-\.?\d", value)):
        return [f"{flag}={value}"]
    return [flag, value]


@st.composite
def cli_calls(draw) -> tuple[list[str], dict | None, bool]:
    """``(argv, document, complete)``: ``argv`` names the document, when
    there is one, as ``{base}/doc.json``, and ``complete`` says that it has
    every required argument.  Options may be left out or repeated."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    template, required, optional = COMMANDS[command]
    argv, doc, complete = [command], None, True
    if template == "two_mode_entangle":
        doc = copy.deepcopy(TWO_MODE)
        for key in ("alpha", "beta", "gamma"):
            doc["pointer"][key] = float(draw(NUMBERS))
        if draw(st.booleans()):
            del doc["pointer"]["grid"]
    elif template:
        doc = copy.deepcopy(JOZSA)
    if doc is not None:
        if draw(st.integers(0, 9)):
            argv.append("{base}/doc.json")
        else:
            complete = False
    groups = []
    for flag in draw(st.permutations(required + optional)):
        copies = {0: 0, 1: 2}.get(draw(st.integers(0, 7)), 1)
        complete = complete and (copies > 0 or flag not in required)
        for _ in range(copies):
            if flag == "--multipliers":
                groups.append([flag] + draw(st.lists(MULTIPLIERS, min_size=1, max_size=4)))
            else:
                value = draw(st.sampled_from(("0", "1", "-2", "3")) if flag == "--l" else NUMBERS)
                groups.append(option_tokens(flag, value, draw(st.booleans())))
    for _ in range(draw(st.integers(0, 2))):
        out = draw(st.sampled_from(OUTS))
        if out is not None:
            groups.insert(draw(st.integers(0, len(groups))), ["--out", out])
    return argv + [token for group in groups for token in group], doc, complete


def tree(root: Path) -> set[str]:
    return {str(path.relative_to(root)) for path in root.rglob("*")}


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=cli_calls())
# The overflowing check alpha*beta <= gamma**2, and a covariance entry of
# 1/(4e-320) that warned in the probe and in a document without a grid.
@example(call=(["entangle", "--alpha", "1", "--beta", "1", "--gamma", "1e300",
                "--out", "{base}/out"], None, True))
@example(call=(["entangle", "--alpha", "1e-320", "--beta", "1", "--gamma", "0",
                "--out", "{base}/out"], None, True))
@example(call=(["run", "{base}/doc.json", "--out", "{base}/out"],
               {**TWO_MODE, "pointer": {"kind": "two_mode_gaussian", "alpha": 1e-320,
                                        "beta": 1.0, "gamma": 0.0}}, True))
# Negative numbers in exponent notation, which the parser read as options.
@example(call=(["entangle", "--alpha", "1", "--beta", "1", "--gamma", "-1e-3",
                "--out", "{base}/out"], None, True))
@example(call=(["sweep", "{base}/doc.json", "--multipliers", "1", "-5e-1", "0.25",
                "--out", "{base}/out"], JOZSA, True))
def test_a_cli_call_exits_0_1_or_2_with_one_error_line_and_no_file(tmp_path, call):
    argv, doc, complete = call
    base = Path(tempfile.mkdtemp(dir=tmp_path))
    (base / "taken").write_text("")
    if doc is not None:
        (base / "doc.json").write_text(json.dumps(doc))
    before, cwd = tree(base), os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    usage = False
    try:
        os.chdir(base)
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = main([token.replace("{base}", str(base)) for token in argv])
            except SystemExit as exc:  # the parser's usage error
                code, usage = exc.code, True
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    # The parser exits only on a missing argument, and then with 2.
    assert usage == (not complete)
    assert code == 2 or not usage
    if code:
        assert tree(base) == before
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert sum("error:" in line for line in lines) == 1, err.getvalue()
        assert usage or len(lines) == 1, err.getvalue()
    else:
        assert err.getvalue() == ""
