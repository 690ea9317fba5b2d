"""Mutated documents cannot fool the input layer: ``parse_config`` returns a
config or raises a ``ConfigError`` whose path names a location in the
document, and no warning escapes on the way (warnings are errors here).

The mutants start from the bundled documents and from the benchmark's
generated documents (``perfbench/generate.py``, imported as it is and only
read).  Each mutant carries one or two mutations: a key or list entry
deleted, a list entry duplicated, or a value set to one of :data:`HOSTILE`.
``derandomize=True`` makes hypothesis draw the same mutants on every run.
The first two ``@example`` documents are overflows found by such a fuzz: a
theta whose ``theta sigma theta`` overflows, and an observable whose
Hermiticity check overflowed before it could say "not Hermitian".  The other
two are finite Hermitian observables whose spectrum overflows: an
``eigenvalue_index`` readout, and a coupling at strength 0, which kicks nothing.
"""

import copy
import json
import re
import sys
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointersim import scenarios
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
