"""Golden outputs: every bundled scenario reproduces its committed run JSON.

``tests/golden/<name>.json`` is the ``pointersim run`` JSON of each bundled
scenario.  A refactor must leave every number within 1e-12 absolute and every
other field (keys, flags, names, list lengths) exactly as committed.
Criterion 10 compares two runs of the same code, so it cannot catch a change
that moves the results; this can.
"""

import json
from pathlib import Path

import pytest

from pointersim.scenarios import bundled_scenario_names, load_bundled, report_json_text, run_scenario

GOLDEN = Path(__file__).parent / "golden"
NUMBER_TOL = 1e-12


def assert_matches(actual, expected, path="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{k}]")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), path
        assert abs(actual - expected) <= NUMBER_TOL, f"{path}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, path


def test_every_bundled_scenario_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == bundled_scenario_names()


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_run_matches_golden(name):
    actual = json.loads(report_json_text(run_scenario(load_bundled(name))))
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert_matches(actual, expected)


def test_comparison_catches_a_moved_number():
    expected = {"axes": [{"q": {"shift": 0.1}}], "flag": True}
    assert_matches({"axes": [{"q": {"shift": 0.1 + 1e-13}}], "flag": True}, expected)
    with pytest.raises(AssertionError):
        assert_matches({"axes": [{"q": {"shift": 0.1 + 1e-11}}], "flag": True}, expected)
    with pytest.raises(AssertionError):
        assert_matches({"axes": [{"q": {"shift": 0.1}}], "flag": False}, expected)
