"""Golden outputs: every bundled scenario reproduces its committed run JSON
and pointer moments, every 256^2 scenario its committed sweep JSON, and each
command in ``COMMANDS`` its committed output file.

``tests/golden/<name>.json`` is the ``pointersim run`` JSON of each bundled
scenario; ``tests/golden/moments_<name>.json`` holds all five ``MomentSet``
blocks of its initial pointer and of its postselected final pointer, which
the run JSON (means only) does not pin; ``tests/golden/sweep_<name>.json``
is the ``pointersim sweep`` JSON of each 256^2 scenario at
``SWEEP_MULTIPLIERS``; the file named after a ``COMMANDS`` key is the JSON
that command writes.  A refactor must leave every number within 1e-12
absolute and every other field (keys, flags, names, list lengths) exactly as
committed.
Criterion 10 compares two runs of the same code, so it cannot catch a change
that moves the results; this can.
"""

import functools
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from pointersim.cli import main
from pointersim.pointer import MomentSet, moments
from pointersim.scenarios import (
    build_pointer,
    bundled_scenario_names,
    json_text,
    load_bundled,
    report_json_text,
    run_scenario,
    run_sweep,
    simulate_pipeline,
    sweep_json_text,
)

GOLDEN = Path(__file__).parent / "golden"
NUMBER_TOL = 1e-12
SWEEP_MULTIPLIERS = (2.0, 1.5, 1.0, 0.75, 0.5)
SWEPT = [name for name in bundled_scenario_names()
         if load_bundled(name).grid.points_per_axis == (256, 256)]
COMMANDS = {
    "lg_check_l0": ["lg-check", "--l", "0"],
    "lg_check_l1": ["lg-check", "--l", "1"],
    "lg_check_l2": ["lg-check", "--l", "2"],
    "entangle": ["entangle", "--alpha", "0.25", "--beta", "0.25", "--gamma", "0.125"],
    "appendix_a": ["appendix-a", "--sigma1", "1", "--sigma2", "1.3", "--c12", "0.2"],
}
GOLDEN_NAMES = (bundled_scenario_names()
                + [f"moments_{name}" for name in bundled_scenario_names()]
                + [f"sweep_{name}" for name in SWEPT] + list(COMMANDS))
MOMENT_BLOCKS = ("mean_q", "mean_p", "cov_qq", "cov_qp", "cov_pp")


@functools.cache
def bundled_run(name: str):
    """``run_scenario`` of bundled scenario ``name``, once per session: its
    golden file and the byte contract (``test_output_digest``) read the same
    report."""
    return run_scenario(load_bundled(name))


@functools.cache
def bundled_sweep(name: str):
    """``run_sweep`` of bundled scenario ``name`` at ``SWEEP_MULTIPLIERS``,
    once per session, as :func:`bundled_run`."""
    return run_sweep(load_bundled(name), SWEEP_MULTIPLIERS)


def moments_json_text(name: str) -> str:
    """The five moment blocks of scenario ``name``'s initial pointer and of
    its postselected final pointer, as JSON."""
    cfg = load_bundled(name)
    _grid, phi = build_pointer(cfg)
    final, _prob = simulate_pipeline(cfg)

    def blocks(m: MomentSet) -> dict:
        return {key: getattr(m, key).tolist() for key in MOMENT_BLOCKS}

    return json_text({"initial": blocks(moments(phi)), "final": blocks(moments(final))})


def deviations(actual, expected, path="$"):
    """``(|actual - expected|, path)`` for every number of ``expected``;
    ``(inf, path)`` where the two differ in anything else (a key, a flag, a
    list length) or the difference is NaN."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            yield math.inf, path
            return
        for key in expected:
            yield from deviations(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            yield math.inf, path
            return
        for k, (a, e) in enumerate(zip(actual, expected)):
            yield from deviations(a, e, f"{path}[{k}]")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if isinstance(actual, (int, float)) and not isinstance(actual, bool):
            gap = abs(actual - expected)
            yield (gap if gap <= math.inf else math.inf), path
        else:
            yield math.inf, path
    elif actual != expected:
        yield math.inf, path


def worst_deviation(actual, expected) -> tuple[float, str]:
    """The largest of :func:`deviations`, the first such path on a tie."""
    return max(deviations(actual, expected), key=lambda row: row[0], default=(0.0, "$"))


def assert_matches(actual, expected):
    margin, path = worst_deviation(actual, expected)
    assert margin <= NUMBER_TOL, f"{path}: off by {margin!r}"


def test_every_bundled_scenario_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(GOLDEN_NAMES)


def golden_text(golden: str, tmp_path: Path) -> str:
    """The JSON text this checkout writes for golden file ``golden``; a
    command writes its file into the empty directory ``tmp_path``."""
    if golden in COMMANDS:
        assert main(COMMANDS[golden] + ["--out", str(tmp_path)]) == 0
        (written,) = tmp_path.glob("*.json")
        return written.read_text(encoding="utf-8")
    if golden.startswith("sweep_"):
        return sweep_json_text(*bundled_sweep(golden.removeprefix("sweep_")))
    if golden.startswith("moments_"):
        return moments_json_text(golden.removeprefix("moments_"))
    return report_json_text(bundled_run(golden))


def load_golden(golden: str):
    return json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("golden", GOLDEN_NAMES)
def test_run_matches_golden(golden, tmp_path):
    assert_matches(json.loads(golden_text(golden, tmp_path)), load_golden(golden))


def test_comparison_catches_a_moved_number():
    expected = {"axes": [{"q": {"shift": 0.1}}], "flag": True}
    assert_matches({"axes": [{"q": {"shift": 0.1 + 1e-13}}], "flag": True}, expected)
    with pytest.raises(AssertionError):
        assert_matches({"axes": [{"q": {"shift": 0.1 + 1e-11}}], "flag": True}, expected)
    with pytest.raises(AssertionError):
        assert_matches({"axes": [{"q": {"shift": 0.1}}], "flag": False}, expected)


def test_comparison_treats_a_nan_as_a_mismatch():
    expected = {"slopes": [0.1, 0.2, 0.3]}
    for actual in ({"slopes": [0.1, math.nan, 0.3]}, {"slopes": [math.nan, 0.2, 0.3]}):
        margin, path = worst_deviation(actual, expected)
        assert margin == math.inf and path == f"$.slopes[{actual['slopes'].index(math.nan)}]"
        with pytest.raises(AssertionError):
            assert_matches(actual, expected)


def test_margin_tool_reports_a_nan_as_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "golden_margin", Path(__file__).parent.parent / "tools" / "golden_margin.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool.test_golden, "GOLDEN_NAMES", ["one", "two"])
    monkeypatch.setattr(tool.test_golden, "load_golden", lambda name: {"a": [0.1, 0.2]})
    monkeypatch.setattr(tool.test_golden, "golden_text", lambda name, out: {
        "one": '{"a": [0.1, 0.2]}', "two": '{"a": [0.1, NaN]}'}[name])
    assert tool.main() == 1
    assert capsys.readouterr().out.split() == ["mismatch", "two", "$.a[1]",
                                               "0.000e+00", "one", "$.a[0]"]
