"""The verdict rule, the benchmark-tree check and the slot directories of
tools/bench_ab.py, on synthetic pairs; no benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_ab  # noqa: E402


def pairs(parent, change, better="lower"):
    return bench_ab.summarize(list(parent), list(change), better)


def test_clear_gain_is_claimed():
    s = pairs([0.190, 0.185, 0.188, 0.182, 0.187, 0.184, 0.189, 0.183, 0.186, 0.191],
              [0.157, 0.154, 0.159, 0.155, 0.158, 0.156, 0.153, 0.160, 0.157, 0.155])
    assert s["pairs_won"] == 10
    assert s["verdict"] == bench_ab.GAIN


def test_same_tree_noise_claims_nothing():
    # An A/A run: the same values in another order.
    values = [0.160, 0.171, 0.158, 0.166, 0.175, 0.163, 0.169, 0.161]
    assert pairs(values, values[::-1])["verdict"] == bench_ab.NO_GAIN


def test_seven_of_ten_pairs_is_not_enough():
    parent = [1.0] * 10
    change = [0.5] * 7 + [1.5] * 3
    s = pairs(parent, change)
    assert s["pairs_won"] == 7
    assert s["verdict"] == bench_ab.NO_GAIN


def test_eight_of_ten_pairs_is_not_enough():
    parent = [1.0] * 10
    assert pairs(parent, [0.5] * 8 + [1.5] * 2)["verdict"] == bench_ab.NO_GAIN
    assert pairs(parent, [0.5] * 9 + [1.5])["verdict"] == bench_ab.GAIN


def test_a_gap_inside_the_parents_iqr_is_not_enough():
    # The change wins every pair by a little, but the runs spread far more.
    parent = [1.00, 1.40, 1.80, 2.20, 2.60, 3.00, 3.40, 3.80, 4.20, 4.60]
    change = [p - 0.01 for p in parent]
    s = pairs(parent, change)
    assert s["pairs_won"] == 10
    assert s["median_gap"] < s["parent_iqr"]
    assert s["verdict"] == bench_ab.NO_GAIN


def test_a_gap_above_the_pooled_iqr_but_inside_the_parents_is_not_enough():
    # A tight change halves the root mean square of the two IQRs, not the
    # parent's own spread.
    parent = [1.00, 1.10, 1.20, 1.30, 1.40, 1.50, 1.60, 1.70, 1.80, 1.90]
    change = [1.05] * 10
    s = pairs(parent, change)
    change_iqr = s["change_quartiles"][2] - s["change_quartiles"][0]
    pooled_iqr = ((s["parent_iqr"] ** 2 + change_iqr ** 2) / 2) ** 0.5
    assert s["pairs_won"] == 9
    assert pooled_iqr < s["median_gap"] < s["parent_iqr"]
    assert s["verdict"] == bench_ab.NO_GAIN


def test_too_few_pairs_claim_nothing():
    assert pairs([2.0] * 9, [1.0] * 9)["verdict"] == bench_ab.NO_GAIN
    assert pairs([2.0] * 10, [1.0] * 10)["verdict"] == bench_ab.GAIN


def test_higher_is_better_metrics_win_upwards():
    slow, fast = [5.0, 5.1, 5.2, 5.0, 5.1] * 2, [6.0, 6.1, 6.2, 6.0, 6.1] * 2
    assert pairs(slow, fast, "higher")["verdict"] == bench_ab.GAIN
    assert pairs(fast, slow, "higher")["verdict"] == bench_ab.NO_GAIN
    assert pairs(slow, fast, "lower")["verdict"] == bench_ab.NO_GAIN


def test_ties_are_not_wins():
    s = pairs([1.0] * 10, [1.0] * 10, "higher")
    assert s["pairs_won"] == 0
    assert s["verdict"] == bench_ab.NO_GAIN


@pytest.mark.parametrize("edit", ["change", "add", "none"])
def test_differing_benchmark_trees_are_named(tmp_path, edit):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench" / "__pycache__").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("print(1)\n")
        (tmp_path / side / "perfbench" / "__pycache__" / "run.pyc").write_bytes(side.encode())
    if edit == "change":
        (tmp_path / "change" / "perfbench" / "run.py").write_text("print(2)\n")
    elif edit == "add":
        (tmp_path / "change" / "perfbench" / "extra.py").write_text("")
    expected = {"change": ["run.py"], "add": ["extra.py"], "none": []}[edit]
    assert bench_ab.benchmark_differences(tmp_path / "parent", tmp_path / "change") == expected


def test_main_refuses_differing_benchmark_trees(tmp_path, capsys):
    for side, text in (("parent", "a"), ("change", "b")):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(text)
    out = tmp_path / "bench.json"
    code = bench_ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--workload", "run_3d", "--out", str(out)])
    assert code == 1
    assert "run.py" in capsys.readouterr().err
    assert not out.exists()


def test_each_side_runs_from_both_equal_length_slots(tmp_path, monkeypatch):
    # A steady offset that belongs to a directory must fall on both sides:
    # each pair copies the two checkouts into two sibling slots of equal name
    # length, and the sides swap slots from pair to pair.
    checkouts = {}
    for side in ("parent", "change"):
        root = checkouts[side] = tmp_path / f"checkout-{side}"
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
        (root / "src").mkdir()
        (root / "src" / "side.txt").write_text(side)
        (root / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "op_s_p50", "better": "lower"}]}))
    used = []

    def fake_run_side(root, workload, seed, seconds):
        used.append(((root / "src" / "side.txt").read_text(), root))
        assert (root / "BENCHMARK.json").is_file() and (root / "perfbench" / "run.py").is_file()
        return {"op_s_p50": 1.0}

    monkeypatch.setattr(bench_ab, "run_side", fake_run_side)
    out = tmp_path / "bench.json"
    assert bench_ab.main([str(checkouts["parent"]), str(checkouts["change"]),
                          "--workload", "run_3d", "--pairs", "2", "--out", str(out)]) == 0
    roots = {root for _side, root in used}
    assert len(roots) == 2
    first, second = sorted(roots)
    assert first.parent == second.parent and len(first.name) == len(second.name)
    assert not roots & set(checkouts.values())
    for side in checkouts:
        assert {root for s, root in used if s == side} == roots
    slots = json.loads(out.read_text())["slots"]["run_3d"]
    assert [pair["parent"] for pair in slots] == [first.name, second.name]
    assert [pair["change"] for pair in slots] == [second.name, first.name]
