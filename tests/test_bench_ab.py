"""The verdict rule and the benchmark-tree check of tools/bench_ab.py, on
synthetic pairs; no benchmark runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_ab  # noqa: E402


def pairs(parent, change, better="lower"):
    return bench_ab.summarize(list(parent), list(change), better)


def test_clear_gain_is_claimed():
    s = pairs([0.190, 0.185, 0.188, 0.182, 0.187, 0.184], [0.157, 0.154, 0.159, 0.155, 0.158, 0.156])
    assert s["pairs_won"] == 6
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


def test_a_gap_inside_the_pooled_iqr_is_not_enough():
    # The change wins every pair by a little, but the runs spread far more.
    parent = [1.00, 1.40, 1.80, 2.20, 2.60, 3.00]
    change = [p - 0.01 for p in parent]
    s = pairs(parent, change)
    assert s["pairs_won"] == 6
    assert s["median_gap"] < s["pooled_iqr"]
    assert s["verdict"] == bench_ab.NO_GAIN


def test_too_few_pairs_claim_nothing():
    assert pairs([2.0] * 4, [1.0] * 4)["verdict"] == bench_ab.NO_GAIN
    assert pairs([2.0] * 5, [1.0] * 5)["verdict"] == bench_ab.GAIN


def test_higher_is_better_metrics_win_upwards():
    slow, fast = [5.0, 5.1, 5.2, 5.0, 5.1], [6.0, 6.1, 6.2, 6.0, 6.1]
    assert pairs(slow, fast, "higher")["verdict"] == bench_ab.GAIN
    assert pairs(fast, slow, "higher")["verdict"] == bench_ab.NO_GAIN
    assert pairs(slow, fast, "lower")["verdict"] == bench_ab.NO_GAIN


def test_ties_are_not_wins():
    s = pairs([1.0] * 6, [1.0] * 6, "higher")
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
