"""Alternated A/B runs of the benchmark on two checkouts, with a verdict.

    python tools/bench_ab.py PARENT CHANGE --workload run_3d --pairs 10 --seconds 8 \
        --out BENCH_27.json

``PARENT`` and ``CHANGE`` are two checkouts of the repository, for example a
parent copy made with ``git archive HEAD | tar -x -C DIR``.  A pair is one run
of each side.  Before each pair, each side's ``src/``, ``perfbench/`` and
``BENCHMARK.json`` are copied afresh into one of two sibling slot
directories with names of equal length under one temporary directory: the
parent into slot ``k % 2`` of pair ``k``, the change into the other.  Each
side runs its slot's ``perfbench/run.py --trace 0`` in its own subprocess,
so it imports its own ``src/``, and a steady offset that belongs to a
location falls on both sides.  The side that goes first alternates from pair
to pair, so a drift of the machine falls on both too.  The script refuses to
run when the two ``perfbench/`` trees differ, since the numbers would then
come from two benchmarks.

The output file holds, per workload and end-to-end metric, the values of
every pair, both sides' medians and quartiles, the number of pairs the change
won and the verdict; each pair's slot assignment; each side's commit and
source digest, read from its checkout; and the machine (CPU count, numpy
version, whether numpy dispatches X86_V3/X86_V4).
:func:`verdict` is the rule: "gain" needs at least ``MIN_PAIRS`` pairs, the
change winning at least ``WIN_SHARE`` of them (a tie wins nothing), and the
gap between the medians, in the metric's better direction, larger than the
parent's interquartile range; anything else is "no gain claimed".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

WIN_SHARE = Fraction(9, 10)
MIN_PAIRS = 10
GAIN, NO_GAIN = "gain", "no gain claimed"
SLOTS = ("slot0", "slot1")


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Per-pair values, both sides' quartiles, the pairs the change won and
    the :func:`verdict`.  ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    q_parent, q_change = quartiles(parent), quartiles(change)
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap = sign * (q_parent[1] - q_change[1])
    parent_iqr = q_parent[2] - q_parent[0]
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_quartiles": q_parent,
        "change_quartiles": q_change,
        "median_gap": gap,
        "parent_iqr": parent_iqr,
        "pairs_won": won,
        "verdict": verdict(len(parent), won, gap, parent_iqr),
    }


def verdict(pairs: int, won: int, gap: float, parent_iqr: float) -> str:
    """"gain" for at least ``MIN_PAIRS`` pairs, at least ``WIN_SHARE`` of them
    won, and a median gap (positive when the change is better) larger than the
    parent's IQR; "no gain claimed" otherwise."""
    if pairs >= MIN_PAIRS and won >= WIN_SHARE * pairs and gap > parent_iqr:
        return GAIN
    return NO_GAIN


def tree_files(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every file under ``root``, caches excluded."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def benchmark_differences(parent: Path, change: Path) -> list[str]:
    """The files in which the two ``perfbench/`` trees differ (empty when the
    trees are the same)."""
    a, b = tree_files(parent / "perfbench"), tree_files(change / "perfbench")
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def side_facts(root: Path) -> dict:
    """Commit (None outside a git checkout), uncommitted changes, and the
    SHA-256 of the ``src/`` files, which names what ran either way."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None
    top = git("rev-parse", "--show-toplevel")
    inside = top is not None and Path(top).resolve() == root.resolve()
    digest = hashlib.sha256()
    for name, data in tree_files(root / "src").items():
        digest.update(name.encode() + b"\0" + data)
    return {
        "commit": git("rev-parse", "HEAD") if inside else None,
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")) if inside else None,
        "src_sha256": digest.hexdigest(),
    }


def machine() -> dict:
    import numpy
    from numpy._core._multiarray_umath import __cpu_features__ as features

    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "X86_V3": bool(features.get("X86_V3")), "X86_V4": bool(features.get("X86_V4"))}


def stage(checkout: Path, slot: Path) -> Path:
    """Replace ``slot`` with a fresh copy of ``checkout``'s ``src/``,
    ``perfbench/`` and ``BENCHMARK.json``; returns ``slot``."""
    shutil.rmtree(slot, ignore_errors=True)
    for tree in ("src", "perfbench"):
        shutil.copytree(checkout / tree, slot / tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(checkout / "BENCHMARK.json", slot / "BENCHMARK.json")
    return slot


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metric values of one ``perfbench/run.py`` run from ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {root}: run.py exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {root}: {workload} failed its checks:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    differ = benchmark_differences(args.parent, args.change)
    if differ:
        print(f"error: the perfbench/ trees differ in {', '.join(differ)}", file=sys.stderr)
        return 1
    better = {m["name"]: m["better"]
              for m in json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    record = {"parent": side_facts(args.parent), "change": side_facts(args.change),
              "machine": machine(), "pairs": args.pairs, "seconds": args.seconds,
              "seed": args.seed, "workloads": {},
              "rule": {"min_pairs": MIN_PAIRS, "win_share": float(WIN_SHARE),
                       "ties_win": False, "gap_above": "parent_iqr"},
              "slots": {}}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        slots = [Path(tmp) / name for name in SLOTS]
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            record["slots"][workload] = []
            for k in range(args.pairs):
                roots = {"parent": stage(args.parent, slots[k % 2]),
                         "change": stage(args.change, slots[1 - k % 2])}
                record["slots"][workload].append({side: r.name for side, r in roots.items()})
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_side(roots[side], workload, args.seed, args.seconds))
                print(f"{workload} pair {k + 1}/{args.pairs} ({order[0]} first, parent in "
                      f"{roots['parent'].name}): op_s_p50 "
                      f"parent {runs['parent'][-1]['op_s_p50']:.4f} s, "
                      f"change {runs['change'][-1]['op_s_p50']:.4f} s", flush=True)
            record["workloads"][workload] = {
                name: summarize([r[name] for r in runs["parent"]],
                                [r[name] for r in runs["change"]], better[name])
                for name in runs["parent"][0]}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for workload, metrics in record["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload:9} {name:12} parent {s['parent_quartiles'][1]:.6g}  change "
                  f"{s['change_quartiles'][1]:.6g}  won {s['pairs_won']}/{args.pairs}  "
                  f"gap {s['median_gap']:.3g} vs parent IQR {s['parent_iqr']:.3g}: {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
