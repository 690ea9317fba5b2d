"""Alternated A/B runs of the benchmark on two checkouts, with a verdict.

    python tools/bench_ab.py PARENT CHANGE --workload run_3d --pairs 10 --seconds 8 \
        --out BENCH_27.json

``PARENT`` and ``CHANGE`` are two checkouts of the repository, for example a
parent copy made with ``git archive HEAD | tar -x -C DIR``.  Each side runs
its own ``perfbench/run.py --trace 0`` in its own subprocess, from its own
root, so it imports its own ``src/``.  A pair is one run of each side; the
side that goes first alternates from pair to pair, so a drift of the machine
falls on both.  The script refuses to run when the two ``perfbench/`` trees
differ, since the numbers would then come from two benchmarks.

The output file holds, per workload and end-to-end metric, the values of
every pair, both sides' medians and quartiles, the number of pairs the change
won and the verdict; also each side's commit and source digest, and the
machine (CPU count, numpy version, whether numpy dispatches X86_V3/X86_V4).
:func:`verdict` is the rule: "gain" needs at least ``MIN_PAIRS`` pairs, the
change winning at least ``WIN_SHARE`` of them, and the gap between the
medians, in the metric's better direction, larger than the pooled IQR;
anything else is "no gain claimed".  The pooled IQR is the root mean square
of the two sides' interquartile ranges, as a pooled standard deviation is of
two standard deviations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.8
MIN_PAIRS = 5
GAIN, NO_GAIN = "gain", "no gain claimed"


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
    pooled_iqr = math.sqrt(((q_parent[2] - q_parent[0]) ** 2
                            + (q_change[2] - q_change[0]) ** 2) / 2.0)
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_quartiles": q_parent,
        "change_quartiles": q_change,
        "median_gap": gap,
        "pooled_iqr": pooled_iqr,
        "pairs_won": won,
        "verdict": verdict(len(parent), won, gap, pooled_iqr),
    }


def verdict(pairs: int, won: int, gap: float, pooled_iqr: float) -> str:
    """"gain" for at least ``MIN_PAIRS`` pairs, at least ``WIN_SHARE`` of them
    won, and a median gap (positive when the change is better) larger than the
    pooled IQR; "no gain claimed" otherwise."""
    if pairs >= MIN_PAIRS and won >= WIN_SHARE * pairs and gap > pooled_iqr:
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
              "rule": {"min_pairs": MIN_PAIRS, "win_share": WIN_SHARE, "gap_above": "pooled_iqr"}}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(getattr(args, side), workload, args.seed,
                                           args.seconds))
            print(f"{workload} pair {k + 1}/{args.pairs} ({order[0]} first): op_s_p50 "
                  f"parent {runs['parent'][-1]['op_s_p50']:.4f} s, "
                  f"change {runs['change'][-1]['op_s_p50']:.4f} s", flush=True)
        record["workloads"][workload] = {
            name: summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                            better[name])
            for name in runs["parent"][0]}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for workload, metrics in record["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload:9} {name:12} parent {s['parent_quartiles'][1]:.6g}  change "
                  f"{s['change_quartiles'][1]:.6g}  won {s['pairs_won']}/{args.pairs}  "
                  f"gap {s['median_gap']:.3g} vs pooled IQR {s['pooled_iqr']:.3g}: {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
