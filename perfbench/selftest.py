#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that

* the generator gives the same bytes for the same seed and different bytes
  for a different seed, for every template;
* the runner's percentile estimator agrees with known values;
* BENCHMARK.json names exactly the metrics the runner reports;
* two traced runs of each workload pass their correctness checks and
  repeat every count metric exactly;
* without the pointersim sources the runner exits nonzero and prints no
  result.

Exits nonzero on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# Per-layer metrics that count work; they must repeat exactly.
COUNT_SUFFIXES = (".calls", ".points", ".matrices", ".cells", ".computed_bytes")
TRACE_SECONDS = "2"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def test_generator() -> None:
    names = generate.RUN_3D_TEMPLATES + generate.SWEEP_2D_TEMPLATES
    templates = generate.load_templates(ROOT / "src" / "pointersim" / "scenarios", names)
    for name, template in templates.items():
        first = generate.document_text(template, 7, 0)
        check(first == generate.document_text(template, 7, 0),
              f"{name}: same seed gives the same bytes")
        check(first != generate.document_text(template, 8, 0),
              f"{name}: another seed gives other bytes")
        check(first != generate.document_text(template, 7, 1),
              f"{name}: another operation index gives other bytes")


def test_quantile() -> None:
    check(run.quantile([0.5], 0.9) == 0.5, "quantile of one value is that value")
    check(abs(run.quantile([3.0, 1.0, 2.0], 0.5) - 2.0) < 1e-12,
          "quantile 0.5 of symmetric values is their centre")
    values = [float(v) for v in range(1, 1001)]
    check(abs(run.quantile(values, 0.9) - 900.5) < 0.5,
          "quantile 0.9 of 1..1000 is close to 900.5")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "BENCHMARK.json end_to_end matches the runner")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units(),
          "BENCHMARK.json per_layer matches the tracer")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match the runner")


def _result(cwd: Path, workload: str, seed: int, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", TRACE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc.returncode, proc.stdout


def test_traced_counts_repeat(workload: str) -> None:
    results = []
    for seed in (3, 4):
        code, out = _result(ROOT, workload, seed, 1)
        check(code == 0, f"{workload}: traced run with seed {seed} exits 0")
        result = json.loads(out.strip().splitlines()[-1])
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: traced run with seed {seed} passes its checks")
        results.append({k: v["value"] for k, v in result["metrics"].items()
                        if k.endswith(COUNT_SUFFIXES)})
    differing = sorted(k for k in results[0] if results[0][k] != results[1][k])
    check(not differing, f"{workload}: count metrics repeat exactly across two traced "
                         f"runs (differing: {differing})")


def test_fails_without_sources() -> None:
    bare = run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = _result(bare, "run_3d", 1, 0)
        check(code != 0 and '"correct"' not in out,
              "without pointersim sources the runner fails and prints no result")
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)


def main() -> int:
    test_generator()
    test_quantile()
    test_benchmark_json()
    test_fails_without_sources()
    for workload in run.WORKLOADS:
        test_traced_counts_repeat(workload)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
