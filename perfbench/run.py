#!/usr/bin/env python3
"""pointersim benchmark: one process, one thread, one closed-loop caller.

    python3 perfbench/run.py --workload run_3d --seed 1 --seconds 25 --trace 0

Run from the repository root; pointersim is imported from ``src/``.  The
next operation starts only when the previous one has returned.  The run
measures whole rounds (one operation per template) until ``--seconds`` have
passed, so every run holds the same mix of templates.  ``setup_s`` is the
median of several cold set-ups, each in its own interpreter; all but the
first run between slices of the timed window (outside it), so the set-up
samples meet the machine in the same states as the operations.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the first
half of the window untraced and the second half traced, and reports the
per-layer metrics of the traced half plus the tracing overhead (traced minus
untraced median operation time).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for every metric.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("run_3d", "sweep_2d", "validate")
# Cold set-ups in fresh interpreters per untraced run, on top of the
# runner's own; setup_s is the median of all of them.  Each pays the import
# and the first-call costs.  validate's warm-up is a whole suite run, so it
# sets up once.
FRESH_SETUPS = {"run_3d": 4, "sweep_2d": 4, "validate": 0}
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_fraction": "ratio",
}
_MAX_REPORTED_ERRORS = 5


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_facts() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/index{index}/size").strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Phase:
    """Timed operations of one closed-loop window."""

    def __init__(self):
        self.times: list[float] = []
        self.errors: dict[int, list[str]] = {}
        self.wall = 0.0

    @property
    def ops(self) -> int:
        return len(self.times)

    def extend(self, other: "Phase") -> None:
        self.times += other.times
        self.errors.update(other.errors)
        self.wall += other.wall

    def p50(self) -> float:
        return quantile(self.times, 0.5)

    def p90(self) -> float:
        return quantile(self.times, 0.9)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)p, (n+1)(1-p)) distribution.  It estimates the same quantile
    as a single order statistic with less run-to-run variance, which matters
    for ``op_s_p90``: on ``sweep_2d`` the tenth of operations beyond it are
    those of one template, a dozen per run.
    """
    x = sorted(values)
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def measure(workload, seconds: float, first: int) -> Phase:
    """Run whole rounds of operations, starting at index ``first``, until
    ``seconds`` have passed."""
    phase = Phase()
    start = perf_counter()
    k = first
    while True:
        for _ in range(workload.round_size):
            data = workload.prepare(k)
            t0 = perf_counter()
            try:
                result = workload.run(data)
            except Exception:  # counted as a failed operation; the loop goes on
                phase.times.append(perf_counter() - t0)
                phase.errors[k] = [traceback.format_exc(limit=3)]
            else:
                phase.times.append(perf_counter() - t0)
                errors = workload.check(data, result)
                if errors:
                    phase.errors[k] = errors
            k += 1
        if perf_counter() - start >= seconds:
            break
    phase.wall = perf_counter() - start
    return phase


def cold_setup(name: str, seed: int, work_dir: Path):
    """Import pointersim and the benchmark's modules, then set the workload up
    (see ``setup`` in workloads.py; it ends with one untimed warm-up
    operation).  Returns the seconds taken and the workload."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("pointersim")
    if Path(module.__file__).resolve().parent != (SRC / "pointersim").resolve():
        raise SystemExit(f"error: imported pointersim from {module.__file__}, not {SRC}")
    import workloads

    workload = workloads.make(name, seed, work_dir)
    workload.setup()
    return perf_counter() - t0, workload


def fresh_setup_s(name: str, seed: int, work_dir: Path) -> float:
    """Seconds of one cold set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only", str(work_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up once in the given work directory, print the seconds.
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pointersim" / "__init__.py").is_file():
        raise SystemExit(f"error: no pointersim sources under {SRC}; run from the "
                         "repository root")
    if args.setup_only:
        seconds, workload = cold_setup(args.workload, args.seed, args.setup_only)
        workload.close()
        print(seconds)
        return 0

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    seconds, workload = cold_setup(args.workload, args.seed, WORK_DIR)
    setups = [seconds]
    import tracing

    try:
        run_errors: list[str] = []
        traced = None
        if args.trace:
            untraced = measure(workload, args.seconds / 2, 0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_errors += tracing.check_reference_counts(tracer)
                traced = measure(workload, args.seconds / 2, untraced.ops)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        else:
            fresh = FRESH_SETUPS[args.workload]
            slices = max(fresh, 1)
            phase = Phase()
            for i in range(slices):
                if i < fresh:
                    setups.append(fresh_setup_s(args.workload, args.seed,
                                                WORK_DIR / f"setup-{i}"))
                phase.extend(measure(workload, args.seconds / slices, phase.ops))
            phases = [phase]

        errors: dict[int, list[str]] = {}
        for phase in phases:
            errors.update(phase.errors)
        for k, errs in workload.final_check().items():
            errors.setdefault(k, []).extend(errs)
        attempted = sum(p.ops for p in phases)
    finally:
        workload.close()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_facts(),
        "joint_state_bytes": workload.joint_state_bytes(),
        "samples": [p.ops for p in phases],
        "wall_s": [p.wall for p in phases],
        "setup_reps_s": setups,
    }
    if traced is not None:
        info["bindings"] = dict(tracer.bindings)
        metrics = tracer.per_op(traced.ops)
        metrics["trace.op_s_p50"] = traced.p50()
        metrics["trace.overhead_s"] = traced.p50() - untraced.p50()
        units = tracing.metric_units()
    else:
        phase = phases[0]
        metrics = {
            "ops_per_s": phase.ops / phase.wall,
            "op_s_p50": phase.p50(),
            "op_s_p90": phase.p90(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_fraction": (attempted - len(errors)) / attempted,
        }
        units = END_TO_END_UNITS
    print("info " + json.dumps(info, sort_keys=True))
    for k, errs in sorted(errors.items())[:_MAX_REPORTED_ERRORS]:
        print(f"operation {k} failed: {errs}", file=sys.stderr)
    for err in run_errors:
        print(f"run check failed: {err}", file=sys.stderr)
    result = {
        "correct": not errors and not run_errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
