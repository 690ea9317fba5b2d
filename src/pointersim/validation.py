"""The full verification suite: one function per acceptance criterion.

Each criterion returns a :class:`CriterionResult`.  A suite pass runs and
times every bundled scenario once (the corpus) and passes it to criteria
1-9, of which 3, 4, 5 and 9 read its reports.  ``run_all`` executes all ten:
the determinism criterion serializes the pass and byte-compares it with one
full rerun that builds its own corpus.  The rerun runs in a fresh interpreter,
started before and running alongside the suite's own pass: on one CPU the
two take turns and the child adds an interpreter start, and its memory is
not in this process's RSS.  It catches bytes that differ between two
processes with their own hash seeds and caches; repeats within one
long-lived process are the committed output digests' concern.  ``passed``
and every serialized value are deterministic; criteria 1, 2, 3 and 7 also
carry a wall-clock budget, timed by the suite pass (criterion 3's with its
corpus run) and never serialized, which fails ``pointersim validate`` when
blown.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entanglement import TwoModeGaussianParams, probe_c_matrices
from .errors import PointersimError
from .fouriercorr import appendix_a_check
from .pointer import Grid, displace_momentum, gaussian_pointer, lg_mode, means, moments
from .scenarios import (
    _g17,
    bundled_scenario_names,
    build_coupling_specs,
    build_pointer,
    csv_text,
    first_order_terms,
    json_text,
    load_bundled,
    report_json_text,
    reports_csv_text,
    resolve_system,
    run_scenario,
    run_sweep,
)
from .shifts import lg_check
from .dynamics import first_order_pointer


@dataclass
class CriterionResult:
    """One criterion's outcome.  ``passed`` judges the numbers only; the
    wall-clock ``budget_s`` (None: no budget) and ``elapsed_s`` are kept out
    of the serialized summaries, so that machine load cannot change their
    bytes, and ``ok`` requires both."""

    number: int
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str
    budget_s: float | None = None
    elapsed_s: float = 0.0

    @property
    def within_budget(self) -> bool:
        return self.budget_s is None or self.elapsed_s < self.budget_s

    @property
    def ok(self) -> bool:
        return self.passed and self.within_budget

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        budget = ""
        if self.budget_s is not None:
            over = "" if self.within_budget else ", OVER BUDGET"
            budget = f"; {self.elapsed_s:.2f} s of {self.budget_s:g} s budget{over}"
        return (f"[{status}] criterion {self.number:2d} {self.name}: "
                f"{self.value:.3e} vs {self.threshold:.3e} ({self.detail}{budget})")


def criterion_1_lg_correlation_law(corpus) -> CriterionResult:
    """corr(x,p_y) = +l/2, corr(y,p_x) = -l/2, corr(x,y) = 0 for l in {0,1,2}."""
    worst = 0.0
    for l in (0, 1, 2):
        worst = max(worst, lg_check(l)[1])
    return CriterionResult(1, "lg_correlation_law", worst <= 1e-3, worst, 1e-3,
                           "max law residual over l in {0,1,2}, 256^2 grid", budget_s=5.0)


def criterion_2_single_wm_shifts(corpus) -> CriterionResult:
    """Single weak coupling on a correlated Gaussian: residuals <= 3*lambda^2
    per component and quadratic residual decay over the strength sweep.

    The slope gate (2.0 +/- 0.3) relies on the scenario's off-centre pointer
    (``mean_q`` 0.25 on the coupled axis), which keeps a lambda^2 term in
    the residual: the same sweep with the pointer centred fits a slope of
    2.99 and would fail the gate."""
    cfg = load_bundled("single_wm_correlated")
    reports, summary = run_sweep(cfg, cfg.sweep)
    lam = cfg.couplings[0].strength
    base = reports[cfg.sweep.index(1.0)]
    worst = float(max(np.max(base.residual_q), np.max(base.residual_p)))
    slope = summary["slope"]
    slope_ok = slope is not None and abs(slope - 2.0) <= 0.3
    passed = worst <= 3 * lam**2 and slope_ok
    return CriterionResult(2, "single_wm_shifts", passed, worst, 3 * lam**2,
                           f"worst residual at lambda={lam:g}; sweep slope {slope:.3f}",
                           budget_s=10.0)


def criterion_3_sequential_shifts(corpus) -> CriterionResult:
    """Two sequential couplings on a correlated 3-axis Gaussian: all six
    components within 3*(l1+l2)^2; readout offset exact at zero coupling.
    The time limit covers its corpus run too: ``elapsed_s`` starts at that run's seconds."""
    report, seconds = corpus["seq_corr_full"]
    lam_tot = sum(abs(c.strength) for c in report.cfg.couplings)
    bound = 3.0 * lam_tot**2
    worst = float(max(np.max(report.residual_q), np.max(report.residual_p)))
    zero = run_scenario(report.cfg, 0.0)
    offset_residual = float(zero.residual_p[2])
    passed = worst <= bound and offset_residual <= 1e-9
    return CriterionResult(3, "sequential_shifts", passed, worst, bound,
                           f"offset residual at lambda=0: {offset_residual:.2e}",
                           budget_s=60.0, elapsed_s=seconds)


def criterion_4_jozsa_reduction(corpus) -> CriterionResult:
    """Uncorrelated 3-axis pointer: the cross-axis shifts vanish."""
    report, _seconds = corpus["jozsa_reduction_3d"]
    lam = report.cfg.couplings[0].strength
    tol = max(1e-6, 3 * lam**2)
    vals = (abs(float(report.shift_q[1])), abs(float(report.shift_q[2])),
            float(report.residual_p[2]))
    worst = max(vals)
    return CriterionResult(4, "jozsa_reduction", worst <= tol, worst, tol,
                           "max of |dq2|, |dq3|, |dp3 - readout offset|")


def criterion_5_real_weak_value_null(corpus) -> CriterionResult:
    """Real weak value on a fully correlated pointer: no correlation-driven shifts."""
    report, _seconds = corpus["real_weak_value"]
    lam = report.cfg.couplings[0].strength
    tol = max(1e-6, 3 * lam**2)
    vals = [abs(float(report.shift_q[j])) for j in range(3)]
    vals.append(abs(float(report.shift_p[1])))
    vals.append(float(report.residual_p[2]))
    worst = max(vals)
    return CriterionResult(5, "real_weak_value_null", worst <= tol, worst, tol,
                           "max correlation-driven component")


def criterion_6_displacement_invariance(corpus) -> CriterionResult:
    """All covariance blocks invariant under on-grid momentum displacement."""
    worst = 0.0
    grid3 = Grid(points_per_axis=(64, 64, 64), extent=(8.0, 8.0, 8.0))
    sigma = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
    theta = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.15], [0.1, 0.15, 0.0]])
    grid2 = Grid(points_per_axis=(256, 256), extent=(12.0, 12.0))
    # Each state is built in its own turn, so the other is not held while it
    # is measured, and the displaced state replaces the undisplaced one.
    for build, cells in ((lambda: gaussian_pointer(grid3, sigma, theta=theta), (3, -2, 5)),
                         (lambda: lg_mode(grid2, 1, 1.0), (2, 3))):
        phi = build()
        shifts = np.array([n * phi.grid.dp(j) for j, n in enumerate(cells)])
        before = moments(phi)
        phi = displace_momentum(phi, shifts)
        after = moments(phi)
        for blk in ("cov_qq", "cov_qp", "cov_pp"):
            worst = max(worst, float(np.max(np.abs(getattr(after, blk) - getattr(before, blk)))))
    return CriterionResult(6, "displacement_invariance", worst <= 1e-9, worst, 1e-9,
                           "max covariance-entry change, Gaussian and vortex states")


def criterion_7_entanglement_protocol(corpus) -> CriterionResult:
    """Shift-reconstructed C agrees with the direct C and the det sign matches."""
    worst_rel = 0.0
    dets_ok = True
    worst_zero_det = 0.0
    for gamma in (0.0, 0.05, -0.05, 0.1, -0.1):
        direct, recon = probe_c_matrices(TwoModeGaussianParams(0.25, 0.25, gamma), 0.05)
        for i in range(2):
            for j in range(2):
                ref = direct.entries[i, j]
                if abs(ref) > 1e-3:
                    worst_rel = max(worst_rel, abs(recon.entries[i, j] - ref) / abs(ref))
        if gamma == 0.0:
            worst_zero_det = max(abs(direct.det), abs(recon.det))
        else:
            dets_ok = dets_ok and (direct.det < 0) and (np.sign(recon.det) == np.sign(direct.det))
    passed = worst_rel <= 0.05 and dets_ok and worst_zero_det <= 1e-6
    return CriterionResult(7, "entanglement_protocol", passed, worst_rel, 0.05,
                           f"|det| at gamma=0: {worst_zero_det:.2e}; det signs agree: {dets_ok}",
                           budget_s=20.0)


def criterion_8_appendix_a_identity(corpus) -> CriterionResult:
    """Partial-transform correlation identity over a 3x3 parameter sweep."""
    worst = 0.0
    for s in (0.8, 1.0, 1.25):
        for c in (0.05, 0.1, 0.2):
            _num, _ana, residual = appendix_a_check(s, s, c)
            worst = max(worst, residual)
    return CriterionResult(8, "appendix_a_identity", worst <= 1e-6, worst, 1e-6,
                           "max residual over sigma x c12 sweep (equal sigmas)")


def criterion_9_oracle_crosscheck(corpus) -> CriterionResult:
    """First-order weak-value construction vs the exact pipeline, every bundled
    scenario: mean vectors agree within max(3*lambda_tot^2, 1e-9)."""
    worst_margin = -np.inf
    worst_name = ""
    all_ok = True
    for name, (report, _seconds) in corpus.items():
        cfg = report.cfg
        terms = first_order_terms(cfg, build_coupling_specs(cfg), resolve_system(cfg))
        # No binding holds the pointers, so each is freed once its means are taken.
        mean_q, mean_p = means(first_order_pointer(build_pointer(cfg)[1], terms))
        dist = float(max(np.max(np.abs(report.final_mean_q - mean_q)),
                         np.max(np.abs(report.final_mean_p - mean_p))))
        lam_tot = sum(abs(c.strength) for c in cfg.couplings)
        tol = max(3.0 * lam_tot**2, 1e-9)
        ok = dist <= tol
        all_ok = all_ok and ok
        if dist / tol > worst_margin:
            worst_margin = dist / tol
            worst_name = name
    return CriterionResult(9, "oracle_crosscheck", all_ok, worst_margin, 1.0,
                           f"worst distance/tolerance ratio at scenario {worst_name}")


def _bundled_corpus() -> dict:
    """``{name: (report, seconds)}``: every bundled scenario run once, and the
    wall time of that run.  Holds no pointer arrays; built afresh per pass."""
    corpus = {}
    for name in bundled_scenario_names():
        cfg = load_bundled(name)
        t0 = time.perf_counter()
        report = run_scenario(cfg)
        corpus[name] = (report, time.perf_counter() - t0)
    return corpus


def _suite_pass() -> tuple[list[CriterionResult], dict]:
    """One suite pass: build the corpus, then run criteria 1-9 on it, adding
    each call's wall time to its result's ``elapsed_s``."""
    corpus = _bundled_corpus()
    results = []
    for fn in _CRITERIA_1_9:
        t0 = time.perf_counter()
        results.append(fn(corpus))
        results[-1].elapsed_s += time.perf_counter() - t0
    return results, corpus


def _deterministic_pass_bytes(results, corpus) -> bytes:
    """Everything one suite pass serializes: the criteria summary of
    ``results`` plus the reports of ``corpus``."""
    parts = [summary_json_text(results).encode()]
    for report, _seconds in corpus.values():
        parts.append(report_json_text(report).encode())
        parts.append(reports_csv_text([report]).encode())
    return b"".join(parts)


_RERUN = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from pointersim.validation import _deterministic_pass_bytes, _suite_pass; "
          "sys.stdout.buffer.write(_deterministic_pass_bytes(*_suite_pass()))")


def _rerun_bytes(meanwhile):
    """``(meanwhile(), rerun)``: ``rerun`` is the bytes of criterion 10's
    rerun, ``_deterministic_pass_bytes(*_suite_pass())`` in a fresh
    interpreter that imports this checkout's ``pointersim``, and
    ``meanwhile()`` runs here while the rerun runs.  The child is always
    waited for: it is killed when ``meanwhile`` raises, and a child that
    fails raises :class:`PointersimError` with its last stderr line."""
    with subprocess.Popen([sys.executable, "-c", _RERUN, str(Path(__file__).parent.parent)],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        try:
            result = meanwhile()
        except BaseException:
            child.kill()
            raise
        rerun, err = child.communicate()
    if child.returncode != 0:
        last = (err.decode(errors="replace").strip().splitlines() or ["no stderr"])[-1]
        raise PointersimError(f"criterion 10's rerun exited {child.returncode}: {last}")
    return result, rerun


def criterion_10_determinism(suite_pass, rerun: bytes) -> CriterionResult:
    """Two full passes serialize to byte-identical reports.  The first pass
    is ``suite_pass``, ``(results, corpus)`` as ``run_all`` just ran them;
    the second, ``rerun``, is the bytes of the rerun that ``run_all`` ran
    alongside it in a fresh interpreter.  Two processes with their own hash
    seeds must agree; repeats within one process are left to the committed
    output digests."""
    first = _deterministic_pass_bytes(*suite_pass)
    identical = first == rerun
    return CriterionResult(10, "determinism", identical, 0.0 if identical else 1.0, 0.0,
                           f"{len(first)} bytes compared across two passes")


_CRITERIA_1_9 = (
    criterion_1_lg_correlation_law,
    criterion_2_single_wm_shifts,
    criterion_3_sequential_shifts,
    criterion_4_jozsa_reduction,
    criterion_5_real_weak_value_null,
    criterion_6_displacement_invariance,
    criterion_7_entanglement_protocol,
    criterion_8_appendix_a_identity,
    criterion_9_oracle_crosscheck,
)


def run_all() -> list[CriterionResult]:
    suite_pass, rerun = _rerun_bytes(_suite_pass)
    return suite_pass[0] + [criterion_10_determinism(suite_pass, rerun)]


def summary_json_text(results: list[CriterionResult]) -> str:
    return json_text({
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "value": float(r.value),
                "threshold": float(r.threshold),
                "detail": r.detail,
            }
            for r in results
        ],
    })


def summary_csv_text(results: list[CriterionResult]) -> str:
    return csv_text(("number", "name", "passed", "value", "threshold"), (
        {"number": r.number, "name": r.name, "passed": str(r.passed).lower(),
         "value": _g17(r.value), "threshold": _g17(r.threshold)} for r in results))
