"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (the same lines ``pointersim validate`` prints).  The ten tests
share one ``run_all()`` (``conftest.suite_results``), as ``pointersim
validate`` runs it: criterion 10 there compares that suite pass with a
second, independent one.
"""


def _check(results, number):
    result = results[number - 1]
    assert result.number == number
    print(result.line())
    assert result.ok, result.line()
    return result


def test_criterion_01_lg_correlation_law(suite_results):
    # l in {0, 1, 2}: cross correlations at magnitude l/2, corr(x,y) = 0,
    # within 1e-3 on a 256^2 grid, under 5 s.
    _check(suite_results, 1)


def test_criterion_02_single_wm_shifts(suite_results):
    # Correlated 2-axis Gaussian, (A)_w = i, lambda = 0.05: per-component
    # residuals <= 3 lambda^2 and residual slope 2.0 +/- 0.3 over the sweep.
    _check(suite_results, 2)


def test_criterion_03_sequential_shifts(suite_results):
    # 3-axis Gaussian, cov pairs (0.5, 0.3, 0.2), lambda1 = lambda2 = 0.04:
    # all six components within 3 (l1+l2)^2; readout offset exact at zero
    # coupling; under 60 s at 64^3.
    _check(suite_results, 3)


def test_criterion_04_jozsa_reduction(suite_results):
    # No cross correlations: dq2, dq3 and the offset-corrected dp3 vanish
    # within max(1e-6, 3 lambda^2).
    _check(suite_results, 4)


def test_criterion_05_real_weak_value_null(suite_results):
    # Real weak value, all correlations nonzero: correlation-driven components
    # within max(1e-6, 3 lambda^2).
    _check(suite_results, 5)


def test_criterion_06_displacement_invariance(suite_results):
    # Every covariance entry invariant under on-grid momentum displacement
    # within 1e-9, Gaussian and vortex states.
    _check(suite_results, 6)


def test_criterion_07_entanglement_protocol(suite_results):
    # gamma sweep {0, +/-0.05, +/-0.1}: reconstructed C within 5% per entry
    # (entries > 1e-3), det signs agree, |det| <= 1e-6 at gamma = 0; under 20 s.
    _check(suite_results, 7)


def test_criterion_08_appendix_a_identity(suite_results):
    # Partial-transform correlation identity: residual <= 1e-6 over the
    # 3x3 (sigma, c12) sweep.
    _check(suite_results, 8)


def test_criterion_09_oracle_crosscheck(suite_results):
    # First-order weak-value pointer vs exact pipeline on every bundled
    # scenario: mean vectors within max(3 lambda_tot^2, 1e-9).
    _check(suite_results, 9)


def test_criterion_10_determinism(suite_results):
    # Two full verification passes serialize byte-identically.
    _check(suite_results, 10)
