"""C-matrix certification: direct moments vs the shift-reconstruction protocol."""

import os
import warnings

import numpy as np
import pytest

from pointersim import (
    CMatrix,
    DimensionError,
    Grid,
    InvalidParams,
    TwoModeGaussianParams,
    auto_grid,
    c_matrix_direct,
    c_matrix_from_shifts,
    gaussian_pointer,
    is_entangled,
    lg_mode,
    moments,
    two_mode_gaussian,
)
from pointersim import entanglement
from pointersim.cli import main
from pointersim.pointer import check_gaussian_params
from conftest import count_calls


def reference_params():
    return TwoModeGaussianParams(alpha=0.25, beta=0.25, gamma=0.125)


def reference_pointer(params=None):
    params = params or reference_params()
    grid = auto_grid(*check_gaussian_params(params.position_covariance()), None, None)
    return two_mode_gaussian(grid, params)


class TestProbeStrength:
    @pytest.mark.parametrize("strength", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_rejects_zero_or_non_finite_strength(self, strength):
        with pytest.raises(InvalidParams, match="finite and nonzero"):
            c_matrix_from_shifts(reference_pointer(), strength)

    def test_needs_two_axes(self):
        phi = gaussian_pointer(Grid((64,), (8.0,)), np.array([[1.0]]))
        with pytest.raises(DimensionError, match="needs a 2-axis pointer"):
            c_matrix_from_shifts(phi, 0.05)

    def test_accepts_negative_strength(self):
        c = c_matrix_from_shifts(reference_pointer(), -0.05)
        assert isinstance(c, CMatrix)
        assert np.all(np.isfinite(c.entries))


class TestTwoModeGaussian:
    def test_params_validation(self):
        with pytest.raises(InvalidParams):
            TwoModeGaussianParams(0.25, 0.25, 0.25)
        with pytest.raises(InvalidParams):
            TwoModeGaussianParams(-1.0, 0.25, 0.0)
        # gamma**2 overflowed the check of alpha*beta > gamma^2.
        with pytest.raises(InvalidParams, match=r"need alpha\*beta > gamma\^2"):
            TwoModeGaussianParams(1.0, 1.0, 1e300)

    @pytest.mark.parametrize("alpha, gamma, line", [
        ("1", "1e300", "error: need alpha*beta > gamma^2 for a normalizable state\n"),
        # The position covariance has an infinite entry; the probe read its
        # spreads without the Gaussian rule, and a RuntimeWarning escaped.
        ("1e-320", "0", "error: sigma and theta must be finite\n"),
    ], ids=["gamma-1e300", "alpha-1e-320"])
    def test_entangle_rejects_extreme_params_in_one_line(self, tmp_path, capsys, alpha, gamma,
                                                          line):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["entangle", "--alpha", alpha, "--beta", "1", "--gamma", gamma,
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == line
        assert os.listdir(tmp_path) == []

    def test_uncorrelated_is_product(self):
        params = TwoModeGaussianParams(0.25, 0.25, 0.0)
        m = moments(reference_pointer(params))
        assert m.cov_qq[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_qq[0, 0] == pytest.approx(1.0, rel=1e-6)

    def test_correlation_closed_form(self):
        # corr(q1,q2) = -gamma / (4 (alpha beta - gamma^2)); pp block equals the
        # coefficient matrix itself.  Cross-checked by direct 2x2 inversion.
        params = reference_params()
        m = moments(reference_pointer(params))
        coeff = np.array([[params.alpha, params.gamma], [params.gamma, params.beta]])
        expected = 0.25 * np.linalg.inv(coeff)
        assert expected[0, 1] == pytest.approx(-2.0 / 3.0)
        np.testing.assert_allclose(m.cov_qq, expected, atol=1e-6)
        np.testing.assert_allclose(m.cov_pp, coeff, atol=1e-6)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)


class TestCMatrixDirect:
    def test_product_state_gives_zero(self):
        grid = Grid((128, 128), (8.0, 8.0))
        c = c_matrix_direct(gaussian_pointer(grid, np.eye(2)))
        np.testing.assert_allclose(c.entries, 0.0, atol=1e-9)
        assert not is_entangled(c)

    def test_correlated_gaussian_det_negative(self):
        c = c_matrix_direct(reference_pointer())
        assert c.entries[0, 0] == pytest.approx(-2.0 / 3.0, abs=1e-6)
        assert c.entries[1, 1] == pytest.approx(0.125, abs=1e-6)
        assert c.det == pytest.approx(-1.0 / 12.0, abs=1e-6)
        assert is_entangled(c)

    def test_vortex_mode_antidiagonal(self):
        # The vortex mode's off-diagonals are +/- l/2 (their difference is the
        # orbital angular momentum), so det(C) = +1/4 and the det test is
        # inconclusive for this non-Gaussian state.
        c = c_matrix_direct(lg_mode(Grid((256, 256), (12.0, 12.0)), 1, 1.0))
        assert c.entries[0, 1] == pytest.approx(0.5, abs=1e-3)
        assert c.entries[1, 0] == pytest.approx(-0.5, abs=1e-3)
        assert c.det == pytest.approx(0.25, abs=1e-3)
        assert not is_entangled(c)

    def test_needs_two_axes(self):
        phi = gaussian_pointer(Grid((64,), (8.0,)), np.array([[1.0]]))
        with pytest.raises(DimensionError):
            c_matrix_direct(phi)


class TestIsEntangled:
    @pytest.mark.parametrize("entries", [np.zeros((2, 3)), [[0.0, np.nan], [0.0, 0.0]]],
                             ids=["shape", "nan"])
    def test_c_matrix_must_be_a_finite_two_by_two(self, entries):
        with pytest.raises(DimensionError, match="finite 2x2 real matrix"):
            CMatrix(entries)

    def test_zero_matrix(self):
        assert not is_entangled(CMatrix(entries=np.zeros((2, 2))))

    def test_antidiagonal(self):
        # Equal-sign off-diagonals: det = -1/4.
        assert is_entangled(CMatrix(entries=np.array([[0.0, 0.5], [0.5, 0.0]])))
        # Opposite-sign off-diagonals: det = +1/4, not flagged.
        assert not is_entangled(CMatrix(entries=np.array([[0.0, 0.5], [-0.5, 0.0]])))

    def test_positive_det(self):
        assert not is_entangled(CMatrix(entries=np.diag([0.3, 0.3])))


class TestReconstruction:
    def test_product_state_reconstructs_zero(self):
        params = TwoModeGaussianParams(0.25, 0.25, 0.0)
        c = c_matrix_from_shifts(reference_pointer(params), 0.05)
        assert np.max(np.abs(c.entries)) <= 1e-6

    def test_matches_direct_within_five_percent(self):
        phi = reference_pointer()
        direct = c_matrix_direct(phi)
        recon = c_matrix_from_shifts(phi, 0.05)
        for i in range(2):
            for j in range(2):
                if abs(direct.entries[i, j]) > 1e-3:
                    rel = abs(recon.entries[i, j] - direct.entries[i, j]) / abs(direct.entries[i, j])
                    assert rel <= 0.05
        assert np.sign(recon.det) == np.sign(direct.det)

    @pytest.mark.parametrize("gamma", [0.0, 0.05, -0.05, 0.1, -0.1])
    def test_verdict_agreement_over_gamma_sweep(self, gamma):
        params = TwoModeGaussianParams(0.25, 0.25, gamma)
        phi = reference_pointer(params)
        direct = c_matrix_direct(phi)
        recon = c_matrix_from_shifts(phi, 0.05)
        assert is_entangled(direct) == is_entangled(recon) == (gamma != 0.0)

    def test_probe_c_matrices_takes_means_where_it_reads_only_means(self, monkeypatch):
        # The direct C needs the covariances; the base state is read for its
        # means and diagonal spreads (the kick rule), the two probed states
        # for their mean shifts only.
        counts = count_calls(monkeypatch, entanglement, "moments", "means", "_diagonal_moments")
        entanglement.probe_c_matrices(TwoModeGaussianParams(0.25, 0.25, 0.125), 0.05)
        assert counts == {"moments": 1, "means": 2, "_diagonal_moments": 1}

    def test_error_decays_at_least_linearly(self):
        phi = reference_pointer()
        direct = c_matrix_direct(phi)
        errors = []
        lams = (0.1, 0.05, 0.025)
        for lam in lams:
            recon = c_matrix_from_shifts(phi, lam)
            errors.append(np.max(np.abs(recon.entries - direct.entries)))
        slope = np.polyfit(np.log(lams), np.log(errors), 1)[0]
        # Gaussian pointers have no third central moments, so the decay is in
        # fact quadratic; the contract only demands at-least-linear.
        assert slope >= 0.9
        assert errors[0] > errors[1] > errors[2]
