"""Grids, transforms, Gaussian and vortex states, moment functionals."""

import numpy as np
import pytest

from pointersim import (
    DimensionError,
    Grid,
    GridCoverage,
    InvalidCovariance,
    NormalizationError,
    PointerWavefunction,
    displace_momentum,
    gaussian_pointer,
    lg_mode,
    moments,
    to_momentum,
    to_position,
)
from pointersim.pointer import _axis_transform
from conftest import dense_axis_to_momentum, oracle_mixed_moment


def grid2(points=128, extent=8.0):
    return Grid(points_per_axis=(points, points), extent=(extent, extent))


class TestGrid:
    def test_fourier_duality(self):
        g = Grid((64, 128, 32), (5.0, 8.0, 4.0))
        for j in range(3):
            assert g.dq(j) * g.dp(j) * g.points_per_axis[j] == pytest.approx(2 * np.pi, rel=1e-15)

    @pytest.mark.parametrize("points", [16, 31, 33, 100])
    def test_rejects_bad_point_counts(self, points):
        with pytest.raises(DimensionError):
            Grid((points,), (8.0,))

    def test_rejects_four_axes(self):
        with pytest.raises(DimensionError):
            Grid((32, 32, 32, 32), (4.0, 4.0, 4.0, 4.0))


class TestTransforms:
    def test_round_trip(self):
        g = grid2()
        phi = gaussian_pointer(g, np.array([[1.0, 0.3], [0.3, 0.8]]))
        back = to_position(to_momentum(phi))
        assert np.max(np.abs(back.amplitudes - phi.amplitudes)) <= 1e-10

    def test_norm_preserved(self):
        g = grid2()
        phi = gaussian_pointer(g, np.eye(2), mean_p=np.array([0.4, -0.2]))
        assert to_momentum(phi).norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_momentum_variance(self):
        # Fourier pair: position variance s^2 maps to momentum variance 1/(4 s^2).
        for s2 in (0.5, 1.0, 2.0):
            g = Grid((256,), (8.0 * max(1.0, np.sqrt(s2)),))
            m = moments(gaussian_pointer(g, np.array([[s2]])))
            assert m.cov_pp[0, 0] == pytest.approx(1.0 / (4.0 * s2), rel=1e-9)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_axis_transform_matches_dense_oracle(self, axis, rng):
        # One transform serves pointer-shaped (*grid) and joint-shaped
        # (2, *grid) arrays; the joint case runs the FFT on a shifted array axis.
        g = Grid((32, 64, 32), (5.0, 8.0, 4.0))
        pointer = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        joint = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)
        np.testing.assert_allclose(_axis_transform(pointer, g, axis),
                                   dense_axis_to_momentum(pointer, g, axis), atol=1e-12)
        expected = np.stack([dense_axis_to_momentum(part, g, axis) for part in joint])
        np.testing.assert_allclose(_axis_transform(joint, g, axis), expected, atol=1e-12)
        for arr in (pointer, joint):
            back = _axis_transform(_axis_transform(arr, g, axis), g, axis, forward=False)
            np.testing.assert_allclose(back, arr, atol=1e-12)

    def test_plane_wave_shift_theorem(self):
        g = Grid((128,), (8.0,))
        m = moments(gaussian_pointer(g, np.array([[1.0]]), mean_p=np.array([0.7])))
        assert m.mean_p[0] == pytest.approx(0.7, abs=1e-9)


class TestGaussianPointer:
    def test_factorizable(self):
        m = moments(gaussian_pointer(grid2(), np.eye(2)))
        np.testing.assert_allclose(m.cov_qq, np.eye(2), atol=1e-9)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_correlated_covariance(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        m = moments(gaussian_pointer(grid2(256), sigma))
        np.testing.assert_allclose(m.cov_qq, sigma, atol=1e-6)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_phase_qp_correlation(self):
        # cov_qp = sigma @ theta; frozen from the Gaussian moment relations.
        theta = np.array([[0.0, 0.3], [0.3, 0.0]])
        m = moments(gaussian_pointer(grid2(256), np.eye(2), theta=theta))
        assert m.cov_qp[0, 1] == pytest.approx(0.3, abs=1e-6)
        assert m.cov_qp[1, 0] == pytest.approx(0.3, abs=1e-6)
        np.testing.assert_allclose(m.cov_pp, 0.25 * np.eye(2) + theta @ theta, atol=1e-6)

    def test_quadratic_phase_same_axis_qp_covariance(self):
        # The symmetrized diagonal also follows sigma @ theta; zero for a real state.
        theta = np.array([[0.4, 0.0], [0.0, 0.0]])
        m = moments(gaussian_pointer(grid2(256), np.eye(2), theta=theta))
        assert m.cov_qp[0, 0] == pytest.approx(0.4, abs=1e-6)
        assert m.cov_qp[1, 1] == pytest.approx(0.0, abs=1e-9)
        m_real = moments(gaussian_pointer(grid2(), np.eye(2)))
        assert m_real.cov_qp[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_qp_correlation_against_dense_oracle(self):
        theta = np.array([[0.0, 0.3], [0.3, 0.0]])
        phi = gaussian_pointer(grid2(64), np.eye(2), theta=theta)
        assert oracle_mixed_moment(phi, 0, 1) == pytest.approx(0.3, abs=1e-4)

    def test_vortex_correlations_against_dense_oracle(self):
        phi = lg_mode(Grid((64, 64), (9.0, 9.0)), 1, 1.0)
        assert oracle_mixed_moment(phi, 0, 1) == pytest.approx(0.5, abs=1e-4)
        assert oracle_mixed_moment(phi, 1, 0) == pytest.approx(-0.5, abs=1e-4)

    def test_three_axis_constructor_contract(self):
        sigma = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
        g = Grid((64, 64, 64), (8.0, 8.0, 8.0))
        m = moments(gaussian_pointer(g, sigma))
        np.testing.assert_allclose(m.cov_qq, sigma, atol=1e-6)
        np.testing.assert_allclose(m.cov_pp, 0.25 * np.linalg.inv(sigma), atol=1e-6)

    def test_means(self):
        m = moments(gaussian_pointer(grid2(), np.eye(2),
                                     mean_q=np.array([0.25, -0.15]),
                                     mean_p=np.array([0.1, 0.2])))
        np.testing.assert_allclose(m.mean_q, [0.25, -0.15], atol=1e-9)
        np.testing.assert_allclose(m.mean_p, [0.1, 0.2], atol=1e-9)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidCovariance):
            gaussian_pointer(grid2(), np.array([[1.0, 1.2], [1.2, 1.0]]))

    def test_rejects_insufficient_extent(self):
        with pytest.raises(GridCoverage):
            gaussian_pointer(Grid((64, 64), (4.0, 4.0)), np.eye(2))


class TestLgMode:
    def test_l0_is_isotropic_gaussian(self):
        m = moments(lg_mode(grid2(256), 0, 1.0))
        assert m.cov_qq[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_qq[0, 0] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("l", [-2, -1, 0, 1, 2])
    def test_correlation_law(self, l):
        # corr(x, p_y) = +l/2, corr(y, p_x) = -l/2, corr(x, y) = 0.
        ext = 8.0 * np.sqrt(1.0 + abs(l))
        m = moments(lg_mode(Grid((256, 256), (ext, ext)), l, 1.0))
        assert m.cov_qp[0, 1] == pytest.approx(0.5 * l, abs=1e-3)
        assert m.cov_qp[1, 0] == pytest.approx(-0.5 * l, abs=1e-3)
        assert m.cov_qq[0, 1] == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("l,sigma", [(1, 1.0), (2, 1.0), (1, 0.7)])
    def test_position_variance(self, l, sigma):
        # var(x) = sigma^2 (1 + |l|): the waist parameter is not the variance.
        ext = 8.0 * sigma * np.sqrt(1.0 + abs(l))
        m = moments(lg_mode(Grid((256, 256), (ext, ext)), l, sigma))
        assert m.cov_qq[0, 0] == pytest.approx(sigma**2 * (1 + abs(l)), rel=1e-6)

    def test_requires_two_axes(self):
        with pytest.raises(DimensionError):
            lg_mode(Grid((64,), (8.0,)), 1, 1.0)

    def test_requires_coverage(self):
        with pytest.raises(GridCoverage):
            lg_mode(Grid((64, 64), (6.0, 6.0)), 2, 1.0)


class TestDisplacement:
    def test_zero_shift_is_identity(self):
        phi = gaussian_pointer(grid2(), np.eye(2))
        out = displace_momentum(phi, [0.0, 0.0])
        assert np.max(np.abs(out.amplitudes - phi.amplitudes)) == 0.0

    def test_momentum_mean_shifts_and_covariances_do_not(self):
        g = grid2()
        phi = gaussian_pointer(g, np.array([[1.0, 0.4], [0.4, 1.0]]),
                               theta=np.array([[0.0, 0.2], [0.2, 0.0]]))
        shifts = np.array([g.dp(0), 0.0])
        before, after = moments(phi), moments(displace_momentum(phi, shifts))
        assert after.mean_p[0] - before.mean_p[0] == pytest.approx(g.dp(0), abs=1e-9)
        assert after.mean_p[1] - before.mean_p[1] == pytest.approx(0.0, abs=1e-9)
        for blk in ("cov_qq", "cov_qp", "cov_pp"):
            assert np.max(np.abs(getattr(after, blk) - getattr(before, blk))) <= 1e-9

    def test_position_distribution_unchanged(self):
        phi = gaussian_pointer(grid2(), np.eye(2))
        out = displace_momentum(phi, [0.5, -1.3])  # off-grid shifts allowed
        np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(phi.amplitudes), atol=1e-13)

    def test_vortex_correlations_invariant(self):
        g = Grid((256, 256), (12.0, 12.0))
        phi = lg_mode(g, 1, 1.0)
        out = displace_momentum(phi, [2 * g.dp(0), 3 * g.dp(1)])
        m = moments(out)
        assert m.cov_qp[0, 1] == pytest.approx(0.5, abs=1e-9)
        assert m.cov_qp[1, 0] == pytest.approx(-0.5, abs=1e-9)


class TestMoments:
    def test_rejects_unnormalized(self):
        g = grid2()
        phi = gaussian_pointer(g, np.eye(2))
        with pytest.raises(NormalizationError):
            PointerWavefunction(g, phi.amplitudes * 1.1)

    def test_product_state_cross_terms_vanish(self):
        m = moments(gaussian_pointer(grid2(), np.diag([1.0, 0.7])))
        assert m.cov_qq[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_pp[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_and_variance_diagonals(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        m = moments(gaussian_pointer(grid2(256), sigma))
        np.testing.assert_allclose(m.cov_qq, m.cov_qq.T, atol=1e-12)
        np.testing.assert_allclose(m.cov_pp, m.cov_pp.T, atol=1e-12)
        assert np.all(np.diag(m.cov_qq) > 0)
        assert np.all(np.diag(m.cov_pp) > 0)
