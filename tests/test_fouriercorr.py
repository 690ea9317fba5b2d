"""The pointer's axis transform on correlated densities and the induced
p1-q2 correlation identity."""

import numpy as np
import pytest

from pointersim import Grid, InvalidParams, appendix_a_check
from pointersim.pointer import _axis_transform


def grid2(points=128, extent=10.0):
    return Grid((points, points), (extent, extent))


def density(grid, s1, s2, c):
    """Unnormalized ``exp[-s1^2 q1^2 / 2 - s2^2 q2^2 / 2 - c q1 q2]``, the
    density ``appendix_a_check`` transforms (there normalized)."""
    q1 = grid.axis_array(0, grid.positions(0))
    q2 = grid.axis_array(1, grid.positions(1))
    return np.exp(-0.5 * s1**2 * q1**2 - 0.5 * s2**2 * q2**2 - c * q1 * q2)


class TestPartialFourier:
    def test_separable_density_stays_separable(self):
        g = grid2()
        transformed = _axis_transform(density(g, 1.0, 2.0, 0.0), g, 0)
        # Rank-1 check: all columns are proportional (scale taken at p1 = 0).
        col0 = transformed[:, g.points_per_axis[1] // 2]
        for k in (10, 40, 90):
            col = transformed[:, k]
            scale = col[0] / col0[0]
            np.testing.assert_allclose(col, scale * col0, atol=1e-12)

    def test_matches_closed_form_pointwise(self):
        # The partially transformed correlated Gaussian has the closed form
        # N' exp[-(s2^2 - c^2/s1^2) q2^2 / 2 - p1^2/(2 s1^2) + i (c/s1^2) p1 q2],
        # where N' = 1/s1: sqrt(2 pi)/s1 from the q1 integral times the
        # unitary kernel's 1/sqrt(2 pi).
        s1, s2, c = 1.0, 1.2, 0.3
        g = grid2(256, 12.0)
        transformed = _axis_transform(density(g, s1, s2, c), g, 0)
        p1 = g.axis_array(0, g.momenta(0))
        q2 = g.axis_array(1, g.positions(1))
        prefactor = 1.0 / s1
        expected = prefactor * np.exp(
            -0.5 * (s2**2 - c**2 / s1**2) * q2**2
            - p1**2 / (2 * s1**2)
            + 1j * (c / s1**2) * p1 * q2
        )
        assert np.max(np.abs(transformed - expected)) <= 1e-6

    def test_even_uncorrelated_transform_is_real(self):
        g = grid2()
        transformed = _axis_transform(density(g, 1.0, 1.0, 0.0), g, 0)
        assert np.max(np.abs(transformed.imag)) <= 1e-12


class TestAppendixCheck:
    def test_zero_correlation(self):
        numeric, analytic, residual = appendix_a_check(1.0, 1.0, 0.0)
        assert abs(numeric) <= 1e-9
        assert analytic == 0.0
        assert residual <= 1e-9

    def test_reference_point(self):
        numeric, analytic, residual = appendix_a_check(1.0, 1.0, 0.2)
        assert analytic == pytest.approx(0.2j)
        assert numeric.imag == pytest.approx(0.2, abs=1e-9)
        assert residual <= 1e-6

    def test_linearity_in_correlation(self):
        s = 1.3
        slopes = []
        for c in (0.05, 0.1, 0.2):
            numeric, _, _ = appendix_a_check(s, s, c)
            slopes.append(numeric.imag / c)
        # slope = 1/sigma^2 at equal sigmas
        for slope in slopes:
            assert slope == pytest.approx(1.0 / s**2, rel=1e-4)

    def test_unequal_sigmas_expose_transform_scale(self):
        # The functional's closed form is i*c/sigma2^2; it matches the quoted
        # i*c/sigma1^2 only at equal sigmas.
        numeric, analytic, residual = appendix_a_check(1.0, 2.0, 0.2)
        assert numeric.imag == pytest.approx(0.2 / 4.0, abs=1e-9)
        assert analytic.imag == pytest.approx(0.2)
        assert residual == pytest.approx(0.15, abs=1e-9)

    @pytest.mark.parametrize("sigma1, sigma2, c12", [
        (1.0, 1.3, 0.2), (0.8, 1.25, 0.1), (1.5, 0.7, -0.15), (1.2, 0.9, 0.3),
        # Positive definite at extreme widths, where sigma1**2 * sigma2**2
        # <= c12**2 read 0 <= 0 (underflow) and inf <= inf (overflow).
        (1e-100, 1e-100, 0.0), (1e100, 1e100, 0.5e200),
    ])
    def test_general_closed_form_is_i_c12_over_sigma2_squared(self, sigma1, sigma2, c12):
        # The functional depends on sigma2 alone; the quoted identity's
        # sigma1 holds only at equal sigmas, which criterion 8 checks.
        numeric, analytic, residual = appendix_a_check(sigma1, sigma2, c12)
        assert abs(numeric - 1j * c12 / sigma2**2) <= 1e-12
        assert residual == pytest.approx(abs(c12 / sigma2**2 - c12 / sigma1**2), abs=1e-12)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidParams):
            appendix_a_check(0.5, 0.5, 0.3)
        with pytest.raises(InvalidParams, match="positive-definite"):
            appendix_a_check(1.0, 1.0, 1e200)  # c12**2 would overflow
