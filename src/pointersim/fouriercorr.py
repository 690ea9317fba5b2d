"""Partial Fourier transform of a correlated Gaussian position density.

A position density ``f(q1, q2) ~ exp[-s1^2 q1^2 / 2 - s2^2 q2^2 / 2 - c q1 q2]``
(the coefficients are precision-matrix entries) acquires, after a partial
transform q1 -> p1, the phase ``exp[i (c/s1^2) p1 q2]``.  The formal moment
functional corr(p1, q2) of the transformed (complex) array is therefore
purely imaginary and proportional to the position correlation coefficient --
a nonzero q1-q2 correlation forces a nonzero p1-q2 correlation.

The transform is the pointer's own axis transform.  The transformed array is
not a probability density; the functional here is a ratio of Riemann sums,
so the transform's prefactor and the density's normalization cancel.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .pointer import Grid, _axis_transform, check_width, gaussian_pointer


def appendix_a_check(sigma1: float, sigma2: float, c12: float) -> tuple[complex, complex, float]:
    """Evaluate the induced p1-q2 correlation identity on a 256^2 grid.

    Returns ``(numeric, analytic, residual)`` where ``numeric`` is the formal
    moment functional of the density with precision-matrix coefficients
    ``(sigma1^2, sigma2^2, c12)`` after a transform of axis 0, ``analytic`` is
    ``i * c12 / sigma1**2``, and ``residual = |numeric - analytic|``.  The
    closed form of the functional is ``i * c12 / sigma2**2``, so the identity
    is exact for sigma1 == sigma2 and the residual reports the mismatch
    honestly otherwise.  The density is the amplitude
    ``gaussian_pointer(grid, 0.5 * cov)``, ``cov`` the inverse precision matrix,
    on a grid spanning 8 sd of the wider axis; the builder raises GridCoverage
    unless the grid also holds it in momentum.
    """
    check_width("sigma1", sigma1)
    check_width("sigma2", sigma2)
    if not np.isfinite(c12):
        raise InvalidParams(f"c12 must be finite, got {c12}")
    if not abs(c12) / sigma1 / sigma2 < 1:
        raise InvalidParams("exponent coefficients must define a positive-definite form")
    prec = np.array([[sigma1**2, c12], [c12, sigma2**2]])
    cov = np.linalg.inv(prec)
    extent = 8.0 * float(np.sqrt(np.max(np.diag(cov))))
    grid = Grid(points_per_axis=(256, 256), extent=(extent, extent))
    transformed = _axis_transform(gaussian_pointer(grid, 0.5 * cov).amplitudes, grid, 0)

    p1 = grid.axis_array(0, grid.momenta(0))
    q2 = grid.axis_array(1, grid.positions(1))
    total = np.sum(transformed)
    mean_p1 = np.sum(transformed * p1) / total
    mean_q2 = np.sum(transformed * q2) / total
    numeric = complex(np.sum(transformed * p1 * q2) / total - mean_p1 * mean_q2)
    analytic = 1j * c12 / sigma1**2
    return numeric, analytic, abs(numeric - analytic)
