"""Partial Fourier transform of a correlated Gaussian position density.

A position density ``f(q1, q2) ~ exp[-s1^2 q1^2 / 2 - s2^2 q2^2 / 2 - c q1 q2]``
(the coefficients are precision-matrix entries) acquires, after a partial
transform q1 -> p1, the phase ``exp[i (c/s1^2) p1 q2]``.  The formal moment
functional corr(p1, q2) of the transformed (complex) array is therefore
purely imaginary and proportional to the position correlation coefficient --
a nonzero q1-q2 correlation forces a nonzero p1-q2 correlation.

The transformed array is not a probability density; the functional here is a
ratio of Riemann sums, so any overall prefactor of the transform cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidParams, NormalizationError
from .pointer import Grid, PointerWavefunction, to_position

_MASS_TOL = 1e-8


@dataclass(frozen=True)
class DensityGrid:
    """Nonnegative real array over a 2-axis grid with unit mass."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.grid.dims != 2:
            raise DimensionError("density grids are 2-axis")
        if vals.shape != self.grid.shape:
            raise DimensionError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if np.min(vals) < -1e-12:
            raise NormalizationError("density has negative entries")
        mass = float(np.sum(vals) * self.grid.dq(0) * self.grid.dq(1))
        if abs(mass - 1.0) > _MASS_TOL:
            raise NormalizationError(f"density mass is {mass!r}, expected 1")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def density_from_wavefunction(phi: PointerWavefunction) -> DensityGrid:
    """Pointwise |phi|^2 in position space, renormalized to unit mass."""
    if phi.grid.dims != 2:
        raise DimensionError("density extraction needs a 2-axis pointer")
    pos = to_position(phi)
    vals = np.abs(pos.amplitudes) ** 2
    mass = np.sum(vals) * phi.grid.dq(0) * phi.grid.dq(1)
    return DensityGrid(grid=phi.grid, values=vals / mass)


def gaussian_density(grid: Grid, sigma1: float, sigma2: float, c12: float) -> DensityGrid:
    """Density with precision-matrix coefficients (sigma1^2, sigma2^2, c12)."""
    if sigma1 <= 0 or sigma2 <= 0:
        raise InvalidParams("sigma1 and sigma2 must be positive")
    if sigma1**2 * sigma2**2 <= c12**2:
        raise InvalidParams("exponent is not positive definite: need s1^2 s2^2 > c12^2")
    q1 = grid.axis_array(0, grid.positions(0))
    q2 = grid.axis_array(1, grid.positions(1))
    vals = np.exp(-0.5 * sigma1**2 * q1**2 - 0.5 * sigma2**2 * q2**2 - c12 * q1 * q2)
    mass = np.sum(vals) * grid.dq(0) * grid.dq(1)
    return DensityGrid(grid=grid, values=vals / mass)


def partial_fourier(f: DensityGrid, axis: int) -> np.ndarray:
    """``int exp(-i p q_axis) f dq_axis`` per remaining-axis sample.

    The output momentum samples along ``axis`` are ``f.grid.momenta(axis)``
    (FFT bin order); the other axis keeps its position samples.

    This is not the pointer module's unitary axis transform: the kernel has
    no ``1/sqrt(2 pi)``.  The prefactor cancels in the moment functional, but
    scaling by it moves the rounding, which changes the serialized residual of
    the Appendix-A check in its last digits.
    """
    if axis not in (0, 1):
        raise DimensionError(f"axis must be 0 or 1, got {axis}")
    grid = f.grid
    p = grid.momenta(axis)
    phase = grid.axis_array(axis, np.exp(1j * p * grid.extent[axis]))
    return grid.dq(axis) * phase * np.fft.fft(f.values, axis=axis)


def appendix_a_check(
    sigma1: float,
    sigma2: float,
    c12: float,
    points: int = 256,
) -> tuple[complex, complex, float]:
    """Evaluate the induced p1-q2 correlation identity on a grid.

    Returns ``(numeric, analytic, residual)`` where ``numeric`` is the formal
    moment functional of the partially transformed density, ``analytic`` is
    ``i * c12 / sigma1**2``, and ``residual = |numeric - analytic|``.  The
    closed form of the functional is ``i * c12 / sigma2**2``, so the identity
    is exact for sigma1 == sigma2 and the residual reports the mismatch
    honestly otherwise.
    """
    if sigma1 <= 0 or sigma2 <= 0 or sigma1**2 * sigma2**2 <= c12**2:
        raise InvalidParams("exponent coefficients must define a positive-definite form")
    prec = np.array([[sigma1**2, c12], [c12, sigma2**2]])
    cov = np.linalg.inv(prec)
    extent = 8.0 * float(np.sqrt(np.max(np.diag(cov))))
    grid = Grid(points_per_axis=(points, points), extent=(extent, extent))
    f = gaussian_density(grid, sigma1, sigma2, c12)
    transformed = partial_fourier(f, axis=0)

    p1 = grid.axis_array(0, grid.momenta(0))
    q2 = grid.axis_array(1, grid.positions(1))
    total = np.sum(transformed)
    mean_p1 = np.sum(transformed * p1) / total
    mean_q2 = np.sum(transformed * q2) / total
    numeric = complex(np.sum(transformed * p1 * q2) / total - mean_p1 * mean_q2)
    analytic = 1j * c12 / sigma1**2
    return numeric, analytic, abs(numeric - analytic)
