"""Discretized multimode pointer wavefunctions on rectangular grids.

Conventions (hbar = 1 throughout):

* Position samples per axis: ``q_k = -L + k*dq`` with ``dq = 2L/N``.
* Momentum samples are the discrete Fourier duals ``p = 2*pi*fftfreq(N, dq)``
  so that ``dq * dp * N = 2*pi`` per axis.
* Position -> momentum transform uses the kernel ``exp(-i p q) / sqrt(2*pi)``
  per axis; the discretized pair is exactly unitary (Parseval holds to
  machine precision).

All quadrature integrals are plain Riemann sums, which are spectrally
accurate for smooth decaying states on a periodic grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    GridCoverage,
    InvalidCovariance,
    NormalizationError,
)

_NORM_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    """Rectangular D-axis grid, D in {1, 2, 3}, power-of-two points per axis."""

    points_per_axis: tuple[int, ...]
    extent: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(int(n) for n in self.points_per_axis)
        ext = tuple(float(L) for L in self.extent)
        object.__setattr__(self, "points_per_axis", pts)
        object.__setattr__(self, "extent", ext)
        if not 1 <= len(pts) <= 3:
            raise DimensionError(f"grid must have 1-3 axes, got {len(pts)}")
        if len(ext) != len(pts):
            raise DimensionError("points_per_axis and extent lengths differ")
        for n in pts:
            if n < 32 or n & (n - 1):
                raise DimensionError(f"points per axis must be a power of two >= 32, got {n}")
        for L in ext:
            if not (L > 0 and np.isfinite(L)):
                raise DimensionError(f"extent must be positive and finite, got {L}")

    @property
    def dims(self) -> int:
        return len(self.points_per_axis)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points_per_axis

    def dq(self, axis: int) -> float:
        return 2.0 * self.extent[axis] / self.points_per_axis[axis]

    def dp(self, axis: int) -> float:
        return 2.0 * np.pi / (self.points_per_axis[axis] * self.dq(axis))

    def positions(self, axis: int) -> np.ndarray:
        n = self.points_per_axis[axis]
        return -self.extent[axis] + self.dq(axis) * np.arange(n)

    def momenta(self, axis: int) -> np.ndarray:
        """Momentum samples in FFT bin order."""
        n = self.points_per_axis[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.dq(axis))

    def axis_array(self, axis: int, values: np.ndarray) -> np.ndarray:
        """Reshape a per-axis 1D sample array for broadcasting over the grid."""
        shape = [1] * self.dims
        shape[axis] = self.points_per_axis[axis]
        return values.reshape(shape)

    def cell_volume(self, reps: tuple[str, ...]) -> float:
        vol = 1.0
        for j, rep in enumerate(reps):
            vol *= self.dq(j) if rep == "position" else self.dp(j)
        return vol


def _axis_transform(arr: np.ndarray, grid: Grid, axis: int, forward: bool = True) -> np.ndarray:
    """Unitary q -> p transform along pointer axis ``axis`` (kernel exp(-i p q)/sqrt(2 pi)),
    or its inverse when ``forward`` is false.

    The FFT runs on array axis ``axis - grid.dims``, so ``arr`` may carry
    leading axes (the system index of a joint state); the grid-shaped phase
    broadcasts against them by trailing alignment.
    """
    p = grid.momenta(axis)
    fft_axis = axis - grid.dims
    if forward:
        phase = grid.axis_array(axis, np.exp(1j * p * grid.extent[axis]))
        return (grid.dq(axis) / np.sqrt(2.0 * np.pi)) * phase * np.fft.fft(arr, axis=fft_axis)
    n = grid.points_per_axis[axis]
    phase = grid.axis_array(axis, np.exp(-1j * p * grid.extent[axis]))
    return (grid.dp(axis) * n / np.sqrt(2.0 * np.pi)) * np.fft.ifft(phase * arr, axis=fft_axis)


def _apply_momentum(arr: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """``p_axis`` applied to position-space amplitudes: transform, multiply, transform back."""
    p = grid.axis_array(axis, grid.momenta(axis))
    return _axis_transform(p * _axis_transform(arr, grid, axis), grid, axis, forward=False)


def _check_coverage(grid: Grid, stds, means) -> None:
    """Raise GridCoverage unless every axis holds 6 standard deviations around its mean."""
    for j in range(grid.dims):
        if grid.extent[j] - abs(means[j]) < 6.0 * stds[j]:
            raise GridCoverage(
                f"axis {j}: extent {grid.extent[j]} covers fewer than 6 marginal "
                f"standard deviations around the mean"
            )


class PointerWavefunction:
    """Complex amplitudes over a grid, tagged position or momentum."""

    def __init__(self, grid: Grid, amplitudes: np.ndarray, representation: str = "position"):
        if representation not in ("position", "momentum"):
            raise ValueError(f"unknown representation {representation!r}")
        amps = np.array(amplitudes, dtype=complex)  # copy: frozen below
        if amps.shape != grid.shape:
            raise DimensionError(f"amplitudes shape {amps.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.representation = representation
        self.amplitudes = amps
        self.amplitudes.flags.writeable = False
        norm2 = self.norm_squared()
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise NormalizationError(f"|psi|^2 integrates to {norm2!r}, expected 1")

    def _dvol(self) -> float:
        reps = (self.representation,) * self.grid.dims
        return self.grid.cell_volume(reps)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self._dvol())


def _normalized(grid: Grid, amps: np.ndarray, representation: str = "position") -> PointerWavefunction:
    reps = (representation,) * grid.dims
    norm = np.sqrt(np.sum(np.abs(amps) ** 2) * grid.cell_volume(reps))
    if norm == 0.0 or not np.isfinite(norm):
        raise NormalizationError("cannot normalize: zero or non-finite norm")
    return PointerWavefunction(grid, amps / norm, representation)


@dataclass(frozen=True)
class MomentSet:
    """First and second quadrature moments of a pointer state.

    ``cov_qp[l, m]`` is ``corr(q_l, p_m)``.  Off-diagonal entries are plain
    products (q_l and p_m commute for l != m); the diagonal is the
    symmetrized ``Re<q p> - <q><p>``.
    """

    mean_q: np.ndarray
    mean_p: np.ndarray
    cov_qq: np.ndarray
    cov_qp: np.ndarray
    cov_pp: np.ndarray


def to_momentum(phi: PointerWavefunction) -> PointerWavefunction:
    """Full transform into the momentum representation (no-op if already there)."""
    if phi.representation == "momentum":
        return phi
    amps = phi.amplitudes
    for axis in range(phi.grid.dims):
        amps = _axis_transform(amps, phi.grid, axis)
    return PointerWavefunction(phi.grid, amps, "momentum")


def to_position(phi: PointerWavefunction) -> PointerWavefunction:
    """Full transform into the position representation (no-op if already there)."""
    if phi.representation == "position":
        return phi
    amps = phi.amplitudes
    for axis in range(phi.grid.dims):
        amps = _axis_transform(amps, phi.grid, axis, forward=False)
    return PointerWavefunction(phi.grid, amps, "position")


def gaussian_pointer(
    grid: Grid,
    sigma: np.ndarray,
    mean_q: np.ndarray | None = None,
    mean_p: np.ndarray | None = None,
    theta: np.ndarray | None = None,
) -> PointerWavefunction:
    """Correlated Gaussian pointer state.

    Amplitude is proportional to::

        exp[ -1/4 (q-mu)^T Sigma^-1 (q-mu) + i/2 (q-mu)^T Theta (q-mu) + i p0.q ]

    so the position covariance of ``|phi|^2`` equals ``sigma``, the momentum
    means equal ``mean_p``, and the q-p cross covariance equals
    ``sigma @ theta`` (zero for a real Gaussian, theta = 0).  ``theta`` is the
    knob for preparing states with nonzero corr(q, p).
    """
    d = grid.dims
    sig = np.asarray(sigma, dtype=float)
    if sig.shape != (d, d):
        raise DimensionError(f"sigma shape {sig.shape} does not match grid dims {d}")
    if np.max(np.abs(sig - sig.T)) > 1e-12:
        raise InvalidCovariance("sigma is not symmetric")
    try:
        np.linalg.cholesky(sig)
    except np.linalg.LinAlgError:
        raise InvalidCovariance("sigma is not positive definite") from None
    mu = np.zeros(d) if mean_q is None else np.asarray(mean_q, dtype=float)
    p0 = np.zeros(d) if mean_p is None else np.asarray(mean_p, dtype=float)
    th = np.zeros((d, d)) if theta is None else np.asarray(theta, dtype=float)
    if mu.shape != (d,) or p0.shape != (d,):
        raise DimensionError("mean_q/mean_p must be length-D vectors")
    if th.shape != (d, d) or np.max(np.abs(th - th.T)) > 1e-12:
        raise InvalidCovariance("theta must be a symmetric DxD matrix")
    _check_coverage(grid, np.sqrt(np.diag(sig)), mu)
    sig_inv = np.linalg.inv(sig)
    centered = [grid.axis_array(j, grid.positions(j) - mu[j]) for j in range(d)]
    exponent = np.zeros(grid.shape, dtype=complex)
    for i in range(d):
        for j in range(d):
            coeff = -0.25 * sig_inv[i, j] + 0.5j * th[i, j]
            if coeff != 0:
                exponent = exponent + coeff * (centered[i] * centered[j])
    for j in range(d):
        if p0[j] != 0:
            exponent = exponent + 1j * p0[j] * grid.axis_array(j, grid.positions(j))
    return _normalized(grid, np.exp(exponent))


def lg_mode(grid: Grid, l: int, sigma: float) -> PointerWavefunction:
    """Two-axis optical vortex mode with orbital angular momentum ``l``.

    Amplitude proportional to ``(x + i sgn(l) y)^|l| exp[-(x^2+y^2)/4 sigma^2]``,
    normalized on the grid.  The marginal position variance is
    ``sigma^2 (1 + |l|)``, which fixes the coverage requirement.
    """
    if grid.dims != 2:
        raise DimensionError(f"vortex modes need a 2-axis grid, got {grid.dims}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    std = sigma * np.sqrt(1.0 + abs(l))
    _check_coverage(grid, (std, std), (0.0, 0.0))
    x = grid.axis_array(0, grid.positions(0))
    y = grid.axis_array(1, grid.positions(1))
    envelope = np.exp(-(x**2 + y**2) / (4.0 * sigma**2))
    if l == 0:
        amps = envelope.astype(complex)
    else:
        amps = (x + 1j * np.sign(l) * y) ** abs(l) * envelope
    return _normalized(grid, amps)


def displace_momentum(phi: PointerWavefunction, shifts) -> PointerWavefunction:
    """Translate the momentum distribution by ``shifts`` (one entry per axis).

    Realized as multiplication by ``exp(i sum_j shifts_j q_j)`` in position
    space; exact on-grid when each shift is an integer multiple of dp.  The
    position distribution is untouched.
    """
    pos = to_position(phi)
    sh = np.asarray(shifts, dtype=float)
    if sh.shape != (phi.grid.dims,):
        raise DimensionError(f"need {phi.grid.dims} shifts, got shape {sh.shape}")
    phase = np.zeros(phi.grid.shape)
    for j in range(phi.grid.dims):
        if sh[j] != 0:
            phase = phase + sh[j] * phi.grid.axis_array(j, phi.grid.positions(j))
    return PointerWavefunction(phi.grid, pos.amplitudes * np.exp(1j * phase), "position")


def moments(phi: PointerWavefunction) -> MomentSet:
    """Means and all covariance blocks of a normalized pointer state.

    mean_q / cov_qq come from position-space quadrature, mean_p / cov_pp from
    momentum space, the cov_qp off-diagonals from the mixed representation
    where both operators are diagonal, and the cov_qp diagonal from the
    symmetrized same-axis product.
    """
    if abs(phi.norm_squared() - 1.0) > _NORM_TOL:
        raise NormalizationError("moments need a normalized wavefunction")
    grid = phi.grid
    d = grid.dims
    psi_q = to_position(phi).amplitudes
    psi_p = to_momentum(phi).amplitudes

    dvol_q = grid.cell_volume(("position",) * d)
    dvol_p = grid.cell_volume(("momentum",) * d)
    rho_q = (np.abs(psi_q) ** 2) * dvol_q
    rho_p = (np.abs(psi_p) ** 2) * dvol_p
    qs = [grid.axis_array(j, grid.positions(j)) for j in range(d)]
    ps = [grid.axis_array(j, grid.momenta(j)) for j in range(d)]

    mean_q = np.array([float(np.sum(rho_q * qs[j])) for j in range(d)])
    mean_p = np.array([float(np.sum(rho_p * ps[j])) for j in range(d)])

    cov_qq = np.zeros((d, d))
    cov_pp = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            cov_qq[i, j] = cov_qq[j, i] = float(np.sum(rho_q * qs[i] * qs[j])) - mean_q[i] * mean_q[j]
            cov_pp[i, j] = cov_pp[j, i] = float(np.sum(rho_p * ps[i] * ps[j])) - mean_p[i] * mean_p[j]

    cov_qp = np.zeros((d, d))
    for m in range(d):
        # Mixed representation: axis m in momentum, the rest in position.
        psi_mix = _axis_transform(psi_q, grid, m)
        reps = ["position"] * d
        reps[m] = "momentum"
        rho_mix = (np.abs(psi_mix) ** 2) * grid.cell_volume(tuple(reps))
        for q_axis in range(d):
            if q_axis == m:
                continue
            raw = float(np.sum(rho_mix * qs[q_axis] * ps[m]))
            cov_qp[q_axis, m] = raw - mean_q[q_axis] * mean_p[m]
    for j in range(d):
        # Same axis: <q p> is complex with Im = 1/2; keep the symmetrized part.
        p_psi = _apply_momentum(psi_q, grid, j)
        raw = complex(np.sum(np.conj(psi_q) * qs[j] * p_psi) * dvol_q)
        cov_qp[j, j] = raw.real - mean_q[j] * mean_p[j]

    for arr in (mean_q, mean_p, cov_qq, cov_qp, cov_pp):
        arr.flags.writeable = False
    return MomentSet(mean_q=mean_q, mean_p=mean_p, cov_qq=cov_qq, cov_qp=cov_qp, cov_pp=cov_pp)


def auto_grid(dims: int, stds, means=None, points: int | None = None) -> Grid:
    """Default grid for a state with the given per-axis spreads and means.

    2-axis grids get 256 points per axis, 3-axis grids 64; the common extent
    is 8 * max(std) + max(|mean|).
    """
    stds = np.atleast_1d(np.asarray(stds, dtype=float))
    mu = np.zeros(dims) if means is None else np.abs(np.asarray(means, dtype=float))
    if points is None:
        points = 256 if dims <= 2 else 64
    L = 8.0 * float(np.max(stds)) + float(np.max(mu))
    return Grid(points_per_axis=(points,) * dims, extent=(L,) * dims)
