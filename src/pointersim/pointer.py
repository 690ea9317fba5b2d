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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    GridCoverage,
    InvalidCovariance,
    InvalidParams,
    NormalizationError,
)
from .quantum import is_hermitian

_NORM_TOL = 1e-8
# Grid cells per block of leading rows in the blockwise kernels (moments, the
# mass sums and the factor and coupling kernels): a block's intermediates (2**14
# complex values are 256 KiB) stay in cache from one operation to the next.
_BLOCK_CELLS = 2**14
_MAX_CELLS = 2**21  # the larger of auto_grid's caps, 128**3


@dataclass(frozen=True)
class Grid:
    """Rectangular D-axis grid, D in {1, 2, 3}, power-of-two points per axis,
    at most ``_MAX_CELLS`` cells."""

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
        if math.prod(pts) > _MAX_CELLS:
            raise DimensionError(f"{math.prod(pts)} grid cells exceed the limit of {_MAX_CELLS}")
        for L in ext:
            if not (L > 0 and np.isfinite(L)):
                raise DimensionError(f"extent must be positive and finite, got {L}")
        for rep in ("position", "momentum"):
            vol = self.cell_volume((rep,) * len(pts))
            if not np.finfo(float).tiny <= vol < math.inf:
                raise DimensionError(f"{rep} cell volume {vol:.3g} is not a finite float "
                                     ">= 2.2e-308")

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

    def half_width(self, axis: int, space: str) -> float:
        """``extent`` in position, ``pi/dq`` in momentum."""
        return self.extent[axis] if space == "position" else np.pi / self.dq(axis)

    def resolution_floor(self, axis: int, space: str) -> float:
        """``1e6 eps H``: rounding moves a mean by a few ``eps H`` (:func:`kick_gap`)."""
        return 1e6 * np.finfo(float).eps * self.half_width(axis, space)

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


def _axis_transform(arr: np.ndarray, grid: Grid, axis: int, forward: bool = True,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Unitary q -> p transform along pointer axis ``axis`` (kernel exp(-i p q)/sqrt(2 pi)),
    or its inverse when ``forward`` is false.

    The FFT runs on array axis ``axis - grid.dims``, so ``arr`` may carry
    leading axes (the system index of a joint state); the grid-shaped phase
    broadcasts against them by trailing alignment.  The result is written into
    ``out`` (a complex array of ``arr``'s shape, which may be ``arr`` itself)
    and returned; without ``out`` it is a fresh array and ``arr`` is left alone.
    """
    p = grid.momenta(axis)
    fft_axis = axis - grid.dims
    if forward:
        phase = grid.axis_array(axis, np.exp(1j * p * grid.extent[axis]))
        out = np.fft.fft(arr, axis=fft_axis, out=out)
        return np.multiply((grid.dq(axis) / np.sqrt(2.0 * np.pi)) * phase, out, out=out)
    n = grid.points_per_axis[axis]
    phase = grid.axis_array(axis, np.exp(-1j * p * grid.extent[axis]))
    out = np.multiply(phase, arr, out=out)
    np.fft.ifft(out, axis=fft_axis, out=out)
    return np.multiply(grid.dp(axis) * n / np.sqrt(2.0 * np.pi), out, out=out)


def coverage_gap(grid: Grid, std_q, std_p, offset_q=None, offset_p=None):
    """The one coverage rule: on every axis ``j`` the half-width, ``extent_j``
    in position and ``pi/dq_j`` in momentum, less ``|offset_j|`` (the mean,
    plus any kick the state will get; zero for None) must hold 6 marginal
    standard deviations, or the periodic grid wraps the state around.
    Returns None, or the first axis and space that fall short as
    ``(j, space, message)``, the message naming the 1-based axis."""
    for j in range(grid.dims):
        for space, std, offset in (("position", std_q, offset_q), ("momentum", std_p, offset_p)):
            half_width = grid.half_width(j, space)
            off = 0.0 if offset is None else abs(offset[j])
            if half_width - off < 6.0 * std[j]:
                return j, space, (f"axis {j + 1}: {space} half-width {half_width:.6g} less offset "
                                  f"{off:.6g} holds fewer than 6 marginal standard deviations "
                                  f"({std[j]:.6g})")
    return None


def kick_gap(grid: Grid, std_q, std_p, mean_q, mean_p, kicks):
    """The one kick rule, of document couplings and the entanglement probe.
    Each kick is ``(axis, quadrature, size)``: a q-coupling of strength lambda
    shifts an eigen-branch's momentum by ``-lambda a_k``, a p-coupling its
    position.  A nonzero kick below its space's :meth:`Grid.resolution_floor`
    is lost to rounding and fails first.  Else the kicks, summed per axis and
    space, join ``|mean|`` (per axis, or 0) in :func:`coverage_gap`'s offsets:
    past them the grid wraps the branch around and the measured shift is
    wrong with no other sign.  Returns None or ``(j, space, message)``."""
    totals = {"q": np.zeros(grid.dims), "p": np.zeros(grid.dims)}
    for axis, quadrature, size in kicks:
        space = "momentum" if quadrature == "q" else "position"
        floor = grid.resolution_floor(axis, space)
        if 0.0 < size < floor:
            return axis, space, (f"axis {axis + 1}: a {space} kick of {size:.6g} is below the "
                                 f"resolution floor {floor:.6g} (1e6 eps H)")
        totals[quadrature][axis] += size
    return coverage_gap(grid, std_q, std_p, np.abs(mean_q) + totals["p"],
                        np.abs(mean_p) + totals["q"])


class _GridState:
    """Normalized complex position-space amplitudes, shape
    ``(*leading, *grid.shape)`` with ``_LEADING`` leading axes.  The
    constructor copies the caller's array in C order, so later writes to it
    never reach the state and row blocks are contiguous; kernels hand over a
    fresh C-ordered array, or a pipeline step the buffer it wrote, through
    :meth:`_adopt`.  ``amplitudes`` is a read-only view of ``_buffer``, which
    stays writeable for that step.
    """

    _LEADING = 0

    def __init__(self, grid: Grid, amplitudes: np.ndarray):
        self._wrap(grid, np.array(amplitudes, dtype=complex, order="C"))

    @classmethod
    def _adopt(cls, grid: Grid, amps: np.ndarray):
        state = cls.__new__(cls)
        state._wrap(grid, amps)
        return state

    def _wrap(self, grid: Grid, amps: np.ndarray) -> None:
        if amps.shape[self._LEADING:] != grid.shape:
            raise DimensionError(f"amplitudes shape {amps.shape} does not fit grid {grid.shape}")
        self.grid, self._buffer = grid, amps
        self.amplitudes = amps.view()
        self.amplitudes.flags.writeable = False
        norm2 = self.norm_squared()
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise NormalizationError(f"norm^2 = {norm2!r}, expected 1")

    def norm_squared(self) -> float:
        return _sum_abs2(self.amplitudes) * self.grid.cell_volume(("position",) * self.grid.dims)


class PointerWavefunction(_GridState):
    """Complex position-space amplitudes over a grid (see :class:`_GridState`)."""


def _sum_abs2(amps: np.ndarray) -> float:
    """``sum |amps|^2`` as one real inner product over the float64 view, in
    memory order, so no copy; NaN and inf stay.  ``einsum`` keeps it off
    BLAS, whose idle threads would spin after it.  Norm checks only: routing
    :func:`_mass` through it moves four golden sweep slopes past 1e-12 and
    the reverse costs 4-7% of a benchmark op, so both stay (ROADMAP item 4)."""
    flat = amps.ravel(order="K").view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


def _block_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of one block of leading grid rows: ``_BLOCK_CELLS`` cells, at
    least one row, at most the whole grid."""
    rows = min(shape[0], max(1, _BLOCK_CELLS // math.prod(shape[1:])))
    return (rows,) + tuple(shape[1:])


def _row_blocks(shape: tuple[int, ...]) -> list[slice]:
    """Slices of leading grid rows, one per block.  Grid sizes are powers of
    two, so every block has :func:`_block_shape`."""
    rows = _block_shape(shape)[0]
    return [slice(start, start + rows) for start in range(0, shape[0], rows)]


def _block_coordinates(grid: Grid, samples):
    """``coords(j, blk)``: the axis-``j`` samples ``samples(j)`` (e.g.
    ``grid.positions``) over grid rows ``blk``, shaped to multiply a block
    buffer.  Axis 0 is a slice of its ``axis_array``.  Axes 1..D-1 vary the
    same way inside every block, so each is one contiguous array of
    :func:`_block_shape`, built once: a multiply by it runs as one flat loop
    over two contiguous operands instead of a short broadcast inner loop, and
    forms the same products."""
    block = _block_shape(grid.shape)
    first = grid.axis_array(0, samples(0))
    rest = [np.ascontiguousarray(np.broadcast_to(grid.axis_array(j, samples(j)), block))
            for j in range(1, grid.dims)]
    return lambda j, blk: rest[j - 1] if j else first[blk]


def _mass(amps: np.ndarray, vol: float) -> float:
    """``sum |amps|^2 * vol`` of a C-ordered grid array, its block sums added
    in row order; one real block buffer holds the squared moduli."""
    sq = np.empty(_block_shape(amps.shape))
    return sum(np.sum(np.square(np.abs(amps[blk], out=sq), out=sq))
               for blk in _row_blocks(amps.shape)) * vol


def _normalized(grid: Grid, amps: np.ndarray, mass: float | None = None) -> PointerWavefunction:
    """Divide ``amps`` in place by its norm and adopt it, so ``amps`` must be a
    fresh C-ordered complex array nothing else references.  ``mass`` is
    ``sum |amps|^2 * dvol`` when the caller has already computed it."""
    if mass is None:
        mass = _mass(amps, grid.cell_volume(("position",) * grid.dims))
    norm = np.sqrt(mass)
    if norm == 0.0 or not np.isfinite(norm):
        raise NormalizationError("cannot normalize: zero or non-finite norm")
    return PointerWavefunction._adopt(grid, np.divide(amps, norm, out=amps))


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


def check_gaussian_params(sigma: np.ndarray, theta: np.ndarray | None = None) -> None:
    """Raise InvalidCovariance unless ``sigma`` is nonempty, finite, symmetric
    (:func:`~pointersim.quantum.is_hermitian`) and positive definite, ``theta``
    (if given) is a finite symmetric matrix of the same shape, and the momentum
    spreads are finite.  NaN fails no ``>`` test, so finiteness is checked first."""
    if not sigma.size:
        raise InvalidCovariance("sigma is empty")
    if not all(np.all(np.isfinite(m)) for m in (sigma, theta) if m is not None):
        raise InvalidCovariance("sigma and theta must be finite")
    if not is_hermitian(sigma):
        raise InvalidCovariance("sigma is not symmetric")
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise InvalidCovariance("sigma is not positive definite") from None
    if theta is not None and (theta.shape != sigma.shape or not is_hermitian(theta)):
        raise InvalidCovariance("theta must be a symmetric DxD matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(gaussian_spreads(sigma, theta)[1])):
            raise InvalidCovariance("sigma^-1 / 4 + theta sigma theta overflows")


def gaussian_spreads(sigma, theta=None) -> tuple[np.ndarray, np.ndarray]:
    """Marginal position and momentum standard deviations of :func:`gaussian_pointer`:
    roots of the diagonals of ``sigma`` and of ``sigma^-1 / 4 + theta sigma theta``."""
    sig = np.asarray(sigma, dtype=float)
    th = np.zeros_like(sig) if theta is None else np.asarray(theta, dtype=float)
    return np.sqrt(np.diag(sig)), np.sqrt(np.diag(0.25 * np.linalg.inv(sig) + th @ sig @ th))


def check_width(name: str, width: float) -> None:
    """Raise InvalidParams naming ``name`` unless ``width`` is positive and its
    square a finite, nonzero float.  (``width**2`` of a Python float raises
    OverflowError past about 1.3e154, and underflows to 0 below 1e-162.)"""
    w = float(width)
    if not (w > 0 and 0.0 < w * w < math.inf):
        raise InvalidParams(f"{name} must be positive and finite, with a finite nonzero "
                            f"square, got {width}")


def lg_spreads(l: int, sigma: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-axis marginal position and momentum standard deviations of :func:`lg_mode`,
    ``sigma sqrt(1 + |l|)`` and ``sqrt(1 + |l|) / (2 sigma)``, for a ``sigma``
    that passes :func:`check_width` and whose 8-sd extent has a finite square."""
    check_width("sigma", sigma)
    std_q, std_p = sigma * np.sqrt(1.0 + abs(l)), np.sqrt(1.0 + abs(l)) / (2.0 * sigma)
    extent = 8.0 * float(std_q)
    if not extent * extent < math.inf:
        raise InvalidParams(f"sigma = {sigma} is too wide for l = {l}: 8-sd extent squares to inf")
    return (std_q, std_q), (std_p, std_p)


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
    mu = np.zeros(d) if mean_q is None else np.asarray(mean_q, dtype=float)
    p0 = np.zeros(d) if mean_p is None else np.asarray(mean_p, dtype=float)
    th = np.zeros((d, d)) if theta is None else np.asarray(theta, dtype=float)
    if mu.shape != (d,) or p0.shape != (d,):
        raise DimensionError("mean_q/mean_p must be length-D vectors")
    check_gaussian_params(sig, th)
    gap = coverage_gap(grid, *gaussian_spreads(sig, th), mu, p0)
    if gap:
        raise GridCoverage(gap[2])
    sig_inv = np.linalg.inv(sig)
    centered = [grid.axis_array(j, grid.positions(j) - mu[j]) for j in range(d)]
    exponent = np.zeros(grid.shape, dtype=complex)
    for i in range(d):
        for j in range(d):
            coeff = -0.25 * sig_inv[i, j] + 0.5j * th[i, j]
            if coeff != 0:
                exponent += coeff * (centered[i] * centered[j])
    for j in range(d):
        if p0[j] != 0:
            exponent += 1j * p0[j] * grid.axis_array(j, grid.positions(j))
    return _normalized(grid, np.exp(exponent, out=exponent))


def lg_mode(grid: Grid, l: int, sigma: float) -> PointerWavefunction:
    """Two-axis optical vortex mode with orbital angular momentum ``l``.

    Amplitude proportional to ``(x + i sgn(l) y)^|l| exp[-(x^2+y^2)/4 sigma^2]``,
    normalized on the grid.  It is built in units of ``sigma``, so its mass
    stays finite and nonzero at any width.  Its marginal spreads
    (:func:`lg_spreads`) fix the coverage requirement.
    """
    if grid.dims != 2:
        raise DimensionError(f"vortex modes need a 2-axis grid, got {grid.dims}")
    gap = coverage_gap(grid, *lg_spreads(l, sigma))
    if gap:
        raise GridCoverage(gap[2])
    x = grid.axis_array(0, grid.positions(0) / sigma)
    y = grid.axis_array(1, grid.positions(1) / sigma)
    envelope = np.exp(-(x**2 + y**2) / 4.0)
    amps = (x + 1j * np.sign(l) * y) ** abs(l) * envelope
    return _normalized(grid, amps)


def _multiply_factors(phi: PointerWavefunction, terms) -> np.ndarray:
    """``phi``'s amplitudes times ``prod exp(i k xi)(1 + g xi)`` over ``terms``
    ``(axis, quadrature, k, g)``, finite k and g, in a fresh C-ordered array:
    the q factors in position, then the p factors on the p terms' axes,
    transformed in place and back.  Per row block, ``exp(1j * sum k xi)``
    times each ``1 + g xi`` times the amplitudes is formed in the output's
    rows, or in a block buffer when they are its source.  k = g = 0 is skipped."""
    grid, block = phi.grid, _block_shape(phi.grid.shape)
    for axis, _quadrature, k, g in terms:
        if not 0 <= axis < grid.dims:
            raise DimensionError(f"axis {axis} outside grid with {grid.dims} axes")
        if not (math.isfinite(k) and math.isfinite(g)):
            raise InvalidParams(f"axis {axis + 1}: a pointer factor needs finite k and g, "
                                f"got k = {k}, g = {g}")

    def factor_pass(live, samples, src, out):
        coords = _block_coordinates(grid, samples)
        phase, x = np.empty(block), np.empty(block)
        buf = np.empty(block, dtype=complex) if src is out else None
        for blk in _row_blocks(grid.shape):
            phase.fill(0.0)
            for axis, k, _g in live:
                if k:
                    np.add(phase, np.multiply(k, coords(axis, blk), out=x), out=phase)
            factor = np.multiply(1j, phase, out=out[blk] if buf is None else buf)
            np.exp(factor, out=factor)
            for axis, _k, g in live:
                if g:
                    gain = np.add(1.0, np.multiply(g, coords(axis, blk), out=x), out=x)
                    np.multiply(factor, gain, out=factor)
            np.multiply(factor, src[blk], out=out[blk])

    q, p = ([(axis, k, g) for axis, quadrature, k, g in terms if quadrature == want and (k or g)]
            for want in ("q", "p"))
    out, src = np.empty(grid.shape, dtype=complex), phi.amplitudes
    if q or not p:
        factor_pass(q, grid.positions, src, out)
        src = out
    p_axes = sorted({axis for axis, _k, _g in p})
    for axis in p_axes:
        src = _axis_transform(src, grid, axis, out=out)
    if p:
        factor_pass(p, grid.momenta, out, out)
    for axis in p_axes:
        _axis_transform(out, grid, axis, forward=False, out=out)
    return out


def displace_momentum(phi: PointerWavefunction, shifts) -> PointerWavefunction:
    """Translate the momentum distribution by ``shifts`` (one entry per axis).

    Realized as multiplication by ``exp(i sum_j shifts_j q_j)`` in position
    space, a q term per axis of :func:`_multiply_factors`; exact on-grid when
    each shift is an integer multiple of dp.  The position distribution is
    untouched.  A non-finite shift raises InvalidParams.
    """
    sh = np.asarray(shifts, dtype=float)
    if sh.shape != (phi.grid.dims,):
        raise DimensionError(f"need {phi.grid.dims} shifts, got shape {sh.shape}")
    terms = [(j, "q", shift, 0.0) for j, shift in enumerate(sh)]
    return PointerWavefunction._adopt(phi.grid, _multiply_factors(phi, terms))


def _second_moments(shape: tuple[int, ...], blocks, pairs, xs, ys) -> dict:
    """``{(i, j): x_i^T M_ij y_j}`` for axis pairs ``i <= j`` of a grid array of
    ``shape`` given as ``(rows, block)`` in row order, M_ij its marginal on
    axes i and j (on axis i when i == j: ``sum M_ii x_i y_i``).  Each block
    adds its share of ``M_ij y_j`` to a vector on axis i by ``einsum``, off
    BLAS (:func:`_sum_abs2`); the last sum, over a whole axis, is pairwise."""
    sums = {pair: np.zeros(shape[pair[0]]) for pair in pairs}
    for blk, block in blocks:
        for (i, j), v in sums.items():
            weight = (ys[j], [j]) if i < j else ()
            v[blk if i == 0 else ...] += np.einsum(block, range(block.ndim), *weight, [i])
    return {(i, j): float(np.add.reduce(v * xs[i] * (1.0 if i < j else ys[i])))
            for (i, j), v in sums.items()}


def _mass_mean_cov(amps: np.ndarray, grid: Grid, space: str, cov: bool):
    """``(mass, mean, covariance)`` of the density ``rho = |amps|^2 * dvol``
    in ``space``; the covariance is None unless ``cov``.  Per block: sum rho,
    then for each axis i sum rho * x_i, each quantity's block sums added in
    row order; with ``cov`` the blocks also go to :func:`_second_moments`."""
    shape, d = amps.shape, amps.ndim
    samples = grid.positions if space == "position" else grid.momenta
    coords, xs = _block_coordinates(grid, samples), [samples(j) for j in range(d)]
    vol = grid.cell_volume((space,) * d)
    rho, w = (np.empty(_block_shape(shape)) for _ in range(2))
    rows, raw = [], np.zeros((d, d))

    def densities():
        for blk in _row_blocks(shape):
            np.multiply(np.square(np.abs(amps[blk], out=rho), out=rho), vol, out=rho)
            rows.append(np.array([np.add.reduce(rho, axis=None)] + [
                np.add.reduce(np.multiply(rho, coords(i, blk), out=w), axis=None)
                for i in range(d)]))
            yield blk, rho
    pairs = [(i, j) for i in range(d) for j in range(i, d)] if cov else []
    # An invalid product needs a non-finite density, which fails the mass
    # check right after this pass, so it need not warn first.
    with np.errstate(invalid="ignore"):
        for (i, j), r in _second_moments(shape, densities(), pairs, xs, xs).items():
            raw[i, j] = raw[j, i] = r
        sums = sum(rows)
    return float(sums[0]), sums[1:], (raw - np.outer(sums[1:], sums[1:]) if cov else None)


def _diagonal_moments(phi: PointerWavefunction, cov: bool):
    """The position and momentum passes shared by :func:`moments` and
    :func:`means`: ``(mean_q, mean_p, cov_qq, cov_pp, psi_p)``, the
    covariances None unless ``cov``.  ``psi_p``, the momentum amplitudes from
    D axis transforms, is a fresh array the caller may reuse as scratch.
    Both densities must integrate to 1."""
    grid, psi_q = phi.grid, phi.amplitudes
    norm_q, mean_q, cov_qq = _mass_mean_cov(psi_q, grid, "position", cov)
    if not abs(norm_q - 1.0) <= _NORM_TOL:
        raise NormalizationError("moments need a normalized wavefunction")
    psi_p = _axis_transform(psi_q, grid, 0, out=np.empty_like(psi_q))
    for axis in range(1, grid.dims):
        psi_p = _axis_transform(psi_p, grid, axis, out=psi_p)
    norm_p, mean_p, cov_pp = _mass_mean_cov(psi_p, grid, "momentum", cov)
    if not abs(norm_p - 1.0) <= _NORM_TOL:
        raise NormalizationError(f"momentum density integrates to {norm_p!r}, expected 1")
    return mean_q, mean_p, cov_qq, cov_pp, psi_p


def means(phi: PointerWavefunction) -> tuple[np.ndarray, np.ndarray]:
    """``(mean_q, mean_p)`` of a normalized pointer state, bit for bit those
    of :func:`moments`, from D axis transforms instead of 4*D: the position
    and momentum passes without the covariance products.  For callers that
    read only the mean shifts."""
    mean_q, mean_p, *_ = _diagonal_moments(phi, cov=False)
    mean_q.flags.writeable = mean_p.flags.writeable = False
    return mean_q, mean_p


def moments(phi: PointerWavefunction) -> MomentSet:
    """Means and all covariance blocks of a normalized pointer state.

    mean_q / cov_qq come from position-space quadrature, mean_p / cov_pp from
    momentum space, the cov_qp off-diagonals from the mixed representation
    where both operators are diagonal, and the cov_qp diagonal from the
    symmetrized same-axis product ``Re(conj psi * p_j psi)``.  :func:`means`
    runs the first two passes alone.

    Budget: 4*D axis transforms per call (D for momentum space, D for the
    mixed representations, 2*D for the same-axis products).  Taking the
    same-axis products from the mixed representations would need 3*D; that
    waits on ROADMAP item 1, which re-baselines the traced FFT counts.  The
    transforms all write into one complex scratch array the size of the state.
    Every other pass streams the state once, one block of leading rows at a
    time, onto sums (the mass and means) and axis-pair marginals (every
    second moment, :func:`_second_moments`).  So the other scratch is a few
    block buffers, the means' coordinate blocks and one vector per axis pair:
    about one pointer plus blocks in all.
    """
    grid, psi_q = phi.grid, phi.amplitudes
    d, shape = grid.dims, grid.shape
    mean_q, mean_p, cov_qq, cov_pp, scratch = _diagonal_moments(phi, cov=True)
    qs = [grid.positions(j) for j in range(d)]
    rho = np.empty(_block_shape(shape))
    buf = np.empty(rho.shape[:-1] + (2 * rho.shape[-1],))

    def cells(a, b, vol):
        """``(rows, Re(conj a * b) * vol)`` per block: the float views'
        product (``a`` scaled first, so no overflow) summed over re/im pairs."""
        for blk in _row_blocks(shape):
            f = np.multiply(a[blk].view(np.float64), vol, out=buf)
            np.multiply(f, b[blk].view(np.float64), out=f)
            yield blk, np.add(f[..., 0::2], f[..., 1::2], out=rho)

    cov_qp = np.zeros((d, d))
    for m in range(d):
        # Mixed representation: axis m in momentum, the rest in position.
        mixed = _axis_transform(psi_q, grid, m, out=scratch)
        xs = [grid.momenta(m) if k == m else qs[k] for k in range(d)]
        pairs = [(min(j, m), max(j, m)) for j in range(d) if j != m]
        vol = grid.cell_volume(tuple("momentum" if k == m else "position" for k in range(d)))
        blocks = cells(mixed, mixed, vol)
        for (i, j), raw in _second_moments(shape, blocks, pairs, xs, xs).items():
            cov_qp[i + j - m, m] = raw - mean_q[i + j - m] * mean_p[m]
    # Same axis: <q p> is complex with Im = 1/2; keep the symmetrized part.
    dvol = grid.cell_volume(("position",) * d)
    for j in range(d):
        p_psi = _axis_transform(psi_q, grid, j, out=scratch)
        np.multiply(grid.axis_array(j, grid.momenta(j)), p_psi, out=p_psi)
        p_psi = _axis_transform(p_psi, grid, j, forward=False, out=p_psi)
        blocks = cells(psi_q, p_psi, dvol)
        raw = _second_moments(shape, blocks, [(j, j)], qs, [1.0] * d)[j, j]
        cov_qp[j, j] = raw - mean_q[j] * mean_p[j]

    for arr in (mean_q, mean_p, cov_qq, cov_qp, cov_pp):
        arr.flags.writeable = False
    return MomentSet(mean_q=mean_q, mean_p=mean_p, cov_qq=cov_qq, cov_qp=cov_qp, cov_pp=cov_pp)


def auto_grid(std_q, std_p, mean_q, mean_p) -> Grid:
    """Default grid for a state with the given per-axis spreads and means
    (None for zero means).

    The common extent is 8 * max(std_q) + max(|mean_q|).  1- and 2-axis grids
    start at 256 points per axis, 3-axis grids at 64, and the count doubles
    while :func:`coverage_gap` finds one (the extent holds position, so the
    gap is in momentum), up to 1024 points per axis (128 on 3 axes).  A state
    that needs more gets the capped grid, which the builder then rejects.
    """
    std_q, std_p = (np.atleast_1d(np.asarray(s, dtype=float)) for s in (std_q, std_p))
    dims = len(std_q)
    points, cap = (256, 1024) if dims <= 2 else (64, 128)
    L = 8.0 * float(np.max(std_q)) + (0.0 if mean_q is None else float(np.max(np.abs(mean_q))))
    grid = Grid(points_per_axis=(points,) * dims, extent=(L,) * dims)
    while points < cap and coverage_gap(grid, std_q, std_p, mean_q, mean_p):
        points *= 2
        grid = Grid(points_per_axis=(points,) * dims, extent=(L,) * dims)
    return grid
