"""Joint system (x) pointer evolution: von Neumann couplings and postselection.

Every evolution here is ``exp(-i * lambda * A (x) xi)`` with xi a position or
momentum quadrature of one pointer axis.  The quadrature is diagonal in its
own representation, so the evolution reduces to a pointwise d x d matrix
exponential over grid points; with a single coupling the observable is
diagonalized once and only phases touch the grid.

The first-order path, which the closed-form shift predictions assume, is
:func:`first_order_pointer`: it builds the postselected pointer from weak
values as ``1 - i sum_k lambda_k (A_k)_w xi_k`` and renormalizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NormalizationError,
    PostselectionFailed,
    RepresentationError,
)
from .pointer import (
    _NORM_TOL,
    Grid,
    PointerWavefunction,
    _apply_momentum,
    _axis_transform,
    _normalized,
    displace_momentum,
    to_position,
)
from .quantum import Observable, SystemState, eigendecompose, weak_value

_POSTSELECT_FLOOR = 1e-12


@dataclass(frozen=True)
class CouplingSpec:
    """One von Neumann interaction term ``strength * observable (x) quadrature``."""

    observable: Observable
    axis: int
    quadrature: str  # "q" | "p"
    strength: float

    def __post_init__(self):
        if self.quadrature not in ("q", "p"):
            raise ValueError(f"quadrature must be 'q' or 'p', got {self.quadrature!r}")
        if not np.isfinite(self.strength):
            raise ValueError("coupling strength must be finite")


class JointState:
    """System tensor pointer amplitudes, shape (d, *grid.shape)."""

    def __init__(self, grid: Grid, amplitudes: np.ndarray, reps: tuple[str, ...]):
        amps = np.array(amplitudes, dtype=complex)  # copy: frozen below
        if amps.ndim != grid.dims + 1 or amps.shape[1:] != grid.shape:
            raise DimensionError(
                f"joint amplitudes shape {amps.shape} incompatible with grid {grid.shape}"
            )
        if len(reps) != grid.dims:
            raise DimensionError("one representation tag per pointer axis required")
        self.grid = grid
        self.amplitudes = amps
        self.amplitudes.flags.writeable = False
        self.reps = tuple(reps)
        norm2 = self.norm_squared()
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise NormalizationError(f"joint state norm^2 = {norm2!r}, expected 1")

    @property
    def system_dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.cell_volume(self.reps))


def make_joint(system: SystemState, phi: PointerWavefunction) -> JointState:
    """Product state |system> (x) |phi>."""
    amps = system.amplitudes.reshape((system.dim,) + (1,) * phi.grid.dims) * phi.amplitudes
    return JointState(phi.grid, amps, (phi.representation,) * phi.grid.dims)


def _to_axis_rep(state: JointState, axis: int, rep: str) -> JointState:
    if state.reps[axis] == rep:
        return state
    amps = _axis_transform(state.amplitudes, state.grid, axis, forward=rep == "momentum")
    reps = list(state.reps)
    reps[axis] = rep
    return JointState(state.grid, amps, tuple(reps))


def _quadrature_values(grid: Grid, axis: int, quadrature: str) -> np.ndarray:
    vals = grid.positions(axis) if quadrature == "q" else grid.momenta(axis)
    return grid.axis_array(axis, vals)


def apply_couplings(state: JointState, specs: list[CouplingSpec]) -> JointState:
    """Evolve by ``exp(-i sum_k lambda_k A_k (x) xi_k)``.

    All specs in one call must use the same quadrature kind; the listed terms
    act simultaneously (they are summed in one exponent).
    """
    if not specs:
        return state
    quads = {s.quadrature for s in specs}
    if len(quads) > 1:
        raise RepresentationError("couplings in one application must share a quadrature")
    d = state.system_dim
    for s in specs:
        if s.observable.dim != d:
            raise DimensionError(f"observable dim {s.observable.dim} != system dim {d}")
        if not 0 <= s.axis < state.grid.dims:
            raise DimensionError(f"axis {s.axis} outside grid with {state.grid.dims} axes")
    quadrature = specs[0].quadrature
    rep = "position" if quadrature == "q" else "momentum"
    for s in specs:
        state = _to_axis_rep(state, s.axis, rep)
    live = [s for s in specs if s.strength != 0.0]
    if not live:
        return state
    amps = state.amplitudes
    if len(live) == 1:
        # Single observable: diagonalize once, apply pure phases per eigenline.
        s = live[0]
        spec_eig = eigendecompose(s.observable)
        v = spec_eig.eigenvectors
        rotated = np.einsum("ij,i...->j...", v.conj(), amps)
        xi = _quadrature_values(state.grid, s.axis, quadrature)
        eigcol = spec_eig.eigenvalues.reshape((d,) + (1,) * state.grid.dims)
        rotated = rotated * np.exp(-1j * s.strength * eigcol * xi)
        new = np.einsum("ij,j...->i...", v, rotated)
        return JointState(state.grid, new, state.reps)
    # General case: pointwise Hermitian generator, batched eigendecomposition.
    shape = state.grid.shape
    gen = np.zeros(shape + (d, d), dtype=complex)
    for s in live:
        xi = np.broadcast_to(_quadrature_values(state.grid, s.axis, quadrature), shape)
        gen = gen + s.strength * xi[..., None, None] * s.observable.matrix
    w, v = np.linalg.eigh(gen)
    vec = np.moveaxis(amps, 0, -1)
    rotated = np.einsum("...ij,...i->...j", v.conj(), vec) * np.exp(-1j * w)
    vec_new = np.einsum("...ij,...j->...i", v, rotated)
    new = np.moveaxis(vec_new, -1, 0)
    return JointState(state.grid, new, state.reps)


def strong_readout(state: JointState, observable: Observable, axis: int) -> JointState:
    """Unit-strength exact position coupling used as the projective readout."""
    spec = CouplingSpec(observable=observable, axis=axis, quadrature="q", strength=1.0)
    return apply_couplings(state, [spec])


def postselect(state: JointState, target: SystemState) -> tuple[PointerWavefunction, float]:
    """Project the system onto ``target``; return the renormalized pointer and
    the postselection probability."""
    if target.dim != state.system_dim:
        raise DimensionError(f"target dim {target.dim} != system dim {state.system_dim}")
    for axis in range(state.grid.dims):
        state = _to_axis_rep(state, axis, "position")
    pointer = np.einsum("a,a...->...", target.amplitudes.conj(), state.amplitudes)
    prob = float(np.sum(np.abs(pointer) ** 2) * state.grid.cell_volume(state.reps))
    if prob < _POSTSELECT_FLOOR:
        raise PostselectionFailed(f"postselection probability {prob:.3e} below 1e-12")
    return _normalized(state.grid, pointer), prob


def first_order_pointer(
    pre: SystemState,
    post: SystemState,
    specs: list[CouplingSpec],
    phi: PointerWavefunction,
    readout_axis: int | None = None,
    readout_eigenvalue: float = 0.0,
) -> PointerWavefunction:
    """Postselected pointer built directly from weak values.

    Applies the readout-axis momentum shift (when a strong readout is part of
    the pipeline), then ``1 - i sum_k lambda_k (A_k)_w xi_k``, then
    renormalizes.  Independent cross-check path against
    ``postselect(apply_couplings(...))``.
    """
    values = [weak_value(s.observable, pre, post) for s in specs]
    out = to_position(phi)
    if readout_axis is not None and readout_eigenvalue != 0.0:
        shifts = np.zeros(phi.grid.dims)
        shifts[readout_axis] = -readout_eigenvalue
        out = displace_momentum(out, shifts)
    amps = out.amplitudes
    delta = np.zeros_like(amps)
    for s, w in zip(specs, values):
        if s.strength == 0.0:
            continue
        if s.quadrature == "q":
            xi_amps = _quadrature_values(phi.grid, s.axis, "q") * amps
        else:
            xi_amps = _apply_momentum(amps, phi.grid, s.axis)
        delta = delta + (s.strength * w) * xi_amps
    return _normalized(phi.grid, amps - 1j * delta)
