"""Joint system (x) pointer evolution: von Neumann couplings and postselection.

Every evolution here is ``exp(-i * lambda * A (x) xi)`` with xi a position or
momentum quadrature of one pointer axis.  The quadrature is diagonal in its
own representation, so the evolution reduces to a pointwise d x d matrix
exponential over grid points; with a single coupling the observable is
diagonalized once and only phases touch the grid.

Every caller runs the exact pipeline through :func:`evolve`.  The first-order
path, which the closed-form shift predictions assume, is
:func:`first_order_pointer`: it builds the postselected pointer from weak
values as ``1 - i sum_k lambda_k (A_k)_w xi_k`` and renormalizes.
"""

from __future__ import annotations

import math
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
    _sum_abs2,
    displace_momentum,
)
from .quantum import Observable, SystemState, eigendecompose, weak_value

_POSTSELECT_FLOOR = 1e-12
# Grid cells per block in the single-observable branch of apply_couplings:
# a block's rotated amplitudes (d * 2**14 complex values, 0.5 MiB at d = 2)
# stay in cache from the rotation through the phase to the rotation back.
_BLOCK_CELLS = 2**14


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
    """System tensor pointer amplitudes, shape (d, *grid.shape).

    The constructor copies the caller's array, so later writes to it never
    reach the state; the kernels hand over arrays they have just built through
    :meth:`_adopt` instead.  ``amplitudes`` is read-only either way.
    """

    def __init__(self, grid: Grid, amplitudes: np.ndarray, reps: tuple[str, ...]):
        self._wrap(grid, np.array(amplitudes, dtype=complex), reps)

    @classmethod
    def _adopt(cls, grid: Grid, amps: np.ndarray, reps: tuple[str, ...]) -> JointState:
        """Wrap ``amps``, a fresh complex array nothing else references, without a copy."""
        state = cls.__new__(cls)
        state._wrap(grid, amps, reps)
        return state

    def _wrap(self, grid: Grid, amps: np.ndarray, reps: tuple[str, ...]) -> None:
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
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise NormalizationError(f"joint state norm^2 = {norm2!r}, expected 1")

    @property
    def system_dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm_squared(self) -> float:
        return _sum_abs2(self.amplitudes) * self.grid.cell_volume(self.reps)


def make_joint(system: SystemState, phi: PointerWavefunction) -> JointState:
    """Product state |system> (x) |phi>."""
    amps = system.amplitudes.reshape((system.dim,) + (1,) * phi.grid.dims) * phi.amplitudes
    return JointState._adopt(phi.grid, amps, ("position",) * phi.grid.dims)


def _to_axis_rep(state: JointState, axis: int, rep: str) -> JointState:
    if state.reps[axis] == rep:
        return state
    amps = _axis_transform(state.amplitudes, state.grid, axis, forward=rep == "momentum")
    reps = list(state.reps)
    reps[axis] = rep
    return JointState._adopt(state.grid, amps, tuple(reps))


def _quadrature_values(grid: Grid, axis: int, quadrature: str) -> np.ndarray:
    vals = grid.positions(axis) if quadrature == "q" else grid.momenta(axis)
    return grid.axis_array(axis, vals)


def apply_couplings(state: JointState, specs: list[CouplingSpec]) -> JointState:
    """Evolve by ``exp(-i sum_k lambda_k A_k (x) xi_k)``.

    All specs in one call must use the same quadrature kind; the listed terms
    act simultaneously (they are summed in one exponent).

    With one live term the observable is diagonalized once; the amplitudes
    are rotated into its eigenbasis, phased and rotated back one block of
    leading grid rows at a time (``_BLOCK_CELLS`` cells), straight into the
    fresh array the returned state adopts.  Every cell sees the same
    operations as a full-array rotation, so the result is bit-equal to it.
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
        v_conj = v.conj()
        xi = _quadrature_values(state.grid, s.axis, quadrature)
        eigcol = spec_eig.eigenvalues.reshape((d,) + (1,) * state.grid.dims)
        phase = np.exp(-1j * s.strength * eigcol * xi)
        new = np.empty_like(amps)
        rows = max(1, _BLOCK_CELLS // math.prod(state.grid.shape[1:]))
        for start in range(0, amps.shape[1], rows):
            blk = slice(start, start + rows)
            rotated = np.einsum("ij,i...->j...", v_conj, amps[:, blk])
            np.multiply(rotated, phase[:, blk] if s.axis == 0 else phase, out=rotated)
            np.einsum("ij,j...->i...", v, rotated, out=new[:, blk])
        return JointState._adopt(state.grid, new, state.reps)
    # General case: pointwise Hermitian generator, batched eigendecomposition.
    shape = state.grid.shape
    gen = np.zeros(shape + (d, d), dtype=complex)
    for s in live:
        xi = np.broadcast_to(_quadrature_values(state.grid, s.axis, quadrature), shape)
        gen += s.strength * xi[..., None, None] * s.observable.matrix
    w, v = np.linalg.eigh(gen)
    del gen
    rotated = np.einsum("...ij,...i->...j", v.conj(), np.moveaxis(amps, 0, -1))
    np.multiply(rotated, np.exp(-1j * w), out=rotated)
    new = np.empty_like(amps)
    np.einsum("...ij,...j->...i", v, rotated, out=np.moveaxis(new, 0, -1))
    return JointState._adopt(state.grid, new, state.reps)


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
    # Every axis is in position representation, so prob is also the squared norm.
    return _normalized(state.grid, pointer, prob), prob


def evolve(pre: SystemState, phi: PointerWavefunction, specs: list[CouplingSpec],
           post: SystemState, *, simultaneous: bool = False,
           readout: tuple[Observable, int] | None = None) -> tuple[PointerWavefunction, float]:
    """The exact pipeline: ``|pre> (x) |phi>``, each spec in turn (all as one
    term when ``simultaneous``), the strong readout ``(observable, axis)`` when
    given, then :func:`postselect` onto ``post``.  One spec and no readout is
    the usual weak measurement.  ``phi`` is dropped once joined, so a caller
    holding no reference of its own frees it early."""
    joint = make_joint(pre, phi)
    del phi  # full-grid; the joint state holds what the pipeline needs
    if not simultaneous:
        for spec in specs:
            joint = apply_couplings(joint, [spec])
    elif specs:
        joint = apply_couplings(joint, specs)
    if readout is not None:
        joint = strong_readout(joint, *readout)
    return postselect(joint, post)


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
    if readout_axis is not None and readout_eigenvalue != 0.0:
        shifts = np.zeros(phi.grid.dims)
        shifts[readout_axis] = -readout_eigenvalue
        phi = displace_momentum(phi, shifts)
    amps = phi.amplitudes
    delta = np.zeros_like(amps)
    for s, w in zip(specs, values):
        if s.strength == 0.0:
            continue
        if s.quadrature == "q":
            xi_amps = _quadrature_values(phi.grid, s.axis, "q") * amps
        else:
            xi_amps = _apply_momentum(amps, phi.grid, s.axis)
        np.add(delta, np.multiply(s.strength * w, xi_amps, out=xi_amps), out=delta)
        del xi_amps
    return _normalized(phi.grid, np.subtract(amps, np.multiply(1j, delta, out=delta), out=delta))
