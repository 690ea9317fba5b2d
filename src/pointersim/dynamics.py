"""Joint system (x) pointer evolution: von Neumann couplings and postselection.

Every evolution here is ``exp(-i * lambda * A (x) xi)`` with xi a position or
momentum quadrature of one pointer axis.  The quadrature is diagonal in its
own representation, so the evolution is a pointwise d x d matrix exponential
over grid points: in one eigenbasis of all terms (always so for one coupling)
only phases touch the grid, else each row block diagonalizes its generator.
Every stored state is in position representation: a p-coupling transforms
its axes to momentum and back inside its own :func:`apply_couplings` call.

Every caller runs the exact pipeline through :func:`evolve`: a list of
steps, each one :func:`apply_couplings` call whose specs act as one term (a
single coupling, a simultaneous group, or the strong readout, a unit q
coupling).  Every step writes its result back into the one joint buffer
that :func:`make_joint` allocated, so the pipeline holds a single joint
state; called directly, :func:`apply_couplings` and :func:`strong_readout`
allocate their output and leave their input state alone.  The first-order
path, which the closed-form shift predictions assume, is
:func:`first_order_pointer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    DimensionError,
    PostselectionFailed,
    RepresentationError,
)
from .pointer import (
    PointerWavefunction,
    _GridState,
    _axis_transform,
    _block_shape,
    _mass,
    _multiply_factors,
    _normalized,
    _row_blocks,
)
from .quantum import Observable, SystemState

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


class JointState(_GridState):
    """System tensor position-space pointer amplitudes, shape
    (d, *grid.shape) (:class:`_GridState`).  :func:`evolve` passes
    ``_buffer`` as ``out``, so each step overwrites the state it has just
    read.  Not a :class:`PointerWavefunction`: :func:`moments` takes none.
    """

    _LEADING = 1

    @property
    def system_dim(self) -> int:
        return self.amplitudes.shape[0]


def make_joint(system: SystemState, phi: PointerWavefunction) -> JointState:
    """Product state |system> (x) |phi>."""
    amps = system.amplitudes.reshape((system.dim,) + (1,) * phi.grid.dims) * phi.amplitudes
    return JointState._adopt(phi.grid, amps)


def _contract(m: np.ndarray, src: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out[j] = sum_i m[..., i, j] * src[i]``, ``m`` one matrix or one per
    cell: multiply-adds in order of i, products in ``tmp``.  Bit for bit
    ``einsum``'s where each entry is real or imaginary (no FMA rounding)."""
    for j in range(out.shape[0]):
        np.multiply(m[..., 0, j], src[0], out=out[j])
        for i in range(1, len(src)):
            np.add(out[j], np.multiply(m[..., i, j], src[i], out=tmp), out=out[j])


def check_shared_quadrature(specs) -> None:
    """Raise RepresentationError unless all ``specs`` share one quadrature."""
    if len({s.quadrature for s in specs}) > 1:
        raise RepresentationError("simultaneous couplings must share one quadrature")


def apply_couplings(state: JointState, specs: list[CouplingSpec],
                    out: np.ndarray | None = None) -> JointState:
    """Evolve by ``exp(-i sum_k lambda_k A_k (x) xi_k)``.

    All specs must share one quadrature kind; the terms act simultaneously.
    A p-coupling transforms the axes of its live terms to momentum, in
    ascending order, couples, and transforms them back in the same order, so
    the result is in position representation like every stored state.  The
    transforms and the result go into ``out``, a complex array of the
    state's shape (the state's own ``_buffer`` allowed), which the returned
    state adopts; without it the call allocates one and leaves the input
    alone.  With no nonzero strength it returns ``state``.

    Each block of leading grid rows (``_BLOCK_CELLS`` cells) is read, rotated
    into an eigenbasis, phased by ``exp(-i w)`` and rotated back into ``out``
    by :func:`_contract`, bit for bit as whole-array multiply-adds.
    ``w`` is the live terms' summed phases in one basis that diagonalizes
    them all (``eigh`` of the observable, for one term), else the eigenvalues
    of each block's pointwise generator, bit for bit a per-cell ``eigh``'s.
    Commuting terms not all diagonal may differ from the latter in the last bits.
    """
    check_shared_quadrature(specs)
    d = state.system_dim
    for s in specs:
        if s.observable.dim != d:
            raise DimensionError(f"observable dim {s.observable.dim} != system dim {d}")
        if not 0 <= s.axis < state.grid.dims:
            raise DimensionError(f"axis {s.axis} outside grid with {state.grid.dims} axes")
    live = [s for s in specs if s.strength != 0.0]
    if not live:
        return state
    quadrature = live[0].quadrature
    grid, amps = state.grid, state.amplitudes
    p_axes = sorted({s.axis for s in live}) if quadrature == "p" else []
    if out is None:
        out = np.empty_like(amps)
    for axis in p_axes:
        amps = _axis_transform(amps, grid, axis, out=out)
    mats = [s.observable.matrix for s in live]
    samples = grid.positions if quadrature == "q" else grid.momenta
    xis = [(s.axis, grid.axis_array(s.axis, samples(s.axis))) for s in live]
    # The eigenbasis of A_0 + sum_k (1 + k pi) A_k serves every term that it
    # diagonalizes; commuting terms can make that sum degenerate.
    w, v = np.linalg.eigh(sum(((1.0 + k * np.pi) * mat for k, mat in enumerate(mats[1:], 1)),
                              start=mats[0]))
    in_v = [v.conj().T @ mat @ v for mat in mats] if len(live) > 1 else []
    shared = all(np.max(np.abs(r - np.diag(np.diag(r)))) <= 1e-12 * np.max(np.abs(mat))
                 for r, mat in zip(in_v, mats))
    spectra = [np.real(np.diag(r)) for r in in_v] or [w]
    terms = [(axis, -1j * s.strength * a.reshape((d,) + (1,) * grid.dims) * xi)
             for s, a, (axis, xi) in zip(live, spectra, xis)]
    tmp, rotated = (np.empty(n + _block_shape(grid.shape), dtype=complex) for n in ((), (d,)))
    for blk in _row_blocks(grid.shape):
        if shared:
            vb, x = v, reduce(np.add, (t[:, blk] if axis == 0 else t for axis, t in terms))
        else:
            gen = np.zeros(amps[0, blk].shape + (d, d), dtype=complex)
            for s, mat, (axis, xi) in zip(live, mats, xis):
                gen += s.strength * (xi[blk] if axis == 0 else xi)[..., None, None] * mat
            w, vb = np.linalg.eigh(gen)
            x = -1j * np.moveaxis(w, -1, 0)
        _contract(vb.conj(), amps[:, blk], rotated, tmp)
        np.multiply(rotated, np.exp(x), out=rotated)
        _contract(np.swapaxes(vb, -1, -2), rotated, out[:, blk], tmp)
    for axis in p_axes:
        _axis_transform(out, grid, axis, forward=False, out=out)
    return JointState._adopt(grid, out)


def strong_readout(state: JointState, observable: Observable, axis: int) -> JointState:
    """Unit-strength exact position coupling, the projective readout as one
    :func:`apply_couplings` step into a new state.  :func:`evolve` takes the
    readout as a step of its own, so this is the readout spelled out."""
    return apply_couplings(state, [CouplingSpec(observable, axis, "q", 1.0)])


def postselect(state: JointState, target: SystemState) -> tuple[PointerWavefunction, float]:
    """Project the system onto ``target``; return the renormalized pointer and
    the postselection probability."""
    if target.dim != state.system_dim:
        raise DimensionError(f"target dim {target.dim} != system dim {state.system_dim}")
    grid, bra = state.grid, target.amplitudes.conj()[:, None]
    pointer, tmp = (np.empty(n, dtype=complex) for n in (grid.shape, _block_shape(grid.shape)))
    for blk in _row_blocks(grid.shape):
        _contract(bra, state.amplitudes[:, blk], pointer[None, blk], tmp)
    prob = float(_mass(pointer, grid.cell_volume(("position",) * grid.dims)))
    if prob < _POSTSELECT_FLOOR:
        raise PostselectionFailed(f"postselection probability {prob:.3e} below 1e-12")
    return _normalized(grid, pointer, prob), prob


def evolve(pre: SystemState, phi: PointerWavefunction, steps: list[list[CouplingSpec]],
           post: SystemState) -> tuple[PointerWavefunction, float]:
    """The exact pipeline: ``|pre> (x) |phi>``, each step in turn, then
    :func:`postselect` onto ``post``.  A step is a list of specs that act as
    one term, one :func:`apply_couplings` call: ``[[spec]]`` is the usual
    weak measurement, a strong readout is a last step of one unit q spec.
    ``phi`` is dropped once joined, so a caller holding no reference of its
    own frees it early.  Every step, a p-coupling's axis transforms
    included, writes into the joint buffer of :func:`make_joint`, so no
    second joint state is ever made."""
    joint = make_joint(pre, phi)
    del phi  # full-grid; the joint state holds what the pipeline needs
    for step in steps:
        joint = apply_couplings(joint, step, joint._buffer)
    return postselect(joint, post)


def first_order_pointer(phi: PointerWavefunction, terms) -> PointerWavefunction:
    """The cross-check of :func:`evolve` from the weak values of ``terms``
    ``(axis, quadrature, lambda, w)``, as for :func:`~pointersim.shifts.predict_general`
    (a strong readout is ``(axis, "q", 1.0, a_l)``): ``phi`` times
    ``prod exp(-i lambda Re(w) xi)(1 + lambda Im(w) xi)``, renormalized.  To
    first order that is ``1 - i sum lambda w xi``; for a real w it is exact."""
    factors = [(axis, quadrature, -lam * np.real(w), lam * np.imag(w))
               for axis, quadrature, lam, w in terms]
    return _normalized(phi.grid, _multiply_factors(phi, factors))
