"""Two-mode Gaussian entanglement certification from weak-measurement shifts.

The 2x2 cross-covariance block between the two pointer modes::

    C = [ <q1 q2>  <q1 p2> ]
        [ <p1 q2>  <p1 p2> ]

(centered moments) certifies entanglement when det(C) < 0.  The block can be
read off a state directly, or reconstructed operationally from four simulated
weak-measurement experiments: couple a qubit probe to q1 (then to p1) and
read the induced shifts of <q2> and <p2>, each divided by 2*lambda*Im(w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import CouplingSpec, evolve
from .errors import DimensionError, InvalidParams
from .pointer import (Grid, PointerWavefunction, _diagonal_moments, auto_grid,
                      check_gaussian_params, gaussian_pointer, kick_gap, means, moments)
from .quantum import PAULI_Z, Observable, SystemState, weak_value
from .shifts import ORIENTATION

DET_TOLERANCE = 1e-6
# (observable, pre, post) of the qubit probe of c_matrix_from_shifts; its weak value is i.
_PROBE = (Observable(PAULI_Z), SystemState([1, 1]), SystemState([1, 1j]))


@dataclass(frozen=True)
class TwoModeGaussianParams:
    """Exponent coefficients of ``exp[-(alpha q1^2 + beta q2^2 + 2 gamma q1 q2)]``."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidParams("alpha and beta must be positive")
        if not abs(self.gamma) / self.alpha**0.5 / self.beta**0.5 < 1:  # cannot overflow
            raise InvalidParams("need alpha*beta > gamma^2 for a normalizable state")

    def position_covariance(self) -> np.ndarray:
        """Covariance of |psi|^2: one quarter of the inverse coefficient matrix."""
        mat = np.array([[self.alpha, self.gamma], [self.gamma, self.beta]])
        return 0.25 * np.linalg.inv(mat)


@dataclass(frozen=True)
class CMatrix:
    """Cross-covariance block; not symmetric in general."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (2, 2) or not np.all(np.isfinite(arr)):
            raise DimensionError("C matrix must be a finite 2x2 real matrix")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.entries))


def two_mode_gaussian(grid: Grid, params: TwoModeGaussianParams) -> PointerWavefunction:
    """Normalized ``exp[-(alpha q1^2 + beta q2^2 + 2 gamma q1 q2)]`` on a 2-axis grid.

    The exponent is ``-1/4 q^T Sigma^-1 q`` with ``Sigma`` the position
    covariance, so this is :func:`~pointersim.pointer.gaussian_pointer` of it.
    """
    return gaussian_pointer(grid, params.position_covariance())


def c_matrix_direct(phi: PointerWavefunction) -> CMatrix:
    """C matrix from the pointer-state moment quadratures."""
    if phi.grid.dims != 2:
        raise DimensionError("C matrix needs a 2-axis pointer")
    m = moments(phi)
    return CMatrix(entries=np.array([
        [m.cov_qq[0, 1], m.cov_qp[0, 1]],
        [m.cov_qp[1, 0], m.cov_pp[0, 1]],
    ]))


def c_matrix_from_shifts(phi: PointerWavefunction, strength: float) -> CMatrix:
    """Reconstruct C from four simulated weak-measurement experiments.

    The probe is the qubit ``_PROBE``: Z, prepared in |+> and postselected on
    (|0> + i|1>)/sqrt(2), coupled to axis 1 at ``strength``, finite and
    nonzero, whose kicks of ``|strength|`` times Z's ``spectral_radius`` (1)
    to axis 1's momentum (q row) and position (p row) must pass
    :func:`~pointersim.pointer.kick_gap` on ``phi``'s measured means and
    spreads (else InvalidParams).  Coupling to
    q1 and reading the axis-2 shifts yields the first row; the second row
    interchanges the quadrature roles (coupling to p1), reusing the
    structurally identical first-order shift algebra.  Postselection is a
    direct projection onto the probe's post state, so no readout offset
    needs subtracting.  Each measured shift is divided by its first-order
    coefficient ``shifts.ORIENTATION * 2 * lambda * Im(w)``.
    """
    if phi.grid.dims != 2:
        raise DimensionError("the reconstruction protocol needs a 2-axis pointer")
    if not (np.isfinite(strength) and strength != 0.0):
        raise InvalidParams(f"probe strength must be finite and nonzero, got {strength}")
    observable, pre, post = _PROBE
    base_q, base_p, cov_qq, cov_pp = _diagonal_moments(phi, cov=True)[:4]
    kick = abs(strength) * observable.spectral_radius
    gap = kick_gap(phi.grid, np.sqrt(np.diag(cov_qq)), np.sqrt(np.diag(cov_pp)), base_q, base_p,
                   [(0, quadrature, kick) for quadrature in ("q", "p")])
    if gap:
        raise InvalidParams(f"probe strength {strength:g}: {gap[2]}")
    denom = ORIENTATION * 2.0 * strength * weak_value(observable, pre, post).imag
    rows = []
    for quadrature in ("q", "p"):
        spec = CouplingSpec(observable, axis=0, quadrature=quadrature, strength=strength)
        final_q, final_p = means(evolve(pre, phi, [[spec]], post)[0])
        rows.append(((final_q[1] - base_q[1]) / denom, (final_p[1] - base_p[1]) / denom))
    return CMatrix(entries=np.array(rows))


def probe_c_matrices(params: TwoModeGaussianParams, strength: float) -> tuple[CMatrix, CMatrix]:
    """``(direct, reconstructed)`` C of the two-mode Gaussian ``params`` on
    its default grid (:func:`~pointersim.pointer.auto_grid`), the second from
    the fixed Z probe between |+> and (|0> + i|1>)/sqrt(2) of
    :func:`c_matrix_from_shifts` at ``strength``."""
    std_q, std_p = check_gaussian_params(params.position_covariance())
    phi = two_mode_gaussian(auto_grid(std_q, std_p, None, None), params)
    return c_matrix_direct(phi), c_matrix_from_shifts(phi, strength)


def is_entangled(c: CMatrix) -> bool:
    """True iff det(C) is negative beyond the quadrature noise floor ``DET_TOLERANCE``."""
    return c.det < -DET_TOLERANCE
