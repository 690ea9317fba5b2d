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

from .dynamics import CouplingSpec, apply_couplings, make_joint, postselect
from .errors import DimensionError, InvalidParams, UnusableProbe
from .pointer import Grid, PointerWavefunction, _check_coverage, _normalized, moments
from .quantum import Observable, SystemState, weak_value
from .shifts import FROZEN_CONVENTION, SignConvention

DET_TOLERANCE = 1e-6
IM_WEAK_FLOOR = 1e-6


@dataclass(frozen=True)
class TwoModeGaussianParams:
    """Exponent coefficients of ``exp[-(alpha q1^2 + beta q2^2 + 2 gamma q1 q2)]``."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidParams("alpha and beta must be positive")
        if self.alpha * self.beta <= self.gamma**2:
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


@dataclass(frozen=True)
class WeakProbeConfig:
    """Qubit probe for the shift-based reconstruction."""

    observable: Observable
    pre: SystemState
    post: SystemState
    strength: float


def two_mode_gaussian(grid: Grid, params: TwoModeGaussianParams) -> PointerWavefunction:
    """Normalized ``exp[-(alpha q1^2 + beta q2^2 + 2 gamma q1 q2)]`` on the grid."""
    if grid.dims != 2:
        raise DimensionError("two-mode Gaussian needs a 2-axis grid")
    _check_coverage(grid, np.sqrt(np.diag(params.position_covariance())), (0.0, 0.0))
    q1 = grid.axis_array(0, grid.positions(0))
    q2 = grid.axis_array(1, grid.positions(1))
    exponent = -(params.alpha * q1**2 + params.beta * q2**2 + 2.0 * params.gamma * q1 * q2)
    return _normalized(grid, np.exp(exponent).astype(complex))


def c_matrix_direct(phi: PointerWavefunction) -> CMatrix:
    """C matrix from the pointer-state moment quadratures."""
    if phi.grid.dims != 2:
        raise DimensionError("C matrix needs a 2-axis pointer")
    m = moments(phi)
    return CMatrix(entries=np.array([
        [m.cov_qq[0, 1], m.cov_qp[0, 1]],
        [m.cov_qp[1, 0], m.cov_pp[0, 1]],
    ]))


def _measured_row(
    phi: PointerWavefunction,
    probe: WeakProbeConfig,
    quadrature: str,
    denom: float,
) -> tuple[float, float]:
    base = moments(phi)
    joint = make_joint(probe.pre, phi)
    spec = CouplingSpec(probe.observable, axis=0, quadrature=quadrature,
                        strength=probe.strength)
    joint = apply_couplings(joint, [spec])
    pointer, _prob = postselect(joint, probe.post)
    final = moments(pointer)
    return (
        (final.mean_q[1] - base.mean_q[1]) / denom,
        (final.mean_p[1] - base.mean_p[1]) / denom,
    )


def c_matrix_from_shifts(
    phi: PointerWavefunction,
    probe: WeakProbeConfig,
    conv: SignConvention = FROZEN_CONVENTION,
) -> CMatrix:
    """Reconstruct C from four simulated weak-measurement experiments.

    Coupling to q1 and reading the axis-2 shifts yields the first row; the
    second row interchanges the quadrature roles (coupling to p1), reusing the
    structurally identical first-order shift algebra.  Postselection is a
    direct projection onto the probe's post state, so no readout offset needs
    subtracting.  Each measured shift is divided by
    ``orientation * 2 * lambda * Im(w)``.
    """
    if phi.grid.dims != 2:
        raise DimensionError("the reconstruction protocol needs a 2-axis pointer")
    w = weak_value(probe.observable, probe.pre, probe.post)
    if abs(w.imag) < IM_WEAK_FLOOR:
        raise UnusableProbe(
            f"Im(weak value) = {w.imag:.2e}: correlation terms are unobservable"
        )
    denom = conv.orientation * 2.0 * probe.strength * w.imag
    row_q = _measured_row(phi, probe, "q", denom)
    row_p = _measured_row(phi, probe, "p", denom)
    return CMatrix(entries=np.array([row_q, row_p]))


def is_entangled(c: CMatrix, det_tolerance: float = DET_TOLERANCE) -> bool:
    """True iff det(C) is negative beyond the quadrature noise floor."""
    return c.det < -det_tolerance
