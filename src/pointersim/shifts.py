"""Closed-form first-order pointer-shift predictions.

Sign handling: the published shift formulas this module encodes are not
internally consistent about signs, so every prediction routes through a
:class:`SignConvention` fixed once against the exact evolution oracle
(:func:`calibrate_sign_convention`) and frozen as :data:`FROZEN_CONVENTION`.
Under the uniform ``exp(-i lambda A (x) xi)`` evolution used everywhere in
this package the calibration yields

* ``orientation = +1``: every ``2 lambda Im(w) corr`` term enters with +.
* ``re_orientation = -1``: ``lambda Re(w)`` momentum terms enter with -, and
  the strong-readout momentum offset is ``-a_l`` (same displacement family).

A position coupling with the opposite quadrature roles (coupling to p,
reading q) picks up the mirrored Re sign, which is why the vortex-mode
relations below carry no explicit convention factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import CouplingSpec, apply_couplings, make_joint, postselect, strong_readout
from .errors import DimensionError
from .pointer import Grid, MomentSet, gaussian_pointer, moments
from .quantum import PAULI_Z, Observable, make_state


@dataclass(frozen=True)
class SignConvention:
    """Orientation of the Im-correlation terms and of the Re momentum terms."""

    orientation: int
    re_orientation: int

    def __post_init__(self):
        if self.orientation not in (1, -1) or self.re_orientation not in (1, -1):
            raise ValueError("orientations must be +1 or -1")


FROZEN_CONVENTION = SignConvention(orientation=1, re_orientation=-1)


@dataclass(frozen=True)
class ShiftPrediction:
    """Per-axis predicted mean shifts; ``delta_p[readout]`` may carry the
    eigenvalue offset, flagged by ``includes_readout_offset``."""

    delta_q: np.ndarray
    delta_p: np.ndarray
    includes_readout_offset: bool

    def __post_init__(self):
        for arr in (self.delta_q, self.delta_p):
            if not np.all(np.isfinite(arr)):
                raise ValueError("prediction entries must be finite")


def predict_general(
    m: MomentSet,
    couplings: list[tuple[int, str, float, complex]],
    readout_axis: int | None = None,
    readout_eigenvalue: float = 0.0,
    conv: SignConvention = FROZEN_CONVENTION,
) -> ShiftPrediction:
    """First-order shifts for arbitrary weak couplings on a D-axis pointer.

    ``couplings`` entries are ``(axis, quadrature, strength, weak_value)``.
    Same-axis q-p cross terms are intentionally dropped: with no free pointer
    evolution those symmetrized covariances never enter the contracted
    formulas (they are the stationary-pointer terms fixed to zero).
    """
    d = m.mean_q.size
    s = conv.orientation
    r = conv.re_orientation
    dq = np.zeros(d)
    dp = np.zeros(d)
    for axis, quadrature, lam, w in couplings:
        if not 0 <= axis < d:
            raise DimensionError(f"coupling axis {axis} outside 0..{d - 1}")
        a, b = float(np.real(w)), float(np.imag(w))
        for mm in range(d):
            if quadrature == "q":
                dq[mm] += s * 2.0 * lam * b * m.cov_qq[mm, axis]
                if mm == axis:
                    dp[mm] += r * lam * a
                else:
                    dp[mm] += s * 2.0 * lam * b * m.cov_qp[axis, mm]
            else:
                dp[mm] += s * 2.0 * lam * b * m.cov_pp[mm, axis]
                if mm == axis:
                    dq[mm] += -r * lam * a
                else:
                    dq[mm] += s * 2.0 * lam * b * m.cov_qp[mm, axis]
    has_offset = readout_axis is not None
    if has_offset:
        dp[readout_axis] += r * readout_eigenvalue
    return ShiftPrediction(delta_q=dq, delta_p=dp, includes_readout_offset=has_offset)


def predict_sequential(
    m: MomentSet,
    lambda1: float,
    lambda2: float,
    a1w: complex,
    a2w: complex,
    a3l: float,
    conv: SignConvention = FROZEN_CONVENTION,
) -> ShiftPrediction:
    """Two successive weak position couplings (axes 1, 2) with a strong
    readout on axis 3, postselected on the eigenvalue ``a3l`` branch."""
    if m.mean_q.size != 3:
        raise DimensionError("sequential predictions need 3-axis moments")
    return predict_general(
        m,
        [(0, "q", lambda1, a1w), (1, "q", lambda2, a2w)],
        readout_axis=2,
        readout_eigenvalue=a3l,
        conv=conv,
    )


def predict_single(
    m: MomentSet,
    lam: float,
    aw: complex,
    a2l: float,
    conv: SignConvention = FROZEN_CONVENTION,
) -> ShiftPrediction:
    """Single weak position coupling on axis 1, readout on axis 2.

    Pass ``a2l = 0`` for direct-projection postselection (no readout offset).
    """
    if m.mean_q.size != 2:
        raise DimensionError("single-coupling predictions need 2-axis moments")
    return predict_general(
        m,
        [(0, "q", lam, aw)],
        readout_axis=1,
        readout_eigenvalue=a2l,
        conv=conv,
    )


def predict_lg(l: int, g: float, aw: complex, bw: complex, sigma: float = 1.0) -> ShiftPrediction:
    """Shifts for the vortex-mode probe: one pulse coupling A to p_x and B to p_y.

    The position shifts use the mode's built-in cross correlations
    corr(x, p_y) = +l/2 and corr(y, p_x) = -l/2::

        dx = g [Re(A)_w + l Im(B)_w]
        dy = g [Re(B)_w - l Im(A)_w]

    The momentum shifts use the mode's momentum variance (1+|l|)/(4 sigma^2).
    """
    vp = (1.0 + abs(l)) / (4.0 * sigma**2)
    dq = np.array([
        g * (np.real(aw) + l * np.imag(bw)),
        g * (np.real(bw) - l * np.imag(aw)),
    ])
    dp = np.array([2.0 * g * np.imag(aw) * vp, 2.0 * g * np.imag(bw) * vp])
    return ShiftPrediction(delta_q=dq, delta_p=dp, includes_readout_offset=False)


def lg_compatibility(m: MomentSet, l: int) -> float:
    """Residual of the vortex-mode correlation law on measured moments.

    Zero (up to grid error) iff corr(x, p_y) = +l/2, corr(y, p_x) = -l/2 and
    corr(x, y) = 0.
    """
    if m.mean_q.size != 2:
        raise DimensionError("vortex compatibility check needs 2-axis moments")
    half = 0.5 * l
    return float(max(
        abs(m.cov_qp[0, 1] - half),
        abs(m.cov_qp[1, 0] + half),
        abs(m.cov_qq[0, 1]),
    ))


def calibrate_sign_convention(points: int = 128) -> SignConvention:
    """Fix the two orientation flags against the exact evolution oracle.

    Leg A (designated scenario): qubit, purely imaginary weak value i,
    uncorrelated Gaussian pointer, strong readout -- the sign of the measured
    q1 shift fixes ``orientation`` and the readout momentum offset must agree
    with ``re_orientation``.  Leg B: the same system with a real weak value
    fixes ``re_orientation`` from the p1 shift (a purely imaginary weak value
    cannot, which is why a companion run is needed).
    """
    grid = Grid(points_per_axis=(points, points), extent=(8.0, 8.0))
    phi = gaussian_pointer(grid, np.eye(2))
    pre = make_state([1, 1])
    z = Observable(PAULI_Z)
    lam = 0.1

    # Leg A: (Z)_w = i for post = (|0> + i|1>)/sqrt(2).
    post_a = make_state([1, 1j])
    proj = Observable(np.outer(post_a.amplitudes, post_a.amplitudes.conj()))
    joint = make_joint(pre, phi)
    joint = apply_couplings(joint, [CouplingSpec(z, 0, "q", lam)])
    joint = strong_readout(joint, proj, 1)
    pointer, _ = postselect(joint, post_a)
    base = moments(phi)
    final = moments(pointer)
    orientation = 1 if final.mean_q[0] - base.mean_q[0] > 0 else -1
    offset_sign = 1 if final.mean_p[1] - base.mean_p[1] > 0 else -1

    # Leg B: (Z)_w = 1 for post = |0>.
    post_b = make_state([1, 0])
    joint = make_joint(pre, phi)
    joint = apply_couplings(joint, [CouplingSpec(z, 0, "q", lam)])
    pointer, _ = postselect(joint, post_b)
    final_b = moments(pointer)
    re_orientation = 1 if final_b.mean_p[0] - base.mean_p[0] > 0 else -1

    if offset_sign != re_orientation:
        raise RuntimeError(
            "readout offset orientation disagrees with the weak Re orientation; "
            "the evolution convention is inconsistent"
        )
    return SignConvention(orientation=orientation, re_orientation=re_orientation)
