"""Closed-form first-order pointer-shift predictions.

Sign handling: the published shift formulas this module encodes are not
internally consistent about signs, so every prediction takes its two signs
from :data:`ORIENTATION` and :data:`RE_ORIENTATION`, fixed once against the
exact evolution oracle (``calibrate_sign_convention`` in
``tests/test_shifts.py``).  Under the uniform ``exp(-i lambda A (x) xi)``
evolution used everywhere in this package the calibration yields

* ``ORIENTATION = +1``: every ``2 lambda Im(w) corr`` term enters with +.
* ``RE_ORIENTATION = -1``: ``lambda Re(w)`` momentum terms enter with -, and
  the strong-readout momentum offset is ``-a_l`` (a unit q term, w = a_l).

A position coupling with the opposite quadrature roles (coupling to p,
reading q) picks up the mirrored Re sign, which is why the vortex-mode
relations below carry no explicit convention factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .pointer import MomentSet, auto_grid, lg_mode, lg_spreads, moments

ORIENTATION, RE_ORIENTATION = 1, -1


@dataclass(frozen=True)
class ShiftPrediction:
    """Per-axis predicted mean shifts; with a readout term, ``delta_p`` on its
    axis carries the eigenvalue offset."""

    delta_q: np.ndarray
    delta_p: np.ndarray

    def __post_init__(self):
        for arr in (self.delta_q, self.delta_p):
            if not np.all(np.isfinite(arr)):
                raise ValueError("prediction entries must be finite")


def predict_general(m: MomentSet, couplings: list[tuple]) -> ShiftPrediction:
    """First-order shifts for arbitrary weak couplings on a D-axis pointer.

    ``couplings`` entries are ``(axis, quadrature, strength, weak_value)``.
    A strong readout is ``(axis, "q", 1.0, a_l)``, its weak value the real
    eigenvalue a_l, so the Re law gives its offset ``RE_ORIENTATION * a_l``.
    A p-coupling follows the q-coupling law with q and p exchanged (``cov_qp``
    transposed) and the Re sign flipped.  Same-axis q-p cross terms are
    intentionally dropped: with no free pointer evolution those symmetrized
    covariances never enter the contracted formulas (they are the
    stationary-pointer terms fixed to zero).
    """
    d = m.mean_q.size
    s, r = ORIENTATION, RE_ORIENTATION
    dq = np.zeros(d)
    dp = np.zeros(d)
    for axis, quadrature, lam, w in couplings:
        if not 0 <= axis < d:
            raise DimensionError(f"coupling axis {axis} outside 0..{d - 1}")
        a, b = float(np.real(w)), float(np.imag(w))
        coupled, conjugate, cov, cross, re = ((dq, dp, m.cov_qq, m.cov_qp, r) if quadrature == "q"
                                              else (dp, dq, m.cov_pp, m.cov_qp.T, -r))
        for mm in range(d):
            coupled[mm] += s * 2.0 * lam * b * cov[mm, axis]
            conjugate[mm] += re * lam * a if mm == axis else s * 2.0 * lam * b * cross[axis, mm]
    return ShiftPrediction(delta_q=dq, delta_p=dp)


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
    return ShiftPrediction(delta_q=dq, delta_p=dp)


def lg_compatibility(m: MomentSet, l: int) -> float:
    """Dimensionless residual of the vortex-mode correlation law on measured
    moments: the largest of |corr(x, p_y) - l/2|, |corr(y, p_x) + l/2| and the
    correlation coefficient |corr(x, y)| / (sd_x sd_y), so it does not scale
    with the width.  Zero (up to grid error) iff the law holds.
    """
    if m.mean_q.size != 2:
        raise DimensionError("vortex compatibility check needs 2-axis moments")
    half = 0.5 * l
    return float(max(
        abs(m.cov_qp[0, 1] - half),
        abs(m.cov_qp[1, 0] + half),
        # Two roots: c00 * c11 overflows at widths near 1e80.
        abs(m.cov_qq[0, 1]) / np.sqrt(m.cov_qq[0, 0]) / np.sqrt(m.cov_qq[1, 1]),
    ))


def lg_check(l: int, sigma: float = 1.0) -> tuple[MomentSet, float]:
    """Moments of the order-``l`` vortex mode, and their :func:`lg_compatibility`
    residual, on the grid :func:`auto_grid` derives from the mode's spreads as
    for a document without a grid: half-width 8 sigma sqrt(1 + |l|), 256^2 up
    to l = 14 at sigma = 1, and GridCoverage past the 1024^2 cap."""
    m = moments(lg_mode(auto_grid(*lg_spreads(l, sigma), None, None), l, sigma))
    return m, lg_compatibility(m, l)
