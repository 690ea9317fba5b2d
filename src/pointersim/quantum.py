"""Finite-dimensional Hilbert-space algebra: states, observables, weak values.

All states are unit vectors, all observables Hermitian matrices.  Weak
values ``<post|A|pre> / <post|pre>`` are generally complex; they diverge as
the pre/post overlap vanishes, so an overlap floor guards the division.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
    InvalidObservable,
    InvalidState,
    NearOrthogonalPostselection,
    WeakValueOverflow,
)

HERMITICITY_TOL = 1e-12
OVERLAP_FLOOR = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.flags.writeable = False
    return out


class SystemState:
    """Normalized complex amplitude vector of a d-dimensional system, d >= 2."""

    def __init__(self, amplitudes: np.ndarray):
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        if amps.size < 2:
            raise InvalidState(f"system dimension must be >= 2, got {amps.size}")
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise InvalidState("amplitudes contain non-finite entries")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        if not 1e-146 < norm < np.inf:
            # The squares overflowed, or underflowed past the norm's precision:
            # scale the real and imaginary parts by the largest of them first.
            peak = np.max(np.abs(amps.view(float)))
            if peak == 0:
                raise InvalidState("zero amplitude vector")
            amps = (amps.view(float) / peak).view(complex)
            norm = np.linalg.norm(amps)
        self.amplitudes = _frozen(amps / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "SystemState") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def is_hermitian(mat: np.ndarray) -> bool:
    """Whether ``max |mat - mat^H| <= HERMITICITY_TOL * max |mat|`` (for a real
    ``mat``: whether it is symmetric), on ``mat`` divided by its largest real
    or imaginary part first, so that no difference or modulus overflows."""
    m = mat / (max(np.max(np.abs(mat.real)), np.max(np.abs(mat.imag))) or 1.0)
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL * np.max(np.abs(m)))


class Observable:
    """Hermitian matrix on the system space.  ``spectral_radius``, its largest ``|eigenvalue|``
    from one ``eigvalsh``, is the scale the kick and eigenvector rules read; it must be finite."""

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise InvalidObservable(f"expected a nonempty square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvalidObservable("matrix contains non-finite entries")
        if not is_hermitian(mat):
            raise InvalidObservable("matrix is not Hermitian within 1e-12 of its largest entry")
        self.matrix = _frozen(mat)
        self.spectral_radius = float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))
        if not np.isfinite(self.spectral_radius):
            raise InvalidObservable("eigenvalues overflow a float")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def weak_value(observable: Observable, pre: SystemState, post: SystemState) -> complex:
    """<post|A|pre> / <post|pre>.

    Raises NearOrthogonalPostselection if |<post|pre>| <= OVERLAP_FLOOR, WeakValueOverflow if inf.
    """
    if observable.dim != pre.dim or pre.dim != post.dim:
        raise DimensionError(
            f"dimension mismatch: A is {observable.dim}, pre {pre.dim}, post {post.dim}"
        )
    ovl = post.overlap(pre)
    if abs(ovl) <= OVERLAP_FLOOR:
        raise NearOrthogonalPostselection(abs(ovl))
    wv = complex(np.vdot(post.amplitudes, observable.matrix @ pre.amplitudes)) / ovl
    if not np.isfinite(wv):
        raise WeakValueOverflow(f"weak value {wv} of |<post|pre>| = {abs(ovl):.3e} is not finite")
    return wv
