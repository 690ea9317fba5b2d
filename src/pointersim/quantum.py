"""Finite-dimensional Hilbert-space algebra: states, observables, weak values.

All states are unit vectors, all observables Hermitian matrices.  Weak
values ``<post|A|pre> / <post|pre>`` are generally complex; they diverge as
the pre/post overlap vanishes, so an overlap floor guards the division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidObservable,
    InvalidState,
    NearOrthogonalPostselection,
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


class Observable:
    """Hermitian matrix on the system space."""

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidObservable(f"expected a square matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise InvalidObservable("matrix is not Hermitian within 1e-12")
        self.matrix = _frozen(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def make_state(amplitudes) -> SystemState:
    """Normalize ``amplitudes`` into a SystemState."""
    return SystemState(np.asarray(amplitudes, dtype=complex))


def eigendecompose(observable: Observable) -> Spectrum:
    """Spectral decomposition with ascending real eigenvalues.

    Degenerate subspaces come back with an arbitrary orthonormal basis;
    anything downstream that cares uses eigenspace projectors, which are
    basis independent.
    """
    vals, vecs = np.linalg.eigh(observable.matrix)
    vals = np.real(vals)
    vals_ro = np.array(vals)
    vals_ro.flags.writeable = False
    return Spectrum(eigenvalues=vals_ro, eigenvectors=_frozen(vecs))


def weak_value(observable: Observable, pre: SystemState, post: SystemState) -> complex:
    """<post|A|pre> / <post|pre>.

    Raises NearOrthogonalPostselection when |<post|pre>| <= OVERLAP_FLOOR.
    """
    if observable.dim != pre.dim or pre.dim != post.dim:
        raise DimensionError(
            f"dimension mismatch: A is {observable.dim}, pre {pre.dim}, post {post.dim}"
        )
    ovl = post.overlap(pre)
    if abs(ovl) <= OVERLAP_FLOOR:
        raise NearOrthogonalPostselection(abs(ovl))
    num = complex(np.vdot(post.amplitudes, observable.matrix @ pre.amplitudes))
    return num / ovl


def expectation(observable: Observable, state: SystemState) -> float:
    """<s|A|s>; the imaginary residue (<= 1e-12 for Hermitian A) is discarded."""
    if observable.dim != state.dim:
        raise DimensionError(
            f"dimension mismatch: A is {observable.dim}, state {state.dim}"
        )
    val = complex(np.vdot(state.amplitudes, observable.matrix @ state.amplitudes))
    return float(val.real)
