"""States, observables, spectra and weak values."""

import warnings

import numpy as np
import pytest

from pointersim import (
    PAULI_X,
    PAULI_Z,
    DimensionError,
    InvalidObservable,
    InvalidState,
    NearOrthogonalPostselection,
    Observable,
    eigendecompose,
    expectation,
    make_state,
    weak_value,
)
from conftest import random_hermitian, random_state_vector


class TestMakeState:
    def test_normalizes(self):
        s = make_state([1, 1])
        np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_already_normalized(self):
        s = make_state([1, 0])
        np.testing.assert_allclose(s.amplitudes, [1, 0])

    def test_complex_scaling(self):
        s = make_state([2j, 0, 0])
        np.testing.assert_allclose(s.amplitudes, [1j, 0, 0])

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidState):
            make_state([0, 0])

    @pytest.mark.parametrize("amplitudes, expected", [
        ([1e154, 1e154], [0.5**0.5, 0.5**0.5]),
        ([1e200, 1e200], [0.5**0.5, 0.5**0.5]),
        ([1e-20, 0], [1, 0]),
        ([1e-170, 1e-170], [0.5**0.5, 0.5**0.5]),
        ([5e-324, 0], [1, 0]),
    ])
    def test_norm_outside_the_float_range_normalizes(self, amplitudes, expected):
        # The squares of these entries overflow, or underflow to nothing; only
        # an all-zero vector is rejected.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = make_state(amplitudes)
        np.testing.assert_allclose(s.amplitudes, expected, rtol=1e-15)

    @pytest.mark.parametrize("scale", [1e-140, 1e-20, 1.0, 1e20, 1e150])
    def test_norm_in_the_float_range_divides_directly(self, rng, scale):
        # Every bundled state, and so every golden output, keeps its bits.
        v = scale * random_state_vector(rng, 4)
        assert np.array_equal(make_state(v).amplitudes, v / np.linalg.norm(v))

    def test_dimension_one_rejected(self):
        with pytest.raises(InvalidState):
            make_state([1.0])

    def test_immutable(self):
        s = make_state([1, 0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5


class TestEigendecompose:
    def test_pauli_z_diagonal(self):
        spec = eigendecompose(Observable(PAULI_Z))
        np.testing.assert_allclose(spec.eigenvalues, [-1, 1])

    def test_pauli_x_analytic(self):
        spec = eigendecompose(Observable(PAULI_X))
        np.testing.assert_allclose(spec.eigenvalues, [-1, 1])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        # Eigenvectors match up to phase.
        assert abs(np.vdot(minus, spec.eigenvectors[:, 0])) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(plus, spec.eigenvectors[:, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_identity(self):
        spec = eigendecompose(Observable(np.eye(3)))
        np.testing.assert_allclose(spec.eigenvalues, [1, 1, 1])
        v = spec.eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidObservable):
            Observable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_reconstruction_and_orthonormality(self, rng):
        for d in (2, 3, 5, 8):
            obs = Observable(random_hermitian(rng, d))
            spec = eigendecompose(obs)
            rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - obs.matrix)) <= 1e-10
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
            assert np.all(np.diff(spec.eigenvalues) >= 0)


class TestWeakValue:
    def test_pauli_z_gives_i(self):
        pre = make_state([1, 1])
        post = make_state([1, 1j])
        assert weak_value(Observable(PAULI_Z), pre, post) == pytest.approx(1j)

    def test_eigenstate_gives_eigenvalue(self, rng):
        obs = Observable(random_hermitian(rng, 3))
        spec = eigendecompose(obs)
        s = make_state(spec.eigenvectors[:, 1])
        assert weak_value(obs, s, s) == pytest.approx(spec.eigenvalues[1])

    def test_pauli_x_plus_to_zero(self):
        pre = make_state([1, 1])
        post = make_state([1, 0])
        assert weak_value(Observable(PAULI_X), pre, post) == pytest.approx(1.0)

    def test_orthogonal_postselection_rejected(self):
        pre = make_state([1, 0])
        post = make_state([0, 1])
        with pytest.raises(NearOrthogonalPostselection) as err:
            weak_value(Observable(PAULI_Z), pre, post)
        assert err.value.overlap == pytest.approx(0.0, abs=1e-15)

    def test_equals_expectation_when_post_is_pre(self, rng):
        for d in (2, 3, 4):
            obs = Observable(random_hermitian(rng, d))
            s = make_state(random_state_vector(rng, d))
            wv = weak_value(obs, s, s)
            assert wv.imag == pytest.approx(0.0, abs=1e-12)
            assert wv.real == pytest.approx(expectation(obs, s), abs=1e-12)

    def test_global_phase_invariance(self, rng):
        obs = Observable(random_hermitian(rng, 3))
        pre = make_state(random_state_vector(rng, 3))
        post = make_state(random_state_vector(rng, 3))
        ref = weak_value(obs, pre, post)
        for phase in (0.3, 1.7, -2.4):
            pre2 = make_state(pre.amplitudes * np.exp(1j * phase))
            post2 = make_state(post.amplitudes * np.exp(-1j * 2 * phase))
            assert weak_value(obs, pre2, post2) == pytest.approx(ref, abs=1e-12)


class TestExpectation:
    def test_pauli_z_on_zero(self):
        assert expectation(Observable(PAULI_Z), make_state([1, 0])) == pytest.approx(1.0)

    def test_pauli_z_on_plus(self):
        assert expectation(Observable(PAULI_Z), make_state([1, 1])) == pytest.approx(0.0, abs=1e-15)

    def test_pauli_x_on_circular(self):
        assert expectation(Observable(PAULI_X), make_state([1, 1j])) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            expectation(Observable(PAULI_Z), make_state([1, 0, 0]))
