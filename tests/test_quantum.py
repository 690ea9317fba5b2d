"""States, observables and weak values."""

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
    PointersimError,
    SystemState,
    WeakValueOverflow,
    weak_value,
)
from conftest import random_hermitian, random_state_vector


class TestSystemState:
    def test_normalizes(self):
        s = SystemState([1, 1])
        np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_already_normalized(self):
        s = SystemState([1, 0])
        np.testing.assert_allclose(s.amplitudes, [1, 0])

    def test_complex_scaling(self):
        s = SystemState([2j, 0, 0])
        np.testing.assert_allclose(s.amplitudes, [1j, 0, 0])

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidState):
            SystemState([0, 0])

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
            s = SystemState(amplitudes)
        np.testing.assert_allclose(s.amplitudes, expected, rtol=1e-15)

    @pytest.mark.parametrize("scale", [1e-140, 1e-20, 1.0, 1e20, 1e150])
    def test_norm_in_the_float_range_divides_directly(self, rng, scale):
        # Every bundled state, and so every golden output, keeps its bits.
        v = scale * random_state_vector(rng, 4)
        assert np.array_equal(SystemState(v).amplitudes, v / np.linalg.norm(v))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(InvalidState, match="non-finite entries"):
            SystemState([1.0, bad])

    def test_dimension_one_rejected(self):
        with pytest.raises(InvalidState):
            SystemState([1.0])

    def test_immutable(self):
        s = SystemState([1, 0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5


class TestObservable:
    # Hermiticity is relative to the largest entry: an absolute 1e-12 let the
    # second through, and eigh, which reads one triangle, saw the zero matrix.
    @pytest.mark.parametrize("matrix", [[[0, 1], [0, 0]], [[0, 2e-13], [0, 0]]],
                             ids=["unit", "tiny"])
    def test_non_hermitian_rejected(self, matrix):
        with pytest.raises(InvalidObservable, match="not Hermitian"):
            Observable(np.array(matrix, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # A NaN makes the Hermiticity residual NaN, which fails no "> tol" test.
        with pytest.raises(InvalidObservable, match="non-finite"):
            Observable(np.array([[bad, 0], [0, 1]]))

    def test_entries_near_the_float_limit_are_checked_without_overflow(self):
        # The residual and the moduli of 1e308 entries overflowed before the check.
        big = 1e308
        Observable(np.array([[big, big * (1 + 1j)], [big * (1 - 1j), -big]]))
        with pytest.raises(InvalidObservable, match="not Hermitian"):
            Observable(np.array([[big * (1 + 1j), big], [-big, big]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidObservable, match="nonempty square matrix"):
            Observable(np.zeros((0, 0)))

    def test_spectral_radius_is_the_largest_eigenvalue_modulus(self, rng):
        assert Observable(PAULI_Z).spectral_radius == 1.0
        assert Observable(np.zeros((3, 3))).spectral_radius == 0.0
        mat = random_hermitian(rng, 4)
        assert Observable(mat).spectral_radius == pytest.approx(
            np.max(np.abs(np.linalg.eigvals(mat))), rel=1e-13)

    @pytest.mark.parametrize("matrix", [np.full((2, 2), 1e308), np.full((4, 4), 1e308)],
                             ids=["2x2", "4x4"])
    def test_overflowing_spectrum_rejected_without_a_warning(self, matrix):
        # Finite and Hermitian, but the largest eigenvalue (d * 1e308) is inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidObservable, match="eigenvalues overflow a float"):
                Observable(matrix)


class TestWeakValue:
    def test_pauli_z_gives_i(self):
        pre = SystemState([1, 1])
        post = SystemState([1, 1j])
        assert weak_value(Observable(PAULI_Z), pre, post) == pytest.approx(1j)

    def test_eigenstate_gives_eigenvalue(self, rng):
        obs = Observable(random_hermitian(rng, 3))
        vals, vecs = np.linalg.eigh(obs.matrix)
        s = SystemState(vecs[:, 1])
        assert weak_value(obs, s, s) == pytest.approx(vals[1])

    def test_pauli_x_plus_to_zero(self):
        pre = SystemState([1, 1])
        post = SystemState([1, 0])
        assert weak_value(Observable(PAULI_X), pre, post) == pytest.approx(1.0)

    def test_orthogonal_postselection_rejected(self):
        pre = SystemState([1, 0])
        post = SystemState([0, 1])
        with pytest.raises(NearOrthogonalPostselection) as err:
            weak_value(Observable(PAULI_Z), pre, post)
        assert err.value.overlap == pytest.approx(0.0, abs=1e-15)

    def test_overflowing_weak_value_rejected(self):
        # |<post|pre>| is 1e-7, above the overlap floor, and <post|A|pre> 1e305.
        pre, post = SystemState([1, 1e-7]), SystemState([0, 1])
        with pytest.raises(WeakValueOverflow, match="is not finite"):
            weak_value(Observable(1e305 * PAULI_X), pre, post)
        assert issubclass(WeakValueOverflow, PointersimError)

    def test_dimension_mismatch(self):
        s = SystemState([1, 0, 0])
        with pytest.raises(DimensionError, match="dimension mismatch"):
            weak_value(Observable(PAULI_Z), s, s)

    def test_equals_expectation_when_post_is_pre(self, rng):
        for d in (2, 3, 4):
            obs = Observable(random_hermitian(rng, d))
            s = SystemState(random_state_vector(rng, d))
            wv = weak_value(obs, s, s)
            assert wv.imag == pytest.approx(0.0, abs=1e-12)
            expected = np.vdot(s.amplitudes, obs.matrix @ s.amplitudes).real
            assert wv.real == pytest.approx(expected, abs=1e-12)

    def test_global_phase_invariance(self, rng):
        obs = Observable(random_hermitian(rng, 3))
        pre = SystemState(random_state_vector(rng, 3))
        post = SystemState(random_state_vector(rng, 3))
        ref = weak_value(obs, pre, post)
        for phase in (0.3, 1.7, -2.4):
            pre2 = SystemState(pre.amplitudes * np.exp(1j * phase))
            post2 = SystemState(post.amplitudes * np.exp(-1j * 2 * phase))
            assert weak_value(obs, pre2, post2) == pytest.approx(ref, abs=1e-12)

