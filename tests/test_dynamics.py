"""Joint evolution: couplings, readout, postselection, first-order path."""

import numpy as np
import pytest

from pointersim import (
    PAULI_X,
    PAULI_Z,
    CouplingSpec,
    Grid,
    Observable,
    PostselectionFailed,
    RepresentationError,
    apply_couplings,
    first_order_pointer,
    gaussian_pointer,
    make_joint,
    make_state,
    moments,
    postselect,
    strong_readout,
    displace_momentum,
)


def plus():
    return make_state([1, 1])


def gauss1d(points=256, extent=8.0, mean=0.0):
    g = Grid((points,), (extent,))
    return gaussian_pointer(g, np.array([[1.0]]), mean_q=np.array([mean]))


def gauss2d(points=128):
    g = Grid((points, points), (8.0, 8.0))
    return gaussian_pointer(g, np.eye(2))


class TestMakeJoint:
    def test_product_structure(self):
        phi = gauss2d()
        joint = make_joint(plus(), phi)
        assert joint.norm_squared() == pytest.approx(1.0, abs=1e-12)
        # Reduced pointer state of either branch reproduces phi's moments.
        pointer, prob = postselect(joint, plus())
        assert prob == pytest.approx(1.0, abs=1e-12)
        m0, m1 = moments(phi), moments(pointer)
        np.testing.assert_allclose(m1.cov_qq, m0.cov_qq, atol=1e-12)
        np.testing.assert_allclose(m1.mean_q, m0.mean_q, atol=1e-12)

    def test_reduced_system_populations(self):
        phi = gauss1d()
        pre = make_state([1, 2j])
        joint = make_joint(pre, phi)
        pops = np.sum(np.abs(joint.amplitudes) ** 2, axis=1) * joint.grid.dq(0)
        np.testing.assert_allclose(pops, np.abs(pre.amplitudes) ** 2, atol=1e-12)


class TestApplyCouplings:
    def test_zero_strength_is_identity(self):
        joint = make_joint(plus(), gauss1d())
        out = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.0)])
        assert np.max(np.abs(out.amplitudes - joint.amplitudes)) == 0.0

    def test_diagonal_coupling_is_pure_phase(self):
        joint = make_joint(plus(), gauss1d())
        out = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.3)])
        np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(joint.amplitudes), atol=1e-12)
        q = joint.grid.positions(0)
        expected = joint.amplitudes[0] * np.exp(-1j * 0.3 * q)
        np.testing.assert_allclose(out.amplitudes[0], expected, atol=1e-12)

    def test_exact_mode_preserves_norm(self):
        joint = make_joint(plus(), gauss2d())
        out = apply_couplings(joint, [
            CouplingSpec(Observable(PAULI_X), 0, "q", 0.7),
            CouplingSpec(Observable(PAULI_Z), 1, "q", 0.4),
        ])
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_commuting_couplings_order_independent(self):
        a1 = Observable(PAULI_Z)
        a2 = Observable(np.diag([2.0, -1.0]).astype(complex))
        joint = make_joint(plus(), gauss2d())
        s1 = CouplingSpec(a1, 0, "q", 0.3)
        s2 = CouplingSpec(a2, 1, "q", 0.2)
        one = apply_couplings(apply_couplings(joint, [s1]), [s2])
        two = apply_couplings(apply_couplings(joint, [s2]), [s1])
        assert np.max(np.abs(one.amplitudes - two.amplitudes)) <= 1e-10
        # A single simultaneous application is permutation invariant by construction.
        both = apply_couplings(joint, [s1, s2])
        both_swapped = apply_couplings(joint, [s2, s1])
        assert np.max(np.abs(both.amplitudes - both_swapped.amplitudes)) <= 1e-12

    def test_simultaneous_noncommuting_observables(self):
        # Pointwise matrix exponential handles [A1, A2] != 0.
        joint = make_joint(plus(), gauss2d())
        out = apply_couplings(joint, [
            CouplingSpec(Observable(PAULI_Z), 0, "q", 0.4),
            CouplingSpec(Observable(PAULI_X), 1, "q", 0.3),
        ])
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_mixed_quadratures_rejected(self):
        joint = make_joint(plus(), gauss2d())
        with pytest.raises(RepresentationError):
            apply_couplings(joint, [
                CouplingSpec(Observable(PAULI_Z), 0, "q", 0.1),
                CouplingSpec(Observable(PAULI_Z), 1, "p", 0.1),
            ])

    def test_momentum_coupling_shifts_position(self):
        # exp(-i lam A p) displaces q by +lam per eigenvalue branch.
        joint = make_joint(make_state([1, 0]), gauss1d())
        out = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "p", 0.5)])
        pointer, _ = postselect(out, make_state([1, 0]))
        assert moments(pointer).mean_q[0] == pytest.approx(0.5, abs=1e-9)


class TestPostselect:
    def test_orthogonal_target_fails(self):
        joint = make_joint(make_state([1, 0]), gauss1d())
        with pytest.raises(PostselectionFailed):
            postselect(joint, make_state([0, 1]))

    def test_probability_without_coupling(self):
        joint = make_joint(plus(), gauss1d())
        _, prob = postselect(joint, make_state([1, 0]))
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_weak_coupling_momentum_kick(self):
        # (Z)_w = 1 for post = |0>: the pointer picks up exactly dp = -lambda.
        joint = make_joint(plus(), gauss1d())
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.05)])
        pointer, prob = postselect(joint, make_state([1, 0]))
        assert moments(pointer).mean_p[0] == pytest.approx(-0.05, abs=1e-9)
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_exact_probability_imaginary_weak_value(self):
        # Centered Gaussian, (Z)_w = i: probability is exactly 1/2.
        joint = make_joint(plus(), gauss1d())
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.05)])
        _, prob = postselect(joint, make_state([1, 1j]))
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_probability_first_order_in_strength(self):
        # Non-centered pointer: prob = |<f|i>|^2 (1 + sin(2 lam mu) e^{-2 lam^2 V}).
        lam, mu = 0.05, 0.3
        joint = make_joint(plus(), gauss1d(mean=mu))
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", lam)])
        _, prob = postselect(joint, make_state([1, 1j]))
        expected = 0.5 * (1.0 + np.sin(2 * lam * mu) * np.exp(-2 * lam**2))
        assert prob == pytest.approx(expected, abs=1e-10)


class TestStrongReadout:
    def test_zero_observable_is_identity(self):
        joint = make_joint(plus(), gauss2d())
        out = strong_readout(joint, Observable(np.zeros((2, 2))), 1)
        assert np.max(np.abs(out.amplitudes - joint.amplitudes)) <= 1e-12

    def test_eigenstate_momentum_offset(self):
        # System in the eigenvalue-1 eigenstate of a projector: dp = -1 exactly.
        proj = Observable(np.diag([1.0, 0.0]).astype(complex))
        joint = make_joint(make_state([1, 0]), gauss2d())
        out = strong_readout(joint, proj, 1)
        pointer, prob = postselect(out, make_state([1, 0]))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert moments(pointer).mean_p[1] == pytest.approx(-1.0, abs=1e-9)

    def test_superposition_branch_offsets(self):
        # Postselecting each eigenbranch reads that branch's eigenvalue.
        a3 = Observable(np.diag([2.0, -1.0]).astype(complex))
        joint = make_joint(plus(), gauss2d())
        out = strong_readout(joint, a3, 1)
        for target, eig in ((make_state([1, 0]), 2.0), (make_state([0, 1]), -1.0)):
            pointer, prob = postselect(out, target)
            assert prob == pytest.approx(0.5, abs=1e-12)
            assert moments(pointer).mean_p[1] == pytest.approx(-eig, abs=1e-9)


class TestFirstOrderPointer:
    def test_zero_strength_gives_readout_shift_only(self):
        phi = gauss2d()
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.0)]
        out = first_order_pointer(plus(), make_state([1, 1j]), specs, phi,
                                  readout_axis=1, readout_eigenvalue=1.0)
        ref = displace_momentum(phi, [0.0, -1.0])
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) <= 1e-12

    def test_real_weak_value_keeps_position_density(self):
        # 1 - i lam w q with real w changes |phi|^2 only at O(lam^2).
        phi = gauss1d()
        lam = 0.05
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "q", lam)]
        out = first_order_pointer(plus(), make_state([1, 0]), specs, phi)
        drift = np.max(np.abs(np.abs(out.amplitudes) ** 2 - np.abs(phi.amplitudes) ** 2))
        assert drift <= 5 * lam**2

    def test_truncation_error_is_second_order(self):
        # Moment distance between first-order and exact paths scales as lam^2.
        proj0 = Observable(np.diag([1.0, 0.0]).astype(complex))
        pre, post = plus(), make_state([1, 1j])  # (proj0)_w = (1+i)/2
        g = Grid((256,), (8.0,))
        phi = gaussian_pointer(g, np.array([[1.0]]), mean_q=np.array([0.25]))
        distances = []
        lams = (0.2, 0.1, 0.05, 0.025)
        for lam in lams:
            spec = CouplingSpec(proj0, 0, "q", lam)
            joint = apply_couplings(make_joint(pre, phi), [spec])
            exact_ptr, _ = postselect(joint, post)
            fo_ptr = first_order_pointer(pre, post, [spec], phi)
            me, mf = moments(exact_ptr), moments(fo_ptr)
            distances.append(max(abs(me.mean_q[0] - mf.mean_q[0]),
                                 abs(me.mean_p[0] - mf.mean_p[0])))
        slope = np.polyfit(np.log(lams), np.log(distances), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestMixedRepresentationPipeline:
    def test_momentum_coupling_then_strong_readout(self):
        # Axis 1 sits in momentum representation when the readout hits axis 2;
        # the bookkeeping must transform each axis independently.
        post = make_state([1, 1j])
        proj = Observable(np.outer(post.amplitudes, post.amplitudes.conj()))
        joint = make_joint(plus(), gauss2d())
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "p", 0.05)])
        joint = strong_readout(joint, proj, 1)
        pointer, _ = postselect(joint, post)
        m = moments(pointer)
        # (Z)_w = i: a p-coupling moves the p1 mean by 2 lam Im(w) var(p1);
        # q1 stays put (no same-axis q-p covariance in a real Gaussian).
        assert m.mean_p[0] == pytest.approx(2 * 0.05 * 0.25, abs=3 * 0.05**2)
        assert m.mean_q[0] == pytest.approx(0.0, abs=3 * 0.05**2)
        assert m.mean_p[1] == pytest.approx(-1.0, abs=1e-9)


class TestClosedFormExactShifts:
    """The exact postselected shift has a closed form for a Z coupling on a
    Gaussian pointer: with (Z)_w = i the reweighting is 1 + sin(2 lam q), so
    <q>_f = 2 lam V exp(-2 lam^2 V) for a centered marginal of variance V.
    Pinning the full nonperturbative pipeline, not just its first order."""

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.5])
    def test_exact_q_shift_closed_form(self, lam):
        joint = make_joint(plus(), gauss1d())
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", lam)])
        pointer, _ = postselect(joint, make_state([1, 1j]))
        expected = 2 * lam * np.exp(-2 * lam**2)
        assert moments(pointer).mean_q[0] == pytest.approx(expected, abs=1e-10)

    def test_exact_cross_axis_shift_closed_form(self):
        # Jointly Gaussian axes with covariance C12: <q2>_f = 2 lam C12 e^{-2 lam^2 V1}.
        lam, c12 = 0.3, 0.5
        g = Grid((256, 256), (8.0, 8.0))
        phi = gaussian_pointer(g, np.array([[1.0, c12], [c12, 1.0]]))
        joint = make_joint(plus(), phi)
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", lam)])
        pointer, _ = postselect(joint, make_state([1, 1j]))
        expected = 2 * lam * c12 * np.exp(-2 * lam**2)
        assert moments(pointer).mean_q[1] == pytest.approx(expected, abs=1e-9)
