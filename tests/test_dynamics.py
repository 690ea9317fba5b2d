"""Joint evolution: couplings, readout, postselection, first-order path."""

import ast

import numpy as np
import pytest

from pointersim import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    CouplingSpec,
    Grid,
    JointState,
    NormalizationError,
    Observable,
    PostselectionFailed,
    RepresentationError,
    SystemState,
    apply_couplings,
    evolve,
    first_order_pointer,
    gaussian_pointer,
    make_joint,
    moments,
    postselect,
    strong_readout,
    displace_momentum,
)
from pointersim.dynamics import _contract
from pointersim.pointer import _apply_momentum, _axis_transform, _normalized
from pointersim.quantum import weak_value
from pointersim.scenarios import (
    build_coupling_specs,
    build_pointer,
    bundled_scenario_names,
    load_bundled,
    resolve_system,
)
from conftest import (random_hermitian, source_sites, whole_array_contract,
                      whole_array_displace_momentum)


def plus():
    return SystemState([1, 1])


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

    def test_nan_amplitudes_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NormalizationError):
                JointState(Grid((32,), (8.0,)), np.full((2, 32), bad))

    def test_constructor_copies_caller_array(self):
        caller = make_joint(plus(), gauss1d(32)).amplitudes.copy()
        joint = JointState(Grid((32,), (8.0,)), caller)
        assert caller.flags.writeable
        before = joint.amplitudes.tobytes()
        caller *= 2.0
        assert joint.amplitudes.tobytes() == before
        assert not joint.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            joint.amplitudes[0, 0] = 0.0

    def test_reduced_system_populations(self):
        phi = gauss1d()
        pre = SystemState([1, 2j])
        joint = make_joint(pre, phi)
        pops = np.sum(np.abs(joint.amplitudes) ** 2, axis=1) * joint.grid.dq(0)
        np.testing.assert_allclose(pops, np.abs(pre.amplitudes) ** 2, atol=1e-12)


def batched_eigh_couplings(state, specs):
    """Reference for apply_couplings: the whole-grid pointwise generator
    ``sum_k lambda_k xi_k A_k``, one batched ``eigh`` over every cell, and the
    rotation into its eigenbasis and back by whole-array multiply-adds.  The
    p-axes go to momentum and back around it."""
    quadrature = specs[0].quadrature
    grid, amps, d = state.grid, state.amplitudes, state.system_dim
    p_axes = sorted({s.axis for s in specs}) if quadrature == "p" else []
    for axis in p_axes:
        amps = _axis_transform(amps, grid, axis)
    gen = np.zeros(grid.shape + (d, d), dtype=complex)
    for s in specs:
        xi = grid.axis_array(s.axis, grid.positions(s.axis) if quadrature == "q"
                             else grid.momenta(s.axis))
        gen += s.strength * xi[..., None, None] * s.observable.matrix
    w, v = np.linalg.eigh(gen)
    rotated = whole_array_contract(v.conj(), amps)
    np.multiply(rotated, np.exp(-1j * np.moveaxis(w, -1, 0)), out=rotated)
    result = whole_array_contract(np.swapaxes(v, -1, -2), rotated)
    for axis in p_axes:
        result = _axis_transform(result, grid, axis, forward=False)
    return result


def hadamard_rotated(diagonal):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return Observable(h @ np.diag(diagonal) @ h)


# The eigenbases that the bundled scenarios' observables rotate into.
BUNDLED_OBSERVABLES = {
    "pauli_x": PAULI_X,
    "pauli_y": PAULI_Y,
    "pauli_z": PAULI_Z,
    "proj0": np.diag([1.0, 0.0]).astype(complex),
    "hadamard": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
}


class TestContract:
    """``_contract`` against the ``einsum`` formulas it replaced."""

    @staticmethod
    def contractions(v, target, src):
        """``(got, einsum's, m, operand)`` of the rotation into the basis ``v``,
        the rotation back, and the projection onto ``target``."""
        tmp, bra = np.empty(src.shape[1:], dtype=complex), target.conj()[:, None]
        into, back, proj = np.empty_like(src), np.empty_like(src), np.empty_like(src[:1])
        _contract(v.conj(), src, into, tmp)
        _contract(np.swapaxes(v, -1, -2), into, back, tmp)
        _contract(bra, src, proj, tmp)
        return [(into, np.einsum("...ij,i...->j...", v.conj(), src), v.conj(), src),
                (back, np.einsum("...ij,j...->i...", v, into), np.swapaxes(v, -1, -2), into),
                (proj, np.einsum("a,a...->...", target.conj(), src)[None], bra, src)]

    @pytest.mark.parametrize("name", sorted(BUNDLED_OBSERVABLES))
    def test_bundled_bases_match_einsum_bit_for_bit(self, name, rng):
        # Entries that are real or imaginary take no FMA in numpy's complex
        # multiply, so each product and sum rounds as in einsum.
        _w, v = np.linalg.eigh(BUNDLED_OBSERVABLES[name])
        src = rng.normal(size=(2, 8, 32)) + 1j * rng.normal(size=(2, 8, 32))
        for got, ref, _m, _x in self.contractions(v, v[:, 0], src):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_bases_within_a_few_ulps_of_einsum(self, d, rng):
        # One basis for all cells, then one per cell (the per-block eigh);
        # the bound is 4 eps times sum_i |m_ij| |x_i|.
        src = rng.normal(size=(d, 4, 16)) + 1j * rng.normal(size=(d, 4, 16))
        per_cell = np.array([random_hermitian(rng, d) for _ in range(64)]).reshape(4, 16, d, d)
        target = rng.normal(size=d) + 1j * rng.normal(size=d)
        for mat in (random_hermitian(rng, d), per_cell):
            _w, v = np.linalg.eigh(mat)
            for got, ref, m, x in self.contractions(v, target, src):
                scale = whole_array_contract(np.abs(m), np.abs(x))
                assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)

    def test_dynamics_has_no_einsum(self):
        sites = source_sites(lambda node: node.attr if isinstance(node, ast.Attribute)
                             and node.attr == "einsum" else None)
        assert not {site for site in sites if site[0] == "dynamics"}


class TestApplyCouplings:
    @pytest.mark.parametrize("quadrature", ["q", "p"])
    def test_zero_strength_is_identity(self, quadrature):
        joint = make_joint(plus(), gauss1d())
        out = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, quadrature, 0.0)])
        assert out is joint

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
        # No basis diagonalizes [A1, A2] != 0: each block's pointwise
        # generator goes to eigh, which gives the whole-grid eigh's bits.
        joint = make_joint(plus(), gauss2d())
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.4),
                 CouplingSpec(Observable(PAULI_X), 1, "q", 0.3)]
        out = apply_couplings(joint, specs)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)
        assert out.amplitudes.tobytes() == batched_eigh_couplings(joint, specs).tobytes()

    def test_noncommuting_triple_on_three_axes_matches_batched_eigh(self):
        phi = gaussian_pointer(Grid((32, 32, 32), (8.0,) * 3), np.eye(3))
        joint = make_joint(SystemState([1, 2j]), phi)
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "p", 0.4),
                 CouplingSpec(Observable(PAULI_X), 1, "p", 0.3),
                 CouplingSpec(Observable(PAULI_Y), 2, "p", 0.2)]
        out = apply_couplings(joint, specs)
        assert out.amplitudes.tobytes() == batched_eigh_couplings(joint, specs).tobytes()

    def test_lg_probe_diagonal_pair_matches_batched_eigh(self):
        # pauli_z and proj0 share the standard basis, so the pair is phased
        # in it with one 2x2 eigh, and keeps the per-cell eigh's bits.
        cfg = load_bundled("lg_probe")
        joint = make_joint(cfg.pre, build_pointer(cfg)[1])
        specs = build_coupling_specs(cfg)
        out = apply_couplings(joint, specs)
        assert out.amplitudes.tobytes() == batched_eigh_couplings(joint, specs).tobytes()

    def test_degenerate_commuting_triple_matches_batched_eigh(self):
        # The weighted sum A0 + (1+pi) A1 + (1+2pi) A2 of these commuting
        # terms is a multiple of the identity, so its eigenbasis is arbitrary
        # and need not diagonalize them: the diagonalization check must send
        # the call to the per-block eigh.
        joint = make_joint(SystemState([1, 2j]), gauss2d(points=64))
        specs = [CouplingSpec(hadamard_rotated([1.0, 0.0]), 0, "q", 0.4),
                 CouplingSpec(hadamard_rotated([0.0, 2.0]), 1, "q", 0.3),
                 CouplingSpec(hadamard_rotated([1.0, 0.0]), 0, "q", 0.2)]
        out = apply_couplings(joint, specs)
        assert np.max(np.abs(out.amplitudes - batched_eigh_couplings(joint, specs))) <= 1e-12

    def test_rotated_commuting_pair_matches_batched_eigh(self):
        # A shared non-standard basis phases in other bits than per-cell eigh.
        joint = make_joint(SystemState([1, 2j]), gauss2d(points=64))
        specs = [CouplingSpec(hadamard_rotated([1.0, -1.0]), 0, "q", 0.4),
                 CouplingSpec(hadamard_rotated([1.0, 0.0]), 1, "q", 0.3)]
        out = apply_couplings(joint, specs)
        assert np.max(np.abs(out.amplitudes - batched_eigh_couplings(joint, specs))) <= 1e-12

    def test_mixed_quadratures_rejected(self):
        joint = make_joint(plus(), gauss2d())
        with pytest.raises(RepresentationError):
            apply_couplings(joint, [
                CouplingSpec(Observable(PAULI_Z), 0, "q", 0.1),
                CouplingSpec(Observable(PAULI_Z), 1, "p", 0.1),
            ])

    def test_momentum_coupling_shifts_position(self):
        # exp(-i lam A p) displaces q by +lam per eigenvalue branch.
        joint = make_joint(SystemState([1, 0]), gauss1d())
        out = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "p", 0.5)])
        pointer, _ = postselect(out, SystemState([1, 0]))
        assert moments(pointer).mean_q[0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("specs", [
        [CouplingSpec(Observable(PAULI_X), 0, "q", 0.3)],
        [CouplingSpec(Observable(PAULI_X), 1, "p", 0.3)],
        [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.4),
         CouplingSpec(Observable(PAULI_X), 1, "q", 0.3)],
    ], ids=["single_q", "single_p", "simultaneous"])
    def test_leaves_the_input_state_alone(self, specs):
        # The kernels multiply their own fresh arrays in place: the input
        # amplitudes keep their bits and share no memory with the output.
        # The second call starts from the first call's output.
        state = make_joint(SystemState([1, 1j]), gauss2d(points=64))
        for _ in range(2):
            before = state.amplitudes.tobytes()
            out = apply_couplings(state, specs)
            assert state.amplitudes.tobytes() == before
            assert not np.shares_memory(out.amplitudes, state.amplitudes)
            state = out


def explicit_chain(pre, phi, specs, post, simultaneous=False, readout=None):
    """Reference for evolve: make_joint, the couplings, the strong readout
    and postselect, written out call by call."""
    joint = make_joint(pre, phi)
    if simultaneous:
        if specs:
            joint = apply_couplings(joint, specs)
    else:
        for spec in specs:
            joint = apply_couplings(joint, [spec])
    if readout is not None:
        joint = strong_readout(joint, readout[0], readout[1])
    return postselect(joint, post)


POST = SystemState([1, 1j])
READOUT = (Observable(np.outer(POST.amplitudes, POST.amplitudes.conj())), 1)
SEQUENTIAL_QP = [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.2),
                 CouplingSpec(Observable(PAULI_X), 1, "p", 0.15)]
SIMULTANEOUS_PAIR = [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.4),
                     CouplingSpec(Observable(PAULI_X), 1, "q", 0.3)]
SEQUENTIAL_3D = [CouplingSpec(Observable(PAULI_Z), 2, "p", 0.2),
                 CouplingSpec(Observable(PAULI_X), 0, "p", 0.15),
                 CouplingSpec(Observable(PAULI_X), 1, "q", 0.1)]
SIMULTANEOUS_P_PAIR = [CouplingSpec(Observable(PAULI_Z), 0, "p", 0.4),
                       CouplingSpec(Observable(PAULI_X), 1, "p", 0.3)]


class TestEvolve:
    # evolve writes every step into one joint buffer; the explicit chain's
    # public calls each allocate a fresh array.  The cases reach the
    # shared-basis and the per-block eigh kernels in q and in p, and
    # transforms along every axis of a 3-axis grid.
    @pytest.mark.parametrize("specs, simultaneous, points", [
        (SEQUENTIAL_QP, False, (64, 64)),
        (SIMULTANEOUS_PAIR, True, (64, 64)),
        ([], False, (64, 64)),
        ([], True, (64, 64)),
        (SEQUENTIAL_3D, False, (32, 32, 32)),
        (SIMULTANEOUS_P_PAIR, True, (64, 64)),
    ], ids=["sequential_q_p", "simultaneous_pair", "empty", "empty_simultaneous",
            "sequential_3d", "simultaneous_p_pair"])
    @pytest.mark.parametrize("readout", [None, READOUT], ids=["direct", "readout"])
    def test_equals_the_explicit_chain_bit_for_bit(self, specs, simultaneous, points, readout):
        pre = SystemState([1, 2j])
        dims = len(points)
        sigma = np.full((dims, dims), 0.3) + 0.7 * np.eye(dims)
        theta = np.full((dims, dims), 0.2) - 0.2 * np.eye(dims)
        phi = gaussian_pointer(Grid(points, (8.0,) * dims), sigma, theta=theta)
        pointer, prob = evolve(pre, phi, specs, POST, simultaneous=simultaneous,
                               readout=readout)
        ref, ref_prob = explicit_chain(pre, phi, specs, POST, simultaneous, readout)
        assert pointer.amplitudes.tobytes() == ref.amplitudes.tobytes()
        assert prob == ref_prob

    def test_leaves_the_pointer_alone(self):
        phi = gauss2d(points=64)
        before = phi.amplitudes.tobytes()
        evolve(plus(), phi, SEQUENTIAL_QP, POST, readout=READOUT)
        assert phi.amplitudes.tobytes() == before


class TestPostselect:
    def test_orthogonal_target_fails(self):
        joint = make_joint(SystemState([1, 0]), gauss1d())
        with pytest.raises(PostselectionFailed):
            postselect(joint, SystemState([0, 1]))

    def test_probability_without_coupling(self):
        joint = make_joint(plus(), gauss1d())
        _, prob = postselect(joint, SystemState([1, 0]))
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_weak_coupling_momentum_kick(self):
        # (Z)_w = 1 for post = |0>: the pointer picks up exactly dp = -lambda.
        joint = make_joint(plus(), gauss1d())
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.05)])
        pointer, prob = postselect(joint, SystemState([1, 0]))
        assert moments(pointer).mean_p[0] == pytest.approx(-0.05, abs=1e-9)
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_exact_probability_imaginary_weak_value(self):
        # Centered Gaussian, (Z)_w = i: probability is exactly 1/2.
        joint = make_joint(plus(), gauss1d())
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.05)])
        _, prob = postselect(joint, SystemState([1, 1j]))
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_probability_first_order_in_strength(self):
        # Non-centered pointer: prob = |<f|i>|^2 (1 + sin(2 lam mu) e^{-2 lam^2 V}).
        lam, mu = 0.05, 0.3
        joint = make_joint(plus(), gauss1d(mean=mu))
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", lam)])
        _, prob = postselect(joint, SystemState([1, 1j]))
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
        joint = make_joint(SystemState([1, 0]), gauss2d())
        out = strong_readout(joint, proj, 1)
        pointer, prob = postselect(out, SystemState([1, 0]))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert moments(pointer).mean_p[1] == pytest.approx(-1.0, abs=1e-9)

    def test_superposition_branch_offsets(self):
        # Postselecting each eigenbranch reads that branch's eigenvalue.
        a3 = Observable(np.diag([2.0, -1.0]).astype(complex))
        joint = make_joint(plus(), gauss2d())
        out = strong_readout(joint, a3, 1)
        for target, eig in ((SystemState([1, 0]), 2.0), (SystemState([0, 1]), -1.0)):
            pointer, prob = postselect(out, target)
            assert prob == pytest.approx(0.5, abs=1e-12)
            assert moments(pointer).mean_p[1] == pytest.approx(-eig, abs=1e-9)


def whole_array_first_order_pointer(pre, post, specs, phi, readout_axis=None,
                                    readout_eigenvalue=0.0):
    """``first_order_pointer`` with each q-term's ``xi * amps`` formed as a
    whole-grid array, scaled in place and added into the sum."""
    grid = phi.grid
    amps = phi.amplitudes
    if readout_axis is not None and readout_eigenvalue != 0.0:
        shifts = np.zeros(grid.dims)
        shifts[readout_axis] = -readout_eigenvalue
        amps = whole_array_displace_momentum(phi, shifts)
    delta = np.zeros_like(amps)
    for s in specs:
        if s.strength == 0.0:
            continue
        if s.quadrature == "q":
            xi_amps = grid.axis_array(s.axis, grid.positions(s.axis)) * amps
        else:
            xi_amps = _apply_momentum(amps, grid, s.axis)
        w = weak_value(s.observable, pre, post)
        np.add(delta, np.multiply(s.strength * w, xi_amps, out=xi_amps), out=delta)
    return _normalized(grid, np.subtract(amps, np.multiply(1j, delta, out=delta), out=delta))


class TestFirstOrderPointer:
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_pointer_matches_the_whole_array_sum_bit_for_bit(self, name):
        cfg = load_bundled(name)
        pre, post, _obs, a_l = resolve_system(cfg)
        specs = build_coupling_specs(cfg)
        phi = build_pointer(cfg)[1]
        args = (pre, post, specs, phi, cfg.readout_axis0, a_l)
        assert (first_order_pointer(*args).amplitudes.tobytes()
                == whole_array_first_order_pointer(*args).amplitudes.tobytes())

    @pytest.mark.parametrize("shape", [(32,), (32, 32), (256, 256), (32, 32, 32),
                                       (64, 32, 32)])
    def test_q_and_p_terms_match_the_whole_array_sum_bit_for_bit(self, shape):
        g = Grid(shape, (8.0,) * len(shape))
        phi = gaussian_pointer(g, np.eye(len(shape)) * 0.8)
        last = len(shape) - 1
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.03),
                 CouplingSpec(Observable(PAULI_X), last, "q", -0.05),
                 CouplingSpec(Observable(PAULI_Y), last // 2, "p", 0.02)]
        args = (plus(), SystemState([1, 0.3 - 0.8j]), specs, phi, last, 0.7)
        assert (first_order_pointer(*args).amplitudes.tobytes()
                == whole_array_first_order_pointer(*args).amplitudes.tobytes())

    def test_zero_strength_gives_readout_shift_only(self):
        phi = gauss2d()
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.0)]
        out = first_order_pointer(plus(), SystemState([1, 1j]), specs, phi,
                                  readout_axis=1, readout_eigenvalue=1.0)
        ref = displace_momentum(phi, [0.0, -1.0])
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) <= 1e-12

    def test_real_weak_value_keeps_position_density(self):
        # 1 - i lam w q with real w changes |phi|^2 only at O(lam^2).
        phi = gauss1d()
        lam = 0.05
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "q", lam)]
        out = first_order_pointer(plus(), SystemState([1, 0]), specs, phi)
        drift = np.max(np.abs(np.abs(out.amplitudes) ** 2 - np.abs(phi.amplitudes) ** 2))
        assert drift <= 5 * lam**2

    def test_truncation_error_is_second_order(self):
        # Moment distance between first-order and exact paths scales as lam^2.
        proj0 = Observable(np.diag([1.0, 0.0]).astype(complex))
        pre, post = plus(), SystemState([1, 1j])  # (proj0)_w = (1+i)/2
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
    def test_only_apply_couplings_transforms_the_joint_state(self):
        # Stored states stay in position: the one representation decision
        # is a p-coupling's, and evolve and postselect transform nothing.
        names = ("_axis_transform", "_apply_momentum")
        sites = source_sites(
            lambda node: node.id if isinstance(node, ast.Name) and node.id in names else None)
        assert {(scope, name) for module, scope, name in sites if module == "dynamics"} == {
            ("apply_couplings", "_axis_transform"), ("first_order_pointer", "_apply_momentum")}

    def test_momentum_coupling_then_strong_readout(self):
        # The p-coupling on axis 1 returns its state in position, so the
        # readout on axis 2 and the postselection see position amplitudes.
        post = SystemState([1, 1j])
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
        pointer, _ = postselect(joint, SystemState([1, 1j]))
        expected = 2 * lam * np.exp(-2 * lam**2)
        assert moments(pointer).mean_q[0] == pytest.approx(expected, abs=1e-10)

    def test_exact_cross_axis_shift_closed_form(self):
        # Jointly Gaussian axes with covariance C12: <q2>_f = 2 lam C12 e^{-2 lam^2 V1}.
        lam, c12 = 0.3, 0.5
        g = Grid((256, 256), (8.0, 8.0))
        phi = gaussian_pointer(g, np.array([[1.0, c12], [c12, 1.0]]))
        joint = make_joint(plus(), phi)
        joint = apply_couplings(joint, [CouplingSpec(Observable(PAULI_Z), 0, "q", lam)])
        pointer, _ = postselect(joint, SystemState([1, 1j]))
        expected = 2 * lam * c12 * np.exp(-2 * lam**2)
        assert moments(pointer).mean_q[1] == pytest.approx(expected, abs=1e-9)
