"""Joint evolution: couplings, readout, postselection, first-order path."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from pointersim import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    CouplingSpec,
    DimensionError,
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
from pointersim.pointer import _axis_transform, _normalized
from pointersim.quantum import weak_value
from pointersim.scenarios import (
    build_coupling_specs,
    build_pointer,
    bundled_scenario_names,
    first_order_terms,
    load_bundled,
    resolve_system,
)
from conftest import random_hermitian, source_sites, traced_peak, whole_array_contract


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

    @pytest.mark.parametrize("observable, axis, fragment", [
        (np.eye(3), 0, "observable dim 3 != system dim 2"),
        (PAULI_Z, 1, "axis 1 outside grid with 1 axes"),
    ], ids=["observable-dimension", "axis"])
    def test_rejects_a_spec_that_does_not_fit_the_state(self, observable, axis, fragment):
        joint = make_joint(plus(), gauss1d(points=32))
        with pytest.raises(DimensionError, match=fragment):
            apply_couplings(joint, [CouplingSpec(Observable(observable), axis, "q", 0.1)])

    @pytest.mark.parametrize("strength", [np.nan, np.inf])
    def test_spec_rejects_a_non_finite_strength(self, strength):
        with pytest.raises(ValueError, match="coupling strength must be finite"):
            CouplingSpec(Observable(PAULI_Z), 0, "q", strength)

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


def evolve_steps(specs, simultaneous=False, readout=None):
    """explicit_chain's arguments as evolve's steps: one per spec or one
    group, then the readout as a unit q coupling."""
    steps = [specs] if simultaneous else [[spec] for spec in specs]
    if readout is not None:
        steps.append([CouplingSpec(readout[0], readout[1], "q", 1.0)])
    return steps


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
        pointer, prob = evolve(pre, phi, evolve_steps(specs, simultaneous, readout), POST)
        ref, ref_prob = explicit_chain(pre, phi, specs, POST, simultaneous, readout)
        assert pointer.amplitudes.tobytes() == ref.amplitudes.tobytes()
        assert prob == ref_prob

    def test_leaves_the_pointer_alone(self):
        phi = gauss2d(points=64)
        before = phi.amplitudes.tobytes()
        evolve(plus(), phi, evolve_steps(SEQUENTIAL_QP, readout=READOUT), POST)
        assert phi.amplitudes.tobytes() == before

    def test_readme_sketch_runs(self, capsys):
        # The README's Python sketch calls evolve; it must keep up with it.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (sketch,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        exec(compile(sketch, "README.md", "exec"), {})
        assert capsys.readouterr().out.strip()


class TestPostselect:
    def test_orthogonal_target_fails(self):
        joint = make_joint(SystemState([1, 0]), gauss1d())
        with pytest.raises(PostselectionFailed):
            postselect(joint, SystemState([0, 1]))

    def test_target_of_another_dimension_fails(self):
        joint = make_joint(plus(), gauss1d(points=32))
        with pytest.raises(DimensionError, match="target dim 3 != system dim 2"):
            postselect(joint, SystemState([1, 0, 0]))

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


def whole_array_first_order_pointer(phi, terms):
    """``first_order_pointer`` from whole-grid arrays, in its factor form:
    per pass, the real phase sum of the ``k xi``, then ``exp(1j * phase)``,
    times each ``1 + g xi``, times the amplitudes, factor first.  The q pass
    runs in position unless only p terms are live; the p pass runs on the
    momentum amplitudes of the p terms' axes, which then return to position."""
    grid = phi.grid
    factors = [(axis, quadrature, -lam * np.real(w), lam * np.imag(w))
               for axis, quadrature, lam, w in terms]
    live = {quad: [(axis, k, g) for axis, quadrature, k, g in factors
                   if quadrature == quad and (k or g)] for quad in ("q", "p")}

    def multiply(amps, live_terms, samples):
        xis = [(grid.axis_array(axis, samples(axis)), k, g) for axis, k, g in live_terms]
        phase = np.zeros(grid.shape)
        for xi, k, _g in xis:
            if k:
                np.add(phase, k * xi, out=phase)
        factor = np.exp(1j * phase)
        for xi, _k, g in xis:
            if g:
                factor = factor * (1.0 + g * xi)
        return factor * amps

    amps = phi.amplitudes
    if live["q"] or not live["p"]:
        amps = multiply(amps, live["q"], grid.positions)
    p_axes = sorted({axis for axis, _k, _g in live["p"]})
    for axis in p_axes:
        amps = _axis_transform(amps, grid, axis)
    if p_axes:
        amps = multiply(amps, live["p"], grid.momenta)
    for axis in p_axes:
        amps = _axis_transform(amps, grid, axis, forward=False)
    return _normalized(grid, amps)


def spec_terms(specs, pre, post):
    return [(s.axis, s.quadrature, s.strength, weak_value(s.observable, pre, post))
            for s in specs]


class TestFirstOrderPointer:
    def test_rejects_a_term_off_the_grid(self):
        with pytest.raises(DimensionError, match="axis 1 outside grid with 1 axes"):
            first_order_pointer(gauss1d(points=32), [(1, "q", 0.1, 1j)])

    def test_rejects_a_factor_whose_norm_overflows(self):
        # 1 + g q reaches 8e300 at the grid's edge: finite, but its square is not.
        with np.errstate(over="ignore"), pytest.raises(NormalizationError,
                                                       match="zero or non-finite norm"):
            first_order_pointer(gauss1d(points=32), [(0, "q", 1.0, 1e300j)])

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_pointer_matches_the_whole_array_sum_bit_for_bit(self, name):
        cfg = load_bundled(name)
        terms = first_order_terms(cfg, build_coupling_specs(cfg), resolve_system(cfg))
        phi = build_pointer(cfg)[1]
        assert (first_order_pointer(phi, terms).amplitudes.tobytes()
                == whole_array_first_order_pointer(phi, terms).amplitudes.tobytes())

    @pytest.mark.parametrize("shape", [(32,), (32, 32), (256, 256), (32, 32, 32),
                                       (64, 32, 32)])
    def test_q_and_p_terms_match_the_whole_array_sum_bit_for_bit(self, shape):
        g = Grid(shape, (8.0,) * len(shape))
        phi = gaussian_pointer(g, np.eye(len(shape)) * 0.8)
        last = len(shape) - 1
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "q", 0.03),
                 CouplingSpec(Observable(PAULI_X), last, "q", -0.05),
                 CouplingSpec(Observable(PAULI_Y), last // 2, "p", 0.02),
                 CouplingSpec(Observable(PAULI_X), last, "p", 0.04)]
        terms = spec_terms(specs, plus(), SystemState([1, 0.3 - 0.8j])) + [(last, "q", 1.0, 0.7)]
        assert (first_order_pointer(phi, terms).amplitudes.tobytes()
                == whole_array_first_order_pointer(phi, terms).amplitudes.tobytes())

    def test_zero_strength_gives_readout_shift_only(self):
        phi = gauss2d()
        out = first_order_pointer(phi, [(0, "q", 0.0, 1j), (1, "q", 1.0, 1.0)])
        ref = displace_momentum(phi, [0.0, -1.0])
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) <= 1e-12

    def test_real_weak_value_keeps_position_density(self):
        # A real weak value makes the factor exp(-i lam w q), an exact phase.
        phi = gauss1d()
        lam = 0.05
        specs = [CouplingSpec(Observable(PAULI_Z), 0, "q", lam)]
        out = first_order_pointer(phi, spec_terms(specs, plus(), SystemState([1, 0])))
        drift = np.max(np.abs(np.abs(out.amplitudes) ** 2 - np.abs(phi.amplitudes) ** 2))
        assert drift <= 1e-12

    def test_p_term_traced_peak_stays_within_one_and_a_half_pointers(self):
        # The p pass transforms the one output array in place and forms its
        # factor in block buffers; a whole-grid p * phi beside a sum and the
        # output would peak at 2.16 pointers.
        g = Grid((64, 64, 64), (8.0, 8.0, 8.0))
        phi = gaussian_pointer(g, np.eye(3))
        terms = [(0, "q", 0.05, 1j), (1, "p", 0.05, 0.3 + 1j)]
        out, peak = traced_peak(lambda: first_order_pointer(phi, terms))
        assert peak <= 1.5 * phi.amplitudes.nbytes, f"traced peak {peak / 2**20:.2f} MiB"
        assert out.amplitudes.shape == g.shape

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
            fo_ptr = first_order_pointer(phi, spec_terms([spec], pre, post))
            me, mf = moments(exact_ptr), moments(fo_ptr)
            distances.append(max(abs(me.mean_q[0] - mf.mean_q[0]),
                                 abs(me.mean_p[0] - mf.mean_p[0])))
        slope = np.polyfit(np.log(lams), np.log(distances), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestMixedRepresentationPipeline:
    def test_only_apply_couplings_transforms_the_joint_state(self):
        # Stored states stay in position: the one representation decision
        # is a p-coupling's, and evolve and postselect transform nothing.
        sites = source_sites(lambda node: node.id if isinstance(node, ast.Name)
                             and node.id == "_axis_transform" else None)
        assert {(scope, name) for module, scope, name in sites if module == "dynamics"} == {
            ("apply_couplings", "_axis_transform")}

    def test_displacement_and_first_order_pointer_share_one_block_loop(self):
        # Both multiply the pointer through _multiply_factors; neither walks
        # row blocks of its own.
        names = ("_row_blocks", "_multiply_factors")
        sites = source_sites(
            lambda node: node.id if isinstance(node, ast.Name) and node.id in names else None)
        scopes = ("displace_momentum", "first_order_pointer")
        assert {(scope, name) for _module, scope, name in sites if scope in scopes} == {
            ("displace_momentum", "_multiply_factors"),
            ("first_order_pointer", "_multiply_factors")}

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
