"""Grids, transforms, Gaussian and vortex states, moment functionals."""

import ast

import numpy as np
import pytest

from pointersim import (
    DimensionError,
    Grid,
    GridCoverage,
    InvalidCovariance,
    InvalidParams,
    NormalizationError,
    PointerWavefunction,
    TwoModeGaussianParams,
    auto_grid,
    displace_momentum,
    gaussian_pointer,
    lg_mode,
    means,
    moments,
    two_mode_gaussian,
)
from pointersim.dynamics import JointState
from pointersim.pointer import (
    _axis_transform,
    _mass,
    _multiply_factors,
    check_gaussian_params,
    gaussian_spreads,
    kick_gap,
    lg_spreads,
)
from conftest import (
    dense_axis_transform,
    oracle_mixed_moment,
    source_sites,
    traced_peak,
    whole_array_displace_momentum,
)


def grid2(points=128, extent=8.0):
    return Grid(points_per_axis=(points, points), extent=(extent, extent))


class TestGrid:
    def test_fourier_duality(self):
        g = Grid((64, 128, 32), (5.0, 8.0, 4.0))
        for j in range(3):
            assert g.dq(j) * g.dp(j) * g.points_per_axis[j] == pytest.approx(2 * np.pi, rel=1e-15)

    @pytest.mark.parametrize("points", [16, 31, 33, 100])
    def test_rejects_bad_point_counts(self, points):
        with pytest.raises(DimensionError):
            Grid((points,), (8.0,))

    @pytest.mark.parametrize("points", [(2**30, 256), (2048, 2048), (256, 128, 128)])
    def test_rejects_more_cells_than_the_cap(self, points):
        # A Grid holds no arrays, so the rejected sizes allocate nothing.
        with pytest.raises(DimensionError, match="exceed the limit of 2097152"):
            Grid(points, (8.0,) * len(points))
        assert Grid((128, 128, 128), (8.0,) * 3).shape == (128, 128, 128)

    def test_rejects_extents_of_another_length(self):
        with pytest.raises(DimensionError, match="points_per_axis and extent lengths differ"):
            Grid((32, 32), (8.0,))

    def test_rejects_four_axes(self):
        with pytest.raises(DimensionError):
            Grid((32, 32, 32, 32), (4.0, 4.0, 4.0, 4.0))

    @pytest.mark.parametrize("extent, space", [(1e-154, "position"), (1e155, "momentum")])
    def test_rejects_cell_volumes_outside_the_float_range(self, extent, space):
        # 256 points over a half-width of 1e-154: dq^2 is subnormal (and
        # dp^2 inf); over 1e155, dp^2 is subnormal.
        with pytest.raises(DimensionError, match=f"{space} cell volume"):
            Grid((256, 256), (extent, extent))


def numpy_fft_label(node):
    """The name of a ``*.fft.<name>`` attribute other than ``fftfreq``, or
    "import" for an import from ``numpy.fft``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "fft" and node.attr != "fftfreq"):
        return node.attr
    if isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
        return "import"
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
        return "import"
    return None


def momentum_half_width_label(node):
    """"pi/dq" for an expression ``<...>.pi / <...>.dq(...)``, the momentum
    half-width of a grid axis."""
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Attribute) and node.left.attr == "pi"
            and isinstance(node.right, ast.Call) and isinstance(node.right.func, ast.Attribute)
            and node.right.func.attr == "dq"):
        return "pi/dq"
    return None


def kick_rule_label(node):
    """The name of a call to ``resolution_floor`` or ``kick_gap``."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("resolution_floor", "kick_gap"):
            return name
    return None


class TestTransforms:
    def test_fft_is_called_only_in_the_axis_transform(self):
        # One q <-> p transform: every other module goes through it.
        assert source_sites(numpy_fft_label) == {("pointer", "_axis_transform", "fft"),
                                                 ("pointer", "_axis_transform", "ifft")}

    def test_gaussian_momentum_variance(self):
        # Fourier pair: position variance s^2 maps to momentum variance 1/(4 s^2).
        for s2 in (0.5, 1.0, 2.0):
            g = Grid((256,), (8.0 * max(1.0, np.sqrt(s2)),))
            m = moments(gaussian_pointer(g, np.array([[s2]])))
            assert m.cov_pp[0, 0] == pytest.approx(1.0 / (4.0 * s2), rel=1e-9)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_axis_transform_matches_dense_oracle(self, axis, rng):
        # One transform serves pointer-shaped (*grid) and joint-shaped
        # (2, *grid) arrays; the joint case runs the FFT on a shifted array axis.
        g = Grid((32, 64, 32), (5.0, 8.0, 4.0))
        pointer = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        joint = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(size=(2,) + g.shape)
        np.testing.assert_allclose(_axis_transform(pointer, g, axis),
                                   dense_axis_transform(pointer, g, axis), atol=1e-12)
        expected = np.stack([dense_axis_transform(part, g, axis) for part in joint])
        np.testing.assert_allclose(_axis_transform(joint, g, axis), expected, atol=1e-12)
        for arr in (pointer, joint):
            forward = _axis_transform(arr, g, axis)
            # Parseval: sum |psi_p|^2 dp = sum |psi_q|^2 dq along the axis.
            assert np.sum(np.abs(forward) ** 2) * g.dp(axis) == pytest.approx(
                np.sum(np.abs(arr) ** 2) * g.dq(axis), rel=1e-12)
            back = _axis_transform(forward, g, axis, forward=False)
            np.testing.assert_allclose(back, arr, atol=1e-12)

    def test_plane_wave_shift_theorem(self):
        g = Grid((128,), (8.0,))
        m = moments(gaussian_pointer(g, np.array([[1.0]]), mean_p=np.array([0.7])))
        assert m.mean_p[0] == pytest.approx(0.7, abs=1e-9)


class TestGaussianPointer:
    def test_factorizable(self):
        m = moments(gaussian_pointer(grid2(), np.eye(2)))
        np.testing.assert_allclose(m.cov_qq, np.eye(2), atol=1e-9)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_correlated_covariance(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        m = moments(gaussian_pointer(grid2(256), sigma))
        np.testing.assert_allclose(m.cov_qq, sigma, atol=1e-6)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_phase_qp_correlation(self):
        # cov_qp = sigma @ theta; frozen from the Gaussian moment relations.
        theta = np.array([[0.0, 0.3], [0.3, 0.0]])
        m = moments(gaussian_pointer(grid2(256), np.eye(2), theta=theta))
        assert m.cov_qp[0, 1] == pytest.approx(0.3, abs=1e-6)
        assert m.cov_qp[1, 0] == pytest.approx(0.3, abs=1e-6)
        np.testing.assert_allclose(m.cov_pp, 0.25 * np.eye(2) + theta @ theta, atol=1e-6)

    def test_quadratic_phase_same_axis_qp_covariance(self):
        # The symmetrized diagonal also follows sigma @ theta; zero for a real state.
        theta = np.array([[0.4, 0.0], [0.0, 0.0]])
        m = moments(gaussian_pointer(grid2(256), np.eye(2), theta=theta))
        assert m.cov_qp[0, 0] == pytest.approx(0.4, abs=1e-6)
        assert m.cov_qp[1, 1] == pytest.approx(0.0, abs=1e-9)
        m_real = moments(gaussian_pointer(grid2(), np.eye(2)))
        assert m_real.cov_qp[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_qp_correlation_against_dense_oracle(self):
        theta = np.array([[0.0, 0.3], [0.3, 0.0]])
        phi = gaussian_pointer(grid2(64), np.eye(2), theta=theta)
        assert oracle_mixed_moment(phi, 0, 1) == pytest.approx(0.3, abs=1e-4)

    def test_vortex_correlations_against_dense_oracle(self):
        phi = lg_mode(Grid((64, 64), (9.0, 9.0)), 1, 1.0)
        assert oracle_mixed_moment(phi, 0, 1) == pytest.approx(0.5, abs=1e-4)
        assert oracle_mixed_moment(phi, 1, 0) == pytest.approx(-0.5, abs=1e-4)

    def test_three_axis_constructor_contract(self):
        sigma = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
        g = Grid((64, 64, 64), (8.0, 8.0, 8.0))
        m = moments(gaussian_pointer(g, sigma))
        np.testing.assert_allclose(m.cov_qq, sigma, atol=1e-6)
        np.testing.assert_allclose(m.cov_pp, 0.25 * np.linalg.inv(sigma), atol=1e-6)

    def test_means(self):
        m = moments(gaussian_pointer(grid2(), np.eye(2),
                                     mean_q=np.array([0.25, -0.15]),
                                     mean_p=np.array([0.1, 0.2])))
        np.testing.assert_allclose(m.mean_q, [0.25, -0.15], atol=1e-9)
        np.testing.assert_allclose(m.mean_p, [0.1, 0.2], atol=1e-9)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidCovariance):
            gaussian_pointer(grid2(), np.array([[1.0, 1.2], [1.2, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_sigma_or_theta(self, bad):
        nonfinite = np.array([[bad, 0.0], [0.0, 1.0]])
        for sigma, theta in ((nonfinite, None), (np.eye(2), nonfinite)):
            with pytest.raises(InvalidCovariance, match="finite"):
                check_gaussian_params(sigma, theta)

    @pytest.mark.parametrize("sigma, theta", [
        (np.eye(2), np.full((2, 2), 1e308)),
        (np.array([[1e-320]]), None),
        (np.array([[1.0, 1e308], [-1e308, 1.0]]), None),
    ], ids=["theta-sigma-theta", "inverse-sigma", "asymmetric-huge"])
    def test_rejects_an_overflowing_covariance_without_a_warning(self, sigma, theta):
        # Tier-1 turns a RuntimeWarning into an error, so none escapes here.
        with pytest.raises(InvalidCovariance, match="overflows|not symmetric"):
            check_gaussian_params(sigma, theta)

    def test_rejects_empty_sigma(self):
        with pytest.raises(InvalidCovariance, match="sigma is empty"):
            check_gaussian_params(np.zeros((0, 0)))

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"sigma": np.eye(3)}, r"sigma shape \(3, 3\) does not match grid dims 2"),
        ({"sigma": np.eye(2), "mean_q": np.zeros(3)}, "mean_q/mean_p must be length-D"),
        ({"sigma": np.eye(2), "mean_p": np.zeros(1)}, "mean_q/mean_p must be length-D"),
    ], ids=["sigma", "mean-q", "mean-p"])
    def test_rejects_parameters_of_another_dimension(self, kwargs, fragment):
        with pytest.raises(DimensionError, match=fragment):
            gaussian_pointer(grid2(32), **kwargs)

    def test_rejects_insufficient_extent(self):
        with pytest.raises(GridCoverage):
            gaussian_pointer(Grid((64, 64), (4.0, 4.0)), np.eye(2))


class TestLgMode:
    def test_l0_is_isotropic_gaussian(self):
        m = moments(lg_mode(grid2(256), 0, 1.0))
        assert m.cov_qq[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_qq[0, 0] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("l", [-2, -1, 0, 1, 2])
    def test_correlation_law(self, l):
        # corr(x, p_y) = +l/2, corr(y, p_x) = -l/2, corr(x, y) = 0.
        ext = 8.0 * np.sqrt(1.0 + abs(l))
        m = moments(lg_mode(Grid((256, 256), (ext, ext)), l, 1.0))
        assert m.cov_qp[0, 1] == pytest.approx(0.5 * l, abs=1e-3)
        assert m.cov_qp[1, 0] == pytest.approx(-0.5 * l, abs=1e-3)
        assert m.cov_qq[0, 1] == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("l,sigma", [(1, 1.0), (2, 1.0), (1, 0.7)])
    def test_position_variance(self, l, sigma):
        # var(x) = sigma^2 (1 + |l|): the waist parameter is not the variance.
        ext = 8.0 * sigma * np.sqrt(1.0 + abs(l))
        m = moments(lg_mode(Grid((256, 256), (ext, ext)), l, sigma))
        assert m.cov_qq[0, 0] == pytest.approx(sigma**2 * (1 + abs(l)), rel=1e-6)

    def test_vortex_has_a_hole_at_the_origin(self):
        g = grid2(256, 12.0)
        density = np.abs(lg_mode(g, 1, 1.0).amplitudes) ** 2
        center = density[g.points_per_axis[0] // 2, g.points_per_axis[1] // 2]
        assert center < np.max(density) * 1e-3

    def test_requires_two_axes(self):
        with pytest.raises(DimensionError):
            lg_mode(Grid((64,), (8.0,)), 1, 1.0)

    def test_requires_coverage(self):
        with pytest.raises(GridCoverage):
            lg_mode(Grid((64, 64), (6.0, 6.0)), 2, 1.0)


class TestCoverage:
    """The coverage rule compares each builder's closed-form spreads with the
    grid; the grid moments pin those closed forms."""

    def test_gaussian_spreads_match_the_moments(self):
        sigma = np.array([[1.0, 0.4], [0.4, 0.8]])
        theta = np.array([[0.3, 0.1], [0.1, -0.2]])
        m = moments(gaussian_pointer(grid2(256), sigma, theta=theta))
        expected_pp = 0.25 * np.linalg.inv(sigma) + theta @ sigma @ theta
        np.testing.assert_allclose(m.cov_pp, expected_pp, rtol=0, atol=1e-9)
        std_q, std_p = gaussian_spreads(sigma, theta)
        np.testing.assert_allclose(std_q**2, np.diag(m.cov_qq), rtol=0, atol=1e-9)
        np.testing.assert_allclose(std_p**2, np.diag(m.cov_pp), rtol=0, atol=1e-9)

    def test_vortex_spreads_match_the_moments(self):
        l, sigma = 2, 0.8
        std_q, std_p = lg_spreads(l, sigma)
        ext = 8.0 * std_q[0]
        m = moments(lg_mode(Grid((256, 256), (ext, ext)), l, sigma))
        np.testing.assert_allclose(np.diag(m.cov_pp), [(1 + l) / (4 * sigma**2)] * 2,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.square(std_p), np.diag(m.cov_pp), rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.square(std_q), np.diag(m.cov_qq), rtol=0, atol=1e-9)

    def test_two_mode_spreads_match_the_moments(self):
        params = TwoModeGaussianParams(0.25, 0.3, 0.125)
        m = moments(two_mode_gaussian(grid2(256, 10.0), params))
        np.testing.assert_allclose(m.cov_pp, [[0.25, 0.125], [0.125, 0.3]], rtol=0, atol=1e-9)
        std_q, std_p = gaussian_spreads(params.position_covariance())
        np.testing.assert_allclose(std_q**2, np.diag(m.cov_qq), rtol=0, atol=1e-9)
        np.testing.assert_allclose(std_p**2, np.diag(m.cov_pp), rtol=0, atol=1e-9)

    def test_momentum_half_width_only_in_the_coverage_rule(self):
        # One coverage rule: the builders, auto_grid and the kick budget all
        # ask coverage_gap, and it and the kick resolution floor read their
        # half-widths from Grid.half_width, the one place that forms pi/dq.
        assert source_sites(momentum_half_width_label) == {("pointer", "half_width", "pi/dq")}

    def test_one_kick_rule(self):
        # Document couplings and the entanglement probe both ask kick_gap,
        # the one reader of the resolution floor.
        assert source_sites(kick_rule_label) == {
            ("pointer", "kick_gap", "resolution_floor"),
            ("scenarios", "check_kick_budget", "kick_gap"),
            ("entanglement", "c_matrix_from_shifts", "kick_gap")}

    # grid2(128): extent 8 less 6 sd_q = 6 leaves a position offset of 2;
    # pi/dq = 25.13 less 6 sd_p = 3 leaves a momentum offset of 22.13.  The
    # resolution floors are 1.78e-9 in position and 5.58e-9 in momentum.
    @pytest.mark.parametrize("mean_q, mean_p, kicks, expected", [
        (0.0, 0.0, [], None),
        (0.0, 0.0, [(0, "q", 0.0), (1, "p", 0.0)], None),
        (0.0, 0.0, [(1, "q", 1e-9)],
         (1, "momentum", "axis 2: a momentum kick of 1e-09 is below the resolution floor "
                         "5.58059e-09 (1e6 eps H)")),
        (0.0, 0.0, [(0, "q", 40.0), (0, "p", 1e-12)],
         (0, "position", "axis 1: a position kick of 1e-12 is below the resolution floor ")),
        (0.0, 0.0, [(0, "q", 11.0)], None),
        (0.0, 0.0, [(0, "q", 11.0), (0, "q", 11.5)],
         (0, "momentum", "axis 1: momentum half-width 25.1327 less offset 22.5 holds fewer ")),
        (0.0, [0.0, -20.0], [(1, "q", 3.0)], (1, "momentum", "less offset 23 holds")),
        (0.0, 0.0, [(1, "p", 2.5)], (1, "position", "axis 2: position half-width 8 less offset "
                                                    "2.5 holds fewer ")),
        ([1.5, 0.0], 0.0, [(0, "p", 1.0)], (0, "position", "less offset 2.5 holds")),
    ], ids=["no-kicks", "zero-kicks", "below-the-floor", "floor-before-coverage",
            "within-the-grid", "kicks-add-up", "mean-and-kick-add-up", "p-kick-moves-position",
            "position-mean-and-kick"])
    def test_kick_gap(self, mean_q, mean_p, kicks, expected):
        gap = kick_gap(grid2(128), [1.0, 1.0], [0.5, 0.5], mean_q, mean_p, kicks)
        if expected is None:
            assert gap is None
        else:
            assert gap[:2] == expected[:2] and expected[2] in gap[2]

    def test_auto_grid_keeps_the_default_when_momentum_is_covered(self):
        assert auto_grid([1.0, 1.0], [0.5, 0.5], None, None) == grid2(256)
        assert auto_grid([1.0] * 3, [0.5] * 3, None, None) == Grid((64,) * 3, (8.0,) * 3)

    def test_auto_grid_doubles_the_points_for_momentum(self):
        # 256 points over [-8, 8) reach p = 50.3; a mean of 48 leaves 4.5 sd.
        assert auto_grid([1.0, 1.0], [0.5, 0.5], None, [0.0, -48.0]) == grid2(512)
        # sd_p 3.04 on 64 points over [-8, 8) (p = 12.6) needs 128.
        assert auto_grid([1.0] * 3, [3.04, 0.5, 0.5], None, None).shape == (128,) * 3

    def test_auto_grid_stops_at_the_cap_and_the_builder_rejects(self):
        std_q, std_p = gaussian_spreads(np.eye(2), np.diag([40.0, 0.0]))
        grid = auto_grid(std_q, std_p, None, None)
        assert grid.shape == (1024, 1024)
        with pytest.raises(GridCoverage, match="axis 1: momentum"):
            gaussian_pointer(grid, np.eye(2), theta=np.diag([40.0, 0.0]))
        assert auto_grid([1.0] * 3, [6.0, 0.5, 0.5], None, None).shape == (128,) * 3

    @pytest.mark.parametrize("t", [10.0, 12.0])
    def test_chirp_past_the_momentum_edge_rejected(self, t):
        # 256 points over [-8, 8) reach p = 50.3: 5.0 and 4.2 momentum sd.
        with pytest.raises(GridCoverage, match="axis 1: momentum"):
            gaussian_pointer(grid2(256), np.eye(2), theta=np.diag([t, 0.0]))

    def test_chirp_within_the_momentum_edge_builds(self):
        # t = 8 leaves 6.3 momentum sd.
        gaussian_pointer(grid2(256), np.eye(2), theta=np.diag([8.0, 0.0]))

    def test_momentum_mean_counts_against_the_edge(self):
        # sd_p = 0.5 and the samples reach p = 50.3: a mean of 44 leaves 12.5 sd, 48 only 4.5.
        gaussian_pointer(grid2(256), np.eye(2), mean_p=np.array([0.0, -44.0]))
        with pytest.raises(GridCoverage, match="axis 2: momentum"):
            gaussian_pointer(grid2(256), np.eye(2), mean_p=np.array([0.0, -48.0]))

    def test_coarse_grid_rejected_for_each_builder(self):
        # Position is covered each time; the momentum samples stop short.
        with pytest.raises(GridCoverage, match="momentum"):
            lg_mode(Grid((32, 32), (12.0, 12.0)), 2, 1.0)
        with pytest.raises(GridCoverage, match="momentum"):
            two_mode_gaussian(Grid((32, 32), (40.0, 40.0)),
                              TwoModeGaussianParams(0.25, 0.25, 0.125))


class TestDisplacement:
    def test_zero_shift_is_identity(self):
        phi = gaussian_pointer(grid2(), np.eye(2))
        out = displace_momentum(phi, [0.0, 0.0])
        assert np.max(np.abs(out.amplitudes - phi.amplitudes)) == 0.0

    def test_momentum_mean_shifts_and_covariances_do_not(self):
        g = grid2()
        phi = gaussian_pointer(g, np.array([[1.0, 0.4], [0.4, 1.0]]),
                               theta=np.array([[0.0, 0.2], [0.2, 0.0]]))
        shifts = np.array([g.dp(0), 0.0])
        before, after = moments(phi), moments(displace_momentum(phi, shifts))
        assert after.mean_p[0] - before.mean_p[0] == pytest.approx(g.dp(0), abs=1e-9)
        assert after.mean_p[1] - before.mean_p[1] == pytest.approx(0.0, abs=1e-9)
        for blk in ("cov_qq", "cov_qp", "cov_pp"):
            assert np.max(np.abs(getattr(after, blk) - getattr(before, blk))) <= 1e-9

    def test_position_distribution_unchanged(self):
        phi = gaussian_pointer(grid2(), np.eye(2))
        out = displace_momentum(phi, [0.5, -1.3])  # off-grid shifts allowed
        np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(phi.amplitudes), atol=1e-13)

    def test_vortex_correlations_invariant(self):
        g = Grid((256, 256), (12.0, 12.0))
        phi = lg_mode(g, 1, 1.0)
        out = displace_momentum(phi, [2 * g.dp(0), 3 * g.dp(1)])
        m = moments(out)
        assert m.cov_qp[0, 1] == pytest.approx(0.5, abs=1e-9)
        assert m.cov_qp[1, 0] == pytest.approx(-0.5, abs=1e-9)

    def test_shift_count_must_match_the_axes(self):
        with pytest.raises(DimensionError, match=r"need 2 shifts, got shape \(3,\)"):
            displace_momentum(gaussian_pointer(grid2(32), np.eye(2)), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_shift_raises_invalid_params(self, bad):
        # Raised before the grid is touched, so no overflow warning and no
        # NaN norm precede it.
        phi = gaussian_pointer(grid2(), np.eye(2))
        with pytest.raises(InvalidParams, match="axis 1: .* needs finite k and g"):
            displace_momentum(phi, [bad, 0.0])

    def test_traced_peak_stays_near_one_pointer(self):
        # The result is one pointer's bytes; the phase lives in a block
        # buffer.  A whole-grid real phase would add half a pointer (1.53),
        # and separate arrays for 1j*phase, its exp and the product two.
        g = Grid((64, 64, 64), (8.0, 8.0, 8.0))
        phi = gaussian_pointer(g, np.eye(3))
        out, peak = traced_peak(
            lambda: displace_momentum(phi, [3 * g.dp(0), -2 * g.dp(1), 5 * g.dp(2)]))
        assert peak <= 1.25 * phi.amplitudes.nbytes, f"traced peak {peak / 2**20:.2f} MiB"
        assert out.amplitudes.shape == g.shape

    @pytest.mark.parametrize("shape", [(32,), (1024,), (32, 32), (256, 256), (32, 64),
                                       (32, 32, 32), (64, 32, 32), (64, 64, 64)])
    def test_blockwise_matches_the_whole_array_displacement_bit_for_bit(self, shape, rng):
        g = Grid(shape, (8.0,) * len(shape))
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        phi = PointerWavefunction(g, amps / np.sqrt(np.sum(np.abs(amps) ** 2)
                                                    * g.cell_volume(("position",) * g.dims)))
        for shifts in (3.0 * rng.normal(size=g.dims),
                       [0.0] + [2.0 * g.dp(j) for j in range(1, g.dims)],
                       [1.5] + [0.0] * (g.dims - 1)):
            out = displace_momentum(phi, shifts).amplitudes
            assert out.tobytes() == whole_array_displace_momentum(phi, shifts).tobytes()


class TestMoments:
    def test_rejects_unnormalized(self):
        g = grid2()
        phi = gaussian_pointer(g, np.eye(2))
        with pytest.raises(NormalizationError):
            PointerWavefunction(g, phi.amplitudes * 1.1)

    def test_rejects_nan_amplitudes(self):
        # NaN compares false with everything, so a "> tol" check would let it
        # through; inf must fail as well.
        for bad in (np.nan, np.inf):
            with pytest.raises(NormalizationError):
                PointerWavefunction(Grid((32,), (8.0,)), np.full(32, bad))

    def test_moments_reject_nan_position_density(self):
        phi = gaussian_pointer(grid2(), np.eye(2))
        for bad in (np.nan, np.inf):
            phi.amplitudes = np.full(phi.grid.shape, bad, dtype=complex)
            for measure in (moments, means):
                with pytest.raises(NormalizationError, match="normalized"):
                    measure(phi)

    def test_moments_reject_nan_momentum_density(self, monkeypatch):
        phi = gaussian_pointer(grid2(), np.eye(2))
        for bad in (np.nan, np.inf):
            monkeypatch.setattr("pointersim.pointer._axis_transform",
                                lambda arr, grid, axis, forward=True, out=None:
                                np.full_like(arr, bad))
            for measure in (moments, means):
                with pytest.raises(NormalizationError, match="momentum density"):
                    measure(phi)

    def test_rejects_momentum_density_off_unit_mass(self, monkeypatch):
        # The momentum density is checked too: a transform that lost
        # unitarity must fail loudly instead of scaling mean_p and cov_pp.
        phi = gaussian_pointer(grid2(), np.eye(2))
        monkeypatch.setattr("pointersim.pointer._axis_transform",
                            lambda arr, grid, axis, forward=True, out=None:
                            1.01 * _axis_transform(arr, grid, axis, forward, out))
        with pytest.raises(NormalizationError, match="momentum density"):
            moments(phi)

    def test_product_state_cross_terms_vanish(self):
        m = moments(gaussian_pointer(grid2(), np.diag([1.0, 0.7])))
        assert m.cov_qq[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_qp[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert m.cov_pp[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_traced_scratch_stays_within_one_and_a_half_pointers(self):
        # The transforms share one pointer-sized scratch array; densities and
        # products live in block buffers.  Whole-array densities, products
        # and a conjugate copy took three pointer sizes.
        g = Grid((64, 64, 64), (8.0, 8.0, 8.0))
        phi = gaussian_pointer(g, np.eye(3))
        _m, peak = traced_peak(lambda: moments(phi))
        assert peak <= 1.5 * phi.amplitudes.nbytes, f"traced peak {peak / 2**20:.2f} MiB"

    def test_symmetry_and_variance_diagonals(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        m = moments(gaussian_pointer(grid2(256), sigma))
        np.testing.assert_allclose(m.cov_qq, m.cov_qq.T, atol=1e-12)
        np.testing.assert_allclose(m.cov_pp, m.cov_pp.T, atol=1e-12)
        assert np.all(np.diag(m.cov_qq) > 0)
        assert np.all(np.diag(m.cov_pp) > 0)


class TestConstructorCopiesCallerArrays:
    def test_pointer_wavefunction(self):
        g = grid2(32)
        caller = gaussian_pointer(g, np.eye(2)).amplitudes.copy()
        phi = PointerWavefunction(g, caller)
        assert caller.flags.writeable
        before = phi.amplitudes.tobytes()
        caller *= 2.0
        assert phi.amplitudes.tobytes() == before
        assert not phi.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            phi.amplitudes[0, 0] = 0.0


class TestGridStateContainer:
    """Pointer and joint states share one copy/adopt/validate/norm protocol;
    they differ only in the system axis ahead of the grid axes."""

    def test_shape_checks(self):
        g = grid2(32)
        amps = gaussian_pointer(g, np.eye(2)).amplitudes
        joint_amps = np.stack([amps, 0 * amps])
        with pytest.raises(DimensionError):
            PointerWavefunction(g, joint_amps)
        with pytest.raises(DimensionError):
            JointState(g, amps)
        assert JointState(g, joint_amps).system_dim == 2

    def test_pointer_is_position_space_view_over_its_buffer(self):
        phi = gaussian_pointer(grid2(32), np.eye(2))
        assert phi.amplitudes.base is phi._buffer
        assert phi.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_joint_state_is_not_a_pointer(self):
        g = grid2(32)
        amps = gaussian_pointer(g, np.eye(2)).amplitudes
        assert not isinstance(JointState(g, amps[None]), PointerWavefunction)


class TestBlockSums:
    def test_any_block_count_adds_every_row(self):
        # 96 rows make 6 blocks of 16 rows; the block sums add in row order.
        assert _mass(np.ones((96, 32, 32), complex), 1.0) == 98304.0


class TestKernelsLeaveInputsAlone:
    """The kernels scale and multiply their own arrays in place; unless a
    transform is handed its input as ``out``, none may write into its input
    or hand back memory the input owns."""

    @staticmethod
    def assert_untouched(before, arr, result):
        assert arr.tobytes() == before
        assert not np.shares_memory(result, arr)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("leading", [(), (2,)], ids=["pointer", "joint"])
    def test_axis_transform(self, rng, forward, leading):
        g = Grid((32, 64), (5.0, 8.0))
        arr = rng.normal(size=leading + g.shape) + 1j * rng.normal(size=leading + g.shape)
        before = arr.tobytes()
        for axis in range(g.dims):
            self.assert_untouched(before, arr, _axis_transform(arr, g, axis, forward))

    def test_multiply_factors(self, rng):
        # The p pass transforms its own output in place, never the input.
        g = Grid((32, 64), (5.0, 8.0))
        amps = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        phi = PointerWavefunction(g, amps / np.sqrt(np.sum(np.abs(amps) ** 2)
                                                    * g.cell_volume(("position",) * g.dims)))
        before = phi.amplitudes.tobytes()
        for terms in ([(0, "q", 0.3, 0.1)], [(1, "p", 0.3, 0.1)],
                      [(1, "q", 0.0, 0.2), (0, "p", -0.4, 0.0), (1, "p", 0.1, 0.1)]):
            self.assert_untouched(before, phi.amplitudes, _multiply_factors(phi, terms))

    @pytest.mark.parametrize("leading", [(), (2,)], ids=["pointer", "joint"])
    def test_in_place_equals_fresh(self, rng, leading):
        # ``out`` may be the input itself; the bits must not depend on it.
        g = Grid((32, 64), (5.0, 8.0))
        arr = rng.normal(size=leading + g.shape) + 1j * rng.normal(size=leading + g.shape)
        for axis in range(g.dims):
            for kernel in (lambda a, o: _axis_transform(a, g, axis, True, o),
                           lambda a, o: _axis_transform(a, g, axis, False, o)):
                work = arr.copy()
                assert kernel(work, work) is work
                assert work.tobytes() == kernel(arr, None).tobytes()

    def test_moments_twice_on_one_state(self):
        g = Grid((32, 32, 32), (8.0, 8.0, 8.0))
        phi = gaussian_pointer(g, np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]]),
                               mean_q=[0.2, 0.0, -0.1], mean_p=[0.0, 0.4, 0.0],
                               theta=np.array([[0.0, 0.2, 0.1], [0.2, 0.1, 0.0], [0.1, 0.0, 0.0]]))
        before = phi.amplitudes.tobytes()
        first, second = moments(phi), moments(phi)
        for blk in ("mean_q", "mean_p", "cov_qq", "cov_qp", "cov_pp"):
            self.assert_untouched(before, phi.amplitudes, getattr(first, blk))
            assert getattr(first, blk).tobytes() == getattr(second, blk).tobytes()
