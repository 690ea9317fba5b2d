"""Property tests: the axis transform is unitary, the grid moments of a
correlated Gaussian reproduce its covariance parameters, the blockwise
single-observable coupling equals the full-array rotation bit for bit, the
blockwise moments match the whole-array reference within rounding, the exact
pipeline conserves probability over a complete postselection basis, an
on-grid momentum displacement leaves every covariance block alone, the
residual of a direct-projection scenario falls at least as the coupling
strength squared, and, split by parity, an off-centre pointer's residual
falls as its odd and even orders.

``derandomize=True`` makes hypothesis draw the same examples on every run,
so these tests are as deterministic as the rest of the suite.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointersim.dynamics import CouplingSpec, JointState, apply_couplings, evolve
from pointersim.pointer import (
    _BLOCK_CELLS,
    Grid,
    PointerWavefunction,
    _axis_transform,
    displace_momentum,
    gaussian_pointer,
    means,
    moments,
)
from pointersim.quantum import Observable, SystemState
from pointersim.scenarios import parse_config, run_sweep
from conftest import (fitted_slope, parity_residuals, random_hermitian, random_state_vector,
                      reference_moments, whole_array_contract)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def grids(draw):
    dims = draw(st.integers(1, 3))
    points = tuple(draw(st.sampled_from((32, 64))) for _ in range(dims))
    extent = tuple(draw(st.floats(4.0, 10.0)) for _ in range(dims))
    return Grid(points, extent)


@PROPERTY_SETTINGS
@given(grid=grids(), leading=st.sampled_from(((), (2,))), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_axis_transform_round_trips_and_preserves_norm(grid, leading, seed, data):
    axis = data.draw(st.integers(0, grid.dims - 1))
    rng = np.random.default_rng(seed)
    shape = leading + grid.shape
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    forward = _axis_transform(arr, grid, axis)
    norm_q = np.sum(np.abs(arr) ** 2) * grid.dq(axis)
    norm_p = np.sum(np.abs(forward) ** 2) * grid.dp(axis)
    assert abs(norm_p - norm_q) <= 1e-12 * norm_q
    back = _axis_transform(forward, grid, axis, forward=False)
    assert np.max(np.abs(back - arr)) <= 1e-12 * np.max(np.abs(arr))


@st.composite
def gaussian_params(draw, dims=st.integers(1, 3)):
    """A D-axis SPD ``sigma`` with eigenvalues in [0.25, 1] and a symmetric
    ``theta`` with entries in [-0.2, 0.2]: every marginal spread, in
    position and in momentum, fits the grid of ``covering_grid``."""
    dims = draw(dims)
    eig = np.array([draw(st.floats(0.25, 1.0)) for _ in range(dims)])
    raw = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(dims)] for _ in range(dims)])
    rotation, _ = np.linalg.qr(raw + 3.0 * np.eye(dims))
    sigma = rotation @ np.diag(eig) @ rotation.T
    sigma = 0.5 * (sigma + sigma.T)
    upper = np.array([[draw(st.floats(-0.2, 0.2)) if j >= i else 0.0 for j in range(dims)]
                      for i in range(dims)])
    theta = upper + np.triu(upper, 1).T
    return sigma, theta


def covering_grid(dims: int) -> Grid:
    # Extent 7 holds 7 standard deviations of the widest position marginal
    # (std <= 1), and the momentum grid at least 6 of the widest momentum
    # marginal (std <= 1.17 in 3 axes, where 32 points reach p = 7.18).
    points = 64 if dims < 3 else 32
    return Grid((points,) * dims, (7.0,) * dims)


@PROPERTY_SETTINGS
@given(params=gaussian_params())
def test_gaussian_moments_match_sigma_and_theta(params):
    sigma, theta = params
    m = moments(gaussian_pointer(covering_grid(len(sigma)), sigma, theta=theta))
    np.testing.assert_allclose(m.cov_qq, sigma, rtol=0, atol=1e-9)
    np.testing.assert_allclose(m.cov_qp, sigma @ theta, rtol=0, atol=1e-9)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(params=gaussian_params(dims=st.integers(2, 3)), data=st.data())
def test_on_grid_momentum_displacement_keeps_every_covariance(params, data):
    # 64 points over [-7, 7) reach p = 14.4, 12 sd of the widest momentum
    # marginal; a shift of at most 8 cells (dp = pi/7) still leaves 9 sd.
    sigma, theta = params
    dims = len(sigma)
    grid = Grid((64,) * dims, (7.0,) * dims)
    cells = np.array([data.draw(st.integers(-8, 8)) for _ in range(dims)])
    shifts = cells * np.array([grid.dp(j) for j in range(dims)])
    phi = gaussian_pointer(grid, sigma, theta=theta)
    before, after = moments(phi), moments(displace_momentum(phi, shifts))
    for block in ("cov_qq", "cov_qp", "cov_pp"):
        np.testing.assert_allclose(getattr(after, block), getattr(before, block),
                                   rtol=0, atol=1e-9, err_msg=block)
    np.testing.assert_allclose(after.mean_q, before.mean_q, rtol=0, atol=1e-9)
    np.testing.assert_allclose(after.mean_p, before.mean_p + shifts, rtol=0, atol=1e-9)


def full_array_coupling(state: JointState, spec: CouplingSpec) -> np.ndarray:
    """Reference for the single-observable branch: rotate the whole joint
    array into the eigenbasis by multiply-adds, phase it, and rotate it back;
    a p-axis goes to momentum and back around it."""
    grid, d, amps = state.grid, state.system_dim, state.amplitudes
    if spec.quadrature == "p":
        amps = _axis_transform(amps, grid, spec.axis)
    eigenvalues, v = np.linalg.eigh(spec.observable.matrix)
    rotated = whole_array_contract(v.conj(), amps)
    vals = grid.positions(spec.axis) if spec.quadrature == "q" else grid.momenta(spec.axis)
    xi = grid.axis_array(spec.axis, vals)
    eigcol = eigenvalues.reshape((d,) + (1,) * grid.dims)
    np.multiply(rotated, np.exp(-1j * spec.strength * eigcol * xi), out=rotated)
    result = whole_array_contract(v.T, rotated)
    if spec.quadrature == "p":
        result = _axis_transform(result, grid, spec.axis, forward=False)
    return result


@PROPERTY_SETTINGS
@given(points=st.sampled_from(((32,), (64,), (32, 64), (64, 64), (32, 32, 32), (32, 64, 32))),
       d=st.integers(1, 4), quadrature=st.sampled_from(("q", "p")),
       strength=st.floats(-2.0, 2.0).filter(lambda x: x != 0.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_single_coupling_matches_full_array_rotation(points, d, quadrature, strength, seed,
                                                     data):
    grid = Grid(points, (8.0,) * len(points))
    axis = data.draw(st.integers(0, grid.dims - 1))
    rng = np.random.default_rng(seed)
    shape = (d,) + grid.shape
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * grid.cell_volume(("position",) * grid.dims))
    state = JointState(grid, amps)
    spec = CouplingSpec(Observable(random_hermitian(rng, d)), axis, quadrature, strength)
    out = apply_couplings(state, [spec])
    assert out.amplitudes.tobytes() == full_array_coupling(state, spec).tobytes()
    assert abs(out.norm_squared() - state.norm_squared()) <= 1e-12


@settings(derandomize=True, max_examples=8, deadline=None)
@given(points=st.sampled_from(((256, 256), (64, 64, 64), (32, 64, 64), (2 * _BLOCK_CELLS,))),
       seed=st.integers(0, 2**32 - 1))
def test_blockwise_moments_within_rounding_of_the_whole_array_sums(points, seed):
    # Every grid here spans several blocks of _BLOCK_CELLS cells, whose sums
    # add in row order, not in np.sum's pairwise tree.  Each field stays
    # within 4 eps H^k of the whole-array sums, H the half-width (extent in
    # position, pi/dq in momentum) and k the moment's order.
    grid = Grid(points, (8.0,) * len(points))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=points) + 1j * rng.normal(size=points)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2) * grid.cell_volume(("position",) * grid.dims))
    phi = PointerWavefunction(grid, amps)
    got, ref = moments(phi), reference_moments(phi)
    h_q = np.array(grid.extent)
    h_p = np.array([np.pi / grid.dq(j) for j in range(grid.dims)])
    scales = {"mean_q": h_q, "mean_p": h_p, "cov_qq": np.outer(h_q, h_q),
              "cov_qp": np.outer(h_q, h_p), "cov_pp": np.outer(h_p, h_p)}
    for field, h in scales.items():
        error = np.abs(getattr(got, field) - getattr(ref, field))
        assert np.all(error <= 4 * np.finfo(float).eps * h), field
    mean_q, mean_p = means(phi)
    assert mean_q.tobytes() == got.mean_q.tobytes()
    assert mean_p.tobytes() == got.mean_p.tobytes()


@PROPERTY_SETTINGS
@given(d=st.integers(2, 4), quadrature=st.sampled_from(("q", "p")),
       strengths=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2),
       simultaneous=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_exact_pipeline_conserves_probability(d, quadrature, strengths, simultaneous, seed):
    # Unitary evolution, then a complete orthonormal postselection basis:
    # the branch probabilities sum to the joint state's norm, 1.
    rng = np.random.default_rng(seed)
    grid = Grid((32, 32), (7.0, 7.0))
    phi = gaussian_pointer(grid, np.array([[1.0, 0.3], [0.3, 0.8]]))
    pre = SystemState(random_state_vector(rng, d))
    specs = [CouplingSpec(Observable(random_hermitian(rng, d)), axis, quadrature, lam)
             for axis, lam in enumerate(strengths)]
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    steps = [specs] if simultaneous else [[spec] for spec in specs]
    total = sum(evolve(pre, phi, steps, SystemState(basis[:, k]))[1] for k in range(d))
    assert abs(total - 1.0) <= 1e-12


def _pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


@st.composite
def direct_projection_documents(draw):
    """A scenario document with a random SPD ``sigma`` on a 64^2 grid, a
    random Hermitian 2x2 observable coupled to one q axis at unit strength,
    and random pre/post states with |<post|pre>| >= 0.5, far above the
    overlap floor; postselection is a direct projection."""
    sigma, _theta = draw(gaussian_params(dims=st.just(2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pre, post = (v / np.linalg.norm(v) for v in (random_state_vector(rng, 2),
                                                 random_state_vector(rng, 2)))
    assume(abs(np.vdot(post, pre)) >= 0.5)
    return {
        "schema_version": 1,
        "scenario_id": "property",
        "system": {"dimension": 2, "pre_state": _pairs(pre),
                   "post_state": {"amplitudes": _pairs(post)}},
        "pointer": {"kind": "gaussian", "sigma": sigma.tolist(),
                    "grid": {"points_per_axis": [64, 64], "extent": [7.0, 7.0]}},
        "couplings": [{"observable": _pairs(random_hermitian(rng, 2)),
                       "axis": draw(st.integers(1, 2)), "quadrature": "q", "strength": 1.0}],
        "readout": {"direct_projection": True},
    }


@settings(derandomize=True, max_examples=20, deadline=None)
@given(doc=direct_projection_documents())
def test_residual_against_first_order_falls_at_least_as_lambda_squared(doc):
    # The pointer is centred, so the fitted slope is close to 3 here.  An
    # off-centre pointer keeps a lambda^2 term, and its interplay with the
    # lambda^3 term can pull the slope over this short window below 2.
    _reports, summary = run_sweep(parse_config(doc), (0.04, 0.02, 0.01))
    assert summary["slope"] is not None and summary["slope"] >= 1.8


@settings(derandomize=True, max_examples=20, deadline=None)
@given(doc=direct_projection_documents(), mean_q=st.tuples(*[st.floats(-0.75, 0.75)] * 2))
def test_off_centre_residual_parts_fall_at_their_own_orders(doc, mean_q):
    # Split by parity, the off-centre pointer's residual separates: the odd
    # part falls as lambda^3, the even part (zero for a centred pointer) as
    # lambda^2, so neither can pull the other's fitted order down.
    doc["pointer"]["mean_q"] = list(mean_q)
    doc["couplings"][0]["strength"] = 0.04
    odd, even = zip(*parity_residuals(parse_config(doc)))
    assert fitted_slope(odd) >= 2.7
    assert fitted_slope(even) >= 1.7 or max(even) <= 1e-13
