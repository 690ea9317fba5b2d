"""Closed-form shift predictions and the sign-convention calibration."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointersim import (
    ORIENTATION,
    PAULI_Z,
    RE_ORIENTATION,
    CouplingSpec,
    DimensionError,
    Grid,
    MomentSet,
    Observable,
    SystemState,
    evolve,
    gaussian_pointer,
    lg_compatibility,
    lg_mode,
    moments,
    predict_general,
    weak_value,
)
from pointersim.scenarios import load_bundled, resolve_system, run_scenario
from pointersim.shifts import lg_check
from conftest import fitted_slope, parity_residuals
from test_golden import SWEPT, bundled_run


def moment_set(d, cov_qq=None, cov_qp=None, cov_pp=None):
    return MomentSet(
        mean_q=np.zeros(d),
        mean_p=np.zeros(d),
        cov_qq=np.eye(d) if cov_qq is None else np.asarray(cov_qq, float),
        cov_qp=np.zeros((d, d)) if cov_qp is None else np.asarray(cov_qp, float),
        cov_pp=0.25 * np.eye(d) if cov_pp is None else np.asarray(cov_pp, float),
    )


def sequential_prediction(m, lambda1, lambda2, a1w, a2w, a3l):
    """Weak position couplings on axes 1 and 2, strong readout on axis 3 as
    the unit q term whose weak value is its eigenvalue."""
    return predict_general(m, [(0, "q", lambda1, a1w), (1, "q", lambda2, a2w),
                               (2, "q", 1.0, a3l)])


def single_prediction(m, lam, aw, a2l):
    """Weak position coupling on axis 1, readout on axis 2 (a2l = 0 for direct
    projection)."""
    return predict_general(m, [(0, "q", lam, aw), (1, "q", 1.0, a2l)])


def calibrate_sign_convention(points: int = 128) -> tuple[int, int]:
    """``(orientation, re_orientation)`` fixed against the exact evolution oracle.

    Leg A (designated scenario): qubit, purely imaginary weak value i,
    uncorrelated Gaussian pointer, strong readout -- the sign of the measured
    q1 shift fixes ``orientation`` and the readout momentum offset must agree
    with ``re_orientation``.  Leg B: the same system with a real weak value
    fixes ``re_orientation`` from the p1 shift (a purely imaginary weak value
    cannot, which is why a companion run is needed).
    """
    grid = Grid(points_per_axis=(points, points), extent=(8.0, 8.0))
    phi = gaussian_pointer(grid, np.eye(2))
    pre = SystemState([1, 1])
    z = Observable(PAULI_Z)
    lam = 0.1

    # Leg A: (Z)_w = i for post = (|0> + i|1>)/sqrt(2).
    post_a = SystemState([1, 1j])
    proj = Observable(np.outer(post_a.amplitudes, post_a.amplitudes.conj()))
    specs = [CouplingSpec(z, 0, "q", lam)]
    final = moments(evolve(pre, phi, [specs, [CouplingSpec(proj, 1, "q", 1.0)]], post_a)[0])
    base = moments(phi)
    orientation = 1 if final.mean_q[0] - base.mean_q[0] > 0 else -1
    offset_sign = 1 if final.mean_p[1] - base.mean_p[1] > 0 else -1

    # Leg B: (Z)_w = 1 for post = |0>.
    post_b = SystemState([1, 0])
    final_b = moments(evolve(pre, phi, [specs], post_b)[0])
    re_orientation = 1 if final_b.mean_p[0] - base.mean_p[0] > 0 else -1

    if offset_sign != re_orientation:
        raise RuntimeError(
            "readout offset orientation disagrees with the weak Re orientation; "
            "the evolution convention is inconsistent"
        )
    return orientation, re_orientation


def test_frozen_convention_matches_oracle_calibration():
    assert calibrate_sign_convention() == (ORIENTATION, RE_ORIENTATION)


class TestPredictSequential:
    def test_reduces_to_single_coupling_form(self):
        cov = np.array([[1.0, 0.4, 0.0], [0.4, 0.9, 0.0], [0.0, 0.0, 1.1]])
        m3 = moment_set(3, cov_qq=cov)
        seq = sequential_prediction(m3, 0.05, 0.0, 0.2 + 0.7j, 0.0, 1.0)
        m2 = moment_set(2, cov_qq=cov[:2, :2])
        single = single_prediction(m2, 0.05, 0.2 + 0.7j, 1.0)
        np.testing.assert_allclose(seq.delta_q[:2], single.delta_q, atol=1e-15)
        assert seq.delta_p[0] == pytest.approx(single.delta_p[0], abs=1e-15)
        assert seq.delta_q[2] == pytest.approx(0.0, abs=1e-15)

    def test_real_weak_values_leave_only_readout_offset(self):
        cov = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
        pred = sequential_prediction(moment_set(3, cov_qq=cov), 0.05, 0.04, 0.7, -0.2, 2.0)
        np.testing.assert_allclose(pred.delta_q, 0.0, atol=1e-15)
        assert pred.delta_p[2] == pytest.approx(RE_ORIENTATION * 2.0)

    def test_readout_axis_correlation_magnitude(self):
        cov = np.eye(3)
        cov[0, 2] = cov[2, 0] = 0.3
        pred = sequential_prediction(moment_set(3, cov_qq=cov), 0.05, 0.0, 1j, 0.0, 0.0)
        assert abs(pred.delta_q[2]) == pytest.approx(2 * 0.05 * 1.0 * 0.3)

    def test_no_correlation_to_readout_axis_means_no_q3_shift(self):
        # Cross correlations with the readout axis vanish: dq3 has no term left.
        cov = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pred = sequential_prediction(moment_set(3, cov_qq=cov), 0.05, 0.04, 1j, 0.5j, 1.0)
        assert pred.delta_q[2] == pytest.approx(0.0, abs=1e-15)
        assert pred.delta_q[0] != 0.0


class TestPredictSingle:
    @pytest.mark.parametrize("term, error, fragment", [
        ((2, "q", 0.05, 1j), DimensionError, r"coupling axis 2 outside 0\.\.1"),
        ((0, "p", 0.05, complex(np.nan, 0.0)), ValueError, "prediction entries must be finite"),
    ], ids=["axis", "non-finite-weak-value"])
    def test_rejects_a_term_it_cannot_predict(self, term, error, fragment):
        with pytest.raises(error, match=fragment):
            predict_general(moment_set(2), [term])

    def test_zero_correlation_kills_readout_axis_shift(self):
        pred = single_prediction(moment_set(2), 0.05, 2.0 + 3.0j, 1.0)
        assert pred.delta_q[1] == pytest.approx(0.0, abs=1e-15)

    def test_imaginary_weak_value_magnitudes(self):
        pred = single_prediction(moment_set(2), 0.05, 1j, 0.0)
        assert abs(pred.delta_q[0]) == pytest.approx(0.1)
        assert pred.delta_p[0] == pytest.approx(0.0, abs=1e-15)

    def test_real_weak_value_magnitudes(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        pred = single_prediction(moment_set(2, cov_qq=cov), 0.05, 1.0, 0.0)
        np.testing.assert_allclose(pred.delta_q, 0.0, atol=1e-15)
        assert abs(pred.delta_p[0]) == pytest.approx(0.05)

    def test_qp_correlation_enters_readout_momentum(self):
        qp = np.array([[0.0, 0.3], [0.0, 0.0]])
        pred = single_prediction(moment_set(2, cov_qp=qp), 0.05, 1j, 1.0)
        assert pred.delta_p[1] == pytest.approx(RE_ORIENTATION * 1.0 + ORIENTATION * 2 * 0.05 * 0.3)


class TestVortexRelation:
    def test_engine_gives_the_vortex_relation_on_lg_probe(self):
        # predict_general on the mode's measured moments is the paper's vortex
        # relation: dx = g[Re A_w + l Im B_w], dy = g[Re B_w - l Im A_w], and
        # dp = 2g Im(.) (1 + |l|) / (4 sigma^2) on each axis.
        cfg = load_bundled("lg_probe")
        g = cfg.couplings[0].strength
        assert [(c.axis, c.quadrature, c.strength) for c in cfg.couplings] == [(0, "p", g),
                                                                              (1, "p", g)]
        pre, post, _a_l = resolve_system(cfg)
        a, b = (weak_value(c.observable, pre, post) for c in cfg.couplings)
        l, sigma = cfg.pointer_params["l"], cfg.pointer_params["sigma"]
        vp = (1.0 + abs(l)) / (4.0 * sigma**2)
        report = bundled_run("lg_probe")
        np.testing.assert_allclose(report.predicted_dq, [g * (a.real + l * b.imag),
                                                         g * (b.real - l * a.imag)],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.predicted_dp, [2.0 * g * a.imag * vp,
                                                         2.0 * g * b.imag * vp],
                                   rtol=0, atol=1e-12)


class TestLgCompatibility:
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_mode_satisfies_law(self, l):
        ext = 8.0 * np.sqrt(1.0 + l)
        m = moments(lg_mode(Grid((256, 256), (ext, ext)), l, 1.0))
        assert lg_compatibility(m, l) <= 1e-3

    def test_needs_two_axes(self):
        with pytest.raises(DimensionError, match="needs 2-axis moments"):
            lg_compatibility(moment_set(3), 1)

    def test_nonzero_for_wrong_l(self):
        m = moments(lg_mode(Grid((256, 256), (12.0, 12.0)), 1, 1.0))
        assert lg_compatibility(m, 2) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("l, sigma", [(8, 1e20), (8, 1e-20), (2, 1e80)])
    def test_law_holds_at_widths_far_from_one(self, l, sigma):
        # The mode is built in units of sigma, so (x + i y)^|l| and its mass
        # stay finite and nonzero however wide or narrow the vortex is.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, residual = lg_check(l, sigma)
        assert abs(m.cov_qp[0, 1] - 0.5 * l) <= 1e-9
        assert abs(m.cov_qp[1, 0] + 0.5 * l) <= 1e-9
        assert abs(m.cov_qq[0, 1]) / sigma**2 <= 1e-9
        # The residual is dimensionless: corr(x, y) enters as a coefficient.
        assert residual <= 1e-9


class TestProperties:
    def test_linearity_in_strength_and_weak_value(self, rng):
        cov_qq = np.array([[1.0, 0.3], [0.3, 0.8]])
        cov_qp = np.array([[0.0, 0.2], [0.1, 0.0]])
        m = moment_set(2, cov_qq=cov_qq, cov_qp=cov_qp)
        for _ in range(20):
            lam = rng.uniform(0.01, 0.2)
            w = complex(rng.normal(), rng.normal())
            base = single_prediction(m, lam, w, 0.0)
            doubled = single_prediction(m, 2 * lam, w, 0.0)
            np.testing.assert_allclose(doubled.delta_q, 2 * base.delta_q, atol=1e-14)
            np.testing.assert_allclose(doubled.delta_p, 2 * base.delta_p, atol=1e-14)
            scaled = single_prediction(m, lam, 3 * w, 0.0)
            np.testing.assert_allclose(scaled.delta_q, 3 * base.delta_q, atol=1e-14)

    def test_zero_coupling_fixed_point(self):
        pred = sequential_prediction(moment_set(3), 0.0, 0.0, 1j, 1j, 2.5)
        np.testing.assert_allclose(pred.delta_q, 0.0, atol=1e-15)
        np.testing.assert_allclose(pred.delta_p[:2], 0.0, atol=1e-15)
        assert pred.delta_p[2] == pytest.approx(RE_ORIENTATION * 2.5)

    def test_general_engine_handles_momentum_couplings(self):
        # Coupling to p: Re part moves q with the mirrored sign.
        m = moment_set(2)
        pred = predict_general(m, [(0, "p", 0.05, 1.0)])
        assert pred.delta_q[0] == pytest.approx(-RE_ORIENTATION * 0.05)
        assert pred.delta_p[0] == pytest.approx(0.0, abs=1e-15)


def random_spd(rng, d):
    g = rng.normal(size=(d, d))
    return g @ g.T + 0.1 * np.eye(d)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_p_coupling_is_the_q_coupling_with_q_and_p_exchanged(d, seed, data):
    # Exchanging q and p maps cov_qq <-> cov_pp and cov_qp to its transpose,
    # flips every coupled quadrature and the Re sign, and swaps the shifts.
    # The dual's weak values are -conj(w): Re(w) flipped alone, which is the
    # Re-sign flip, exact in floating point.
    rng = np.random.default_rng(seed)
    m = moment_set(d, cov_qq=random_spd(rng, d), cov_qp=rng.normal(size=(d, d)),
                   cov_pp=random_spd(rng, d))
    couplings = data.draw(st.lists(st.tuples(
        st.integers(0, d - 1), st.sampled_from(("q", "p")), st.floats(-2.0, 2.0),
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=3))
    exchanged = moment_set(d, cov_qq=m.cov_pp, cov_qp=m.cov_qp.T, cov_pp=m.cov_qq)
    flipped = [(axis, "p" if quadrature == "q" else "q", lam, -w.conjugate())
               for axis, quadrature, lam, w in couplings]
    pred = predict_general(m, couplings)
    dual = predict_general(exchanged, flipped)
    assert np.array_equal(pred.delta_q, dual.delta_p)
    assert np.array_equal(pred.delta_p, dual.delta_q)


def test_flipped_convention_fails_against_simulation():
    # Negative control: flipping the Im orientation breaks the q1 shift match.
    # Predicting with conj(w) flips Im(w) alone, that is, the orientation.
    cfg = load_bundled("single_wm_correlated")
    report = run_scenario(cfg)
    from pointersim.pointer import moments as _moments
    from pointersim.scenarios import build_pointer
    _, phi = build_pointer(cfg)
    m = _moments(phi)
    w = 1j  # the scenario's weak value
    wrong = single_prediction(m, cfg.couplings[0].strength, w.conjugate(), 1.0)
    lam = cfg.couplings[0].strength
    assert abs(report.shift_q[0] - wrong.delta_q[0]) > 20 * (3 * lam**2)


@pytest.mark.parametrize("name", [name for name in SWEPT if name != "zero_coupling"])
def test_residual_parts_fall_at_their_own_orders(name):
    """The odd part of the residual falls as lambda^3 on every coupled 256^2
    scenario.  Only ``single_wm_correlated``, whose pointer sits off centre on
    the coupled axis, has an even lambda^2 part; on the others it is at
    rounding.  That even term is what criterion 2's slope gate of 2.0 fits."""
    parts = parity_residuals(load_bundled(name))
    odd, even = zip(*parts)
    assert fitted_slope(odd) >= 2.9
    if name == "single_wm_correlated":
        assert 1.9 <= fitted_slope(even) <= 2.1
    else:
        assert max(even) <= 1e-13


@pytest.mark.parametrize("name", ["jozsa_reduction_3d", "seq_corr_full", "seq_corr_q3",
                                  "real_weak_value"])
def test_residual_parts_on_the_64_cubed_scenarios(name):
    """The same split on the 64^3 scenarios.  ``real_weak_value``'s weak
    value is real, so both parts are at rounding.  On the others the odd
    part falls as lambda^3; ``jozsa_reduction_3d``'s even part is a constant
    1.87e-13, its axis-3 truncation offset, so only its spread over the
    multipliers is at rounding."""
    odd, even = zip(*parity_residuals(load_bundled(name)))
    if name == "real_weak_value":
        assert max(odd + even) <= 1e-13
    else:
        assert fitted_slope(odd) >= 2.9
        if name == "jozsa_reduction_3d":
            assert max(even) - min(even) <= 1e-14
        else:
            assert max(even) <= 1e-13
