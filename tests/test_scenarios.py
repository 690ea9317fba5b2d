"""Scenario config validation, orchestration, serialization, CLI."""

import ast
import itertools
import json
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pointersim import (
    ConfigError,
    Grid,
    TwoModeGaussianParams,
    auto_grid,
    scenarios,
    two_mode_gaussian,
)
from pointersim import cli, validation
from pointersim.cli import main
from pointersim.pointer import gaussian_spreads
from pointersim.scenarios import (
    build_pointer,
    bundled_scenario_names,
    load_bundled,
    load_config,
    parse_config,
    report_json_text,
    reports_csv_text,
    run_scenario,
    run_sweep,
)
from conftest import source_sites, traced_peak

NAN, INF = float("nan"), float("inf")


def minimal_document():
    return {
        "schema_version": 1,
        "scenario_id": "tiny",
        "system": {
            "dimension": 2,
            "pre_state": [[1, 0], [1, 0]],
            "post_state": {"amplitudes": [[1, 0], [0, 1]]},
        },
        "pointer": {
            "kind": "gaussian",
            "grid": {"points_per_axis": [64, 64], "extent": [8.0, 8.0]},
            "sigma": [[1.0, 0.0], [0.0, 1.0]],
        },
        "couplings": [
            {"observable": "pauli_z", "axis": 1, "quadrature": "q", "strength": 0.05}
        ],
        "readout": {"axis": 2, "observable": "post_projector"},
    }


def bundled_document(name):
    return json.loads((Path(scenarios.__file__).parent / "scenarios"
                       / f"{name}.json").read_text(encoding="utf-8"))


DELETE = object()


def edited_document(template, keys, value):
    """The bundled document ``template`` with the entry at the path ``keys``
    set to ``value``, or removed for :data:`DELETE`."""
    doc = bundled_document(template)
    *parents, last = keys
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


class TestParsing:
    def test_bundled_corpus_loads(self):
        names = bundled_scenario_names()
        assert len(names) >= 10
        for name in names:
            cfg = load_bundled(name)
            assert cfg.scenario_id == name

    def test_unknown_top_level_key(self):
        doc = minimal_document()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc)

    def test_unknown_nested_key_reports_path(self):
        doc = minimal_document()
        doc["pointer"]["wobble"] = 3
        with pytest.raises(ConfigError, match="pointer"):
            parse_config(doc)

    # A bool or a float is not version 1, though both compare equal to it.
    @pytest.mark.parametrize("version", [99, True, 1.0])
    def test_bad_schema_version(self, version):
        doc = minimal_document()
        doc["schema_version"] = version
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(doc)

    def test_axis_out_of_range(self):
        doc = minimal_document()
        doc["couplings"][0]["axis"] = 3
        with pytest.raises(ConfigError, match=r"couplings\[0\].axis"):
            parse_config(doc)

    def test_bad_quadrature(self):
        doc = minimal_document()
        doc["couplings"][0]["quadrature"] = "x"
        with pytest.raises(ConfigError, match="quadrature"):
            parse_config(doc)

    def test_eigenvalue_index_needs_strong_readout(self):
        doc = minimal_document()
        doc["system"]["post_state"] = {"eigenvalue_index": 0}
        doc["readout"] = {"direct_projection": True}
        with pytest.raises(ConfigError, match="eigenvalue_index"):
            parse_config(doc)

    def test_pauli_needs_dimension_two(self):
        doc = minimal_document()
        doc["system"]["dimension"] = 3
        doc["system"]["pre_state"] = [[1, 0], [1, 0], [0, 0]]
        doc["system"]["post_state"] = {"amplitudes": [[1, 0], [0, 0], [0, 1]]}
        with pytest.raises(ConfigError, match="dimension 2"):
            parse_config(doc)

    def test_non_eigenvector_post_rejected_at_parse(self, monkeypatch):
        # The document is rejected as it is read, before any pointer is built.
        monkeypatch.setattr(scenarios, "build_pointer",
                            lambda cfg: pytest.fail("built the pointer"))
        doc = minimal_document()
        doc["readout"] = {"axis": 2, "observable": "pauli_z"}
        doc["system"]["post_state"] = {"amplitudes": [[1, 0], [1, 0]]}
        with pytest.raises(ConfigError, match="eigenvector") as info:
            run_scenario(parse_config(doc))
        assert info.value.path == "system.post_state.amplitudes"

    def test_eigenvector_post_resolves_to_its_eigenvalue(self):
        doc = minimal_document()
        doc["readout"] = {"axis": 2, "observable": "pauli_z"}
        doc["system"]["post_state"] = {"amplitudes": [[0, 0], [1, 0]]}
        _pre, post, a_l = scenarios.resolve_system(parse_config(doc))
        np.testing.assert_array_equal(post.amplitudes, [0, 1])
        assert a_l == -1.0

    def test_eigenvalue_index_post_resolves_to_the_readout_eigenvector(self):
        doc = minimal_document()
        doc["readout"] = {"axis": 2, "observable": "pauli_x"}
        doc["system"]["post_state"] = {"eigenvalue_index": 0}
        cfg = parse_config(doc)
        _pre, post, a_l = scenarios.resolve_system(cfg)
        obs = cfg.readout.observable
        # eigh sorts ascending: index 0 of pauli_x is -1 with |->.
        assert a_l == pytest.approx(-1.0, abs=1e-15)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert abs(np.vdot(minus, post.amplitudes)) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(obs.matrix @ post.amplitudes, a_l * post.amplitudes,
                                   atol=1e-12)

    @pytest.mark.parametrize("points, extent, message", [
        ([16, 64], [8.0, 8.0], "power of two"),
        ([100, 64], [8.0, 8.0], "power of two"),
        ([64, 64], [8.0, 0.0], "positive"),
        ([64, 64], [-8.0, 8.0], "positive"),
    ], ids=["points-below-32", "points-not-power-of-two", "extent-zero", "extent-negative"])
    def test_non_power_of_two_grid_rejected(self, points, extent, message):
        doc = minimal_document()
        doc["pointer"]["grid"] = {"points_per_axis": points, "extent": extent}
        with pytest.raises(ConfigError, match=message) as info:
            parse_config(doc)
        assert info.value.path == "pointer.grid"

    def test_non_hermitian_observable_rejected(self):
        doc = minimal_document()
        doc["couplings"][0]["observable"] = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(ConfigError, match="Hermitian") as info:
            parse_config(doc)
        assert info.value.path == "couplings[0].observable"

    def test_non_hermitian_readout_observable_rejected(self):
        doc = minimal_document()
        doc["readout"]["observable"] = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
        with pytest.raises(ConfigError, match="Hermitian") as info:
            parse_config(doc)
        assert info.value.path == "readout.observable"

    @pytest.mark.parametrize("key, matrix, message", [
        ("sigma", [[1.0, 1.2], [1.2, 1.0]], "not positive definite"),
        ("sigma", [[1.0, 0.2], [0.0, 1.0]], "not symmetric"),
        # Symmetry is relative to the largest entry: an absolute 1e-12 let
        # this sigma through to a pointer whose cov_qq was not it.
        ("sigma", [[4e-20, 3e-20], [0.0, 4e-20]], "not symmetric"),
        ("theta", [[0.0, 0.3], [0.1, 0.0]], "symmetric"),
    ], ids=["sigma-not-positive-definite", "sigma-asymmetric", "sigma-asymmetric-tiny",
            "theta-asymmetric"])
    def test_bad_gaussian_matrix_rejected(self, key, matrix, message):
        doc = minimal_document()
        doc["pointer"][key] = matrix
        with pytest.raises(ConfigError, match=message) as info:
            parse_config(doc)
        assert info.value.path == f"pointer.{key}"

    def test_simultaneous_couplings_must_share_a_quadrature(self):
        doc = minimal_document()
        doc["interaction"] = "simultaneous"
        doc["couplings"].append(
            {"observable": "pauli_x", "axis": 2, "quadrature": "p", "strength": 0.05})
        with pytest.raises(ConfigError, match="share one quadrature") as info:
            parse_config(doc)
        assert info.value.path == "couplings"

    def test_grid_derived_from_the_pointer_spread_at_parse(self):
        doc = minimal_document()
        del doc["pointer"]["grid"]
        assert parse_config(doc).grid == Grid((256, 256), (8.0, 8.0))

    @pytest.mark.parametrize("template, key, value, points, extent", [
        ("lg_probe", "l", 16, 512, 8.0 * np.sqrt(17.0)),
        ("lg_probe", "l", 20, 512, 8.0 * np.sqrt(21.0)),
        ("lg_probe", "l", 40, 1024, 8.0 * np.sqrt(41.0)),
        ("theta_qp_gaussian", "theta", [[10, 0], [0, 0]], 512, 8.0),
        ("theta_qp_gaussian", "theta", [[8, 0], [0, 0]], 256, 8.0),
    ], ids=["vortex-l16", "vortex-l20", "vortex-l40", "chirp-10", "chirp-8-keeps-256"])
    def test_derived_grid_covers_the_momentum_spread(self, template, key, value, points,
                                                     extent):
        # The extent still comes from the position spread; the points double
        # until pi/dq holds 6 momentum sd.  Each document exited 2 at
        # pointer.grid when the derived grid ignored momentum (chirp 8 aside).
        doc = bundled_document(template)
        del doc["pointer"]["grid"]
        doc["pointer"][key] = value
        cfg = parse_config(doc)
        assert cfg.grid.points_per_axis == (points, points)
        assert cfg.grid.extent == pytest.approx((extent, extent), rel=1e-15)
        build_pointer(cfg)

    def test_parse_builds_no_pointer_and_no_spectrum(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("parse called eigh"))
        for name in ("build_pointer", "moments"):
            monkeypatch.setattr(scenarios, name,
                                lambda *args, name=name: pytest.fail(f"parse called {name}"))
        for name in bundled_scenario_names():
            load_bundled(name)

    def test_coupling_mode_key_rejected(self):
        # Schema change: couplings take exactly observable, axis, quadrature
        # and strength; the first-order path is first_order_pointer, not a key.
        doc = minimal_document()
        doc["couplings"][0]["mode"] = "exact"
        with pytest.raises(ConfigError, match=r"unknown keys \['mode'\]"):
            parse_config(doc)

    @pytest.mark.parametrize("template, keys, value, path, fragment", [
        ("jozsa_baseline", ("system",), [], "system", "expected an object, got list"),
        ("jozsa_baseline", ("system", "dimension"), DELETE, "system",
         r"missing keys \['dimension'\]"),
        ("jozsa_baseline", ("couplings", 0, "observable"), "pauli_w",
         "couplings[0].observable", "unknown observable name 'pauli_w'"),
        ("jozsa_baseline", ("scenario_id",), "a b", "scenario_id",
         "nonempty alphanumeric"),
        ("jozsa_baseline", ("system", "dimension"), 17, "system.dimension",
         r"dimension must be in 2\.\.16"),
        ("jozsa_baseline", ("system", "post_state"), {}, "system.post_state",
         "exactly one of"),
        ("seq_corr_full", ("system", "post_state", "eigenvalue_index"), 2,
         "system.post_state.eigenvalue_index", r"must be in 0\.\.1"),
        ("jozsa_baseline", ("system", "post_state"), {"vector": [[1, 0], [0, 1]]},
         "system.post_state", "needs 'amplitudes' or 'eigenvalue_index'"),
        ("jozsa_baseline", ("pointer", "kind"), DELETE, "pointer", "pointer needs a 'kind'"),
        ("jozsa_baseline", ("pointer", "sigma"), np.eye(4).tolist(), "pointer.sigma",
         "support 1-3 axes"),
        ("jozsa_baseline", ("pointer", "grid", "points_per_axis"), [256],
         "pointer.grid.points_per_axis", "must list 2 entries"),
        ("jozsa_baseline", ("couplings",), {}, "couplings", "couplings must be a list"),
        ("jozsa_baseline", ("interaction",), "parallel", "interaction",
         "'sequential' or 'simultaneous'"),
        ("jozsa_baseline", ("readout",), [], "readout", "readout must be an object"),
        ("jozsa_baseline", ("readout", "axis"), 3, "readout.axis", r"axis must be in 1\.\.2"),
        ("seq_corr_full", ("readout", "observable"), "post_projector", "readout.observable",
         "needs explicit post_state amplitudes"),
        ("jozsa_baseline", ("sweep",), 2, "sweep", "sweep must be a list of multipliers"),
    ], ids=["system-not-an-object", "dimension-missing", "observable-name-unknown",
            "scenario-id-with-a-space", "dimension-too-large", "post-state-empty",
            "eigenvalue-index-too-large", "post-state-unknown-key", "pointer-without-kind",
            "gaussian-four-axes", "points-per-axis-too-short", "couplings-not-a-list",
            "interaction-unknown", "readout-not-an-object", "readout-axis-too-large",
            "post-projector-without-amplitudes", "sweep-not-a-list"])
    def test_document_rule_raises_at_its_path(self, template, keys, value, path, fragment):
        with pytest.raises(ConfigError, match=fragment) as info:
            parse_config(edited_document(template, keys, value))
        assert info.value.path == path

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError, match="no bundled scenario named 'no_such'") as info:
            load_bundled("no_such")
        assert info.value.path == ""


class TestRunScenario:
    def test_deterministic_outputs(self):
        cfg = load_bundled("jozsa_baseline")
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert reports_csv_text([a]) == reports_csv_text([b])
        assert report_json_text(a) == report_json_text(b)

    def test_jozsa_baseline_magnitude(self):
        # |dq1| = 2 lam Im(w) var(q1) = 0.1 * var(q1), up to O(lam^2).
        report = run_scenario(load_bundled("jozsa_baseline"))
        lam = 0.05
        assert abs(abs(report.shift_q[0]) - 0.1) <= 3 * lam**2
        assert report.residual_q[0] <= 3 * lam**2

    def test_seq_corr_q3_magnitude(self):
        report = run_scenario(load_bundled("seq_corr_q3"))
        lam = 0.05
        assert abs(abs(report.shift_q[2]) - 0.03) <= 3 * lam**2

    def test_real_weak_value_null_shifts(self):
        report = run_scenario(load_bundled("real_weak_value"))
        assert np.max(np.abs(report.shift_q)) <= 1e-6

    def test_theta_scenario_readout_momentum_correlation_term(self):
        # corr(q1,p2) = 0.3 enters dp2 on top of the readout offset.
        report = run_scenario(load_bundled("theta_qp_gaussian"))
        lam = 0.05
        expected = -1.0 + 2 * lam * 0.3
        assert abs(report.shift_p[1] - expected) <= 3 * lam**2
        assert report.residual_p[1] <= 3 * lam**2

    def test_csv_shape(self):
        report = run_scenario(load_bundled("jozsa_baseline"))
        text = reports_csv_text([report])
        lines = text.strip().split("\n")
        assert lines[0] == ("scenario_id,axis,quadrature,initial_mean,final_mean,"
                            "shift,predicted,residual,lambda1,lambda2,prob")
        assert len(lines) == 1 + 2 * 2  # header + axes x quadratures
        assert lines[1].startswith("jozsa_baseline,1,q,")

    def test_traced_peak_stays_within_one_point_six_joint_states(self):
        # The 64^3 joint state is 8 MiB.  A run whose stages copied it, or
        # kept the initial pointer alive through the couplings, would peak at
        # about 40 MiB.  Every pipeline step writes into the one joint buffer,
        # so the peak is the pointer plus the joint state, at make_joint and
        # at postselect, whose projection adds one 256 KiB block buffer.
        cfg = load_bundled("seq_corr_full")
        joint_bytes = 2 * 64**3 * np.dtype(complex).itemsize
        _report, peak = traced_peak(lambda: run_scenario(cfg))
        assert peak <= 1.6 * joint_bytes, f"traced peak {peak / 2**20:.1f} MiB"

    def test_lg_probe_peaks_within_two_and_a_half_joint_states(self):
        # lg_probe's 256^2 joint state is 2 MiB.  Its commuting pair shares
        # one eigenbasis, so the kernel holds no grid-sized generator or
        # eigenvectors: besides the joint state and the initial pointer, only
        # one block's rotated amplitudes and phases are alive at a time.
        cfg = load_bundled("lg_probe")
        joint_bytes = 2 * 256**2 * np.dtype(complex).itemsize
        _report, peak = traced_peak(lambda: run_scenario(cfg))
        assert peak <= 2.5 * joint_bytes, f"traced peak {peak / 2**20:.1f} MiB"

    def test_json_shape(self):
        report = run_scenario(load_bundled("jozsa_baseline"))
        obj = json.loads(report_json_text(report))
        assert obj["scenario_id"] == "jozsa_baseline"
        assert obj["convention"] == {"orientation": 1, "re_orientation": -1}
        assert len(obj["axes"]) == 2
        assert set(obj["axes"][0]["q"]) == {"initial", "final", "shift", "predicted", "residual"}


class TestKickBudget:
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_scenarios_pass_at_twice_their_strengths(self, name):
        scenarios.check_kick_budget(load_bundled(name), 2.0)

    def test_readout_kick_counts_on_its_axis(self):
        # seq_corr_full reads pauli_y (kick up to 1) out on axis 3.  Without
        # its couplings, on an axis-3 grid whose momentum half-width is
        # 6 sd_p + 0.5, the unkicked pointer fits and the readout breaks it.
        cfg = load_bundled("seq_corr_full")
        std_p = scenarios._POINTER_KINDS[cfg.pointer_kind][0](cfg.pointer_params)[1]
        points = cfg.grid.points_per_axis
        extent = np.pi * points[2] / (2.0 * (6.0 * std_p[2] + 0.5))
        cfg = replace(cfg, couplings=(),
                      grid=Grid(points, cfg.grid.extent[:2] + (extent,)))
        scenarios.build_pointer(cfg)  # the builder's coverage rule holds
        with pytest.raises(ConfigError, match="axis 3: momentum half-width .* less offset 1 "
                           "holds .*, at strength multiplier 1$") as info:
            scenarios.check_kick_budget(cfg, 1.0)
        assert info.value.path == "couplings"

    def test_kick_below_the_resolution_floor_exits_2(self, tmp_path, capsys):
        # sigma 1e-305 on the derived 256^2 grid puts pi/dq at 1.6e154: the
        # 0.05 momentum kick is lost to rounding (axis-1 dp came out -2.3e136).
        doc = bundled_document("jozsa_baseline")
        del doc["pointer"]["grid"]
        doc["pointer"]["sigma"] = [[1e-305, 0.0], [0.0, 1e-305]]
        path = tmp_path / "tiny_sigma.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: couplings: axis 1: a momentum kick of 0.05 is below "
                              "the resolution floor ")
        assert err.endswith(", at strength multiplier 1\n")

    def test_sweep_checks_resolution_at_its_smallest_nonzero_multiplier(self):
        # jozsa_baseline's momentum floor is 1e6 eps pi/dq = 1.1e-8; its
        # 0.05 kick falls below it at 1e-7, and a zero multiplier kicks nothing.
        cfg = load_bundled("jozsa_baseline")
        run_sweep(cfg, [1.0, 0.5, 0.0])
        with pytest.raises(ConfigError, match="a momentum kick of 5e-09 is below the resolution "
                           "floor .*, at strength multiplier 1e-07$") as info:
            run_sweep(cfg, [1.0, 0.5, 0.0, -1e-7])
        assert info.value.path == "couplings"


class TestPointerKinds:
    def test_the_table_is_the_only_dispatch_on_the_kind(self):
        # The spreads and builders of the pointer kinds appear in scenarios
        # only at module level, in _POINTER_KINDS; two_mode_gaussian not at all.
        names = ("gaussian_spreads", "lg_spreads", "gaussian_pointer", "lg_mode",
                 "two_mode_gaussian")
        sites = source_sites(
            lambda node: node.id if isinstance(node, ast.Name) and node.id in names else None)
        assert {(scope, name) for module, scope, name in sites if module == "scenarios"} == {
            ("<module>", name) for name in names[:4]}

    @pytest.mark.parametrize("alpha, beta, gamma", [
        (0.25, 0.25, 0.1), (0.25, 0.25, -0.1), (0.25, 0.25, 0.0), (0.25, 0.25, 0.125),
        (0.5, 0.125, 0.2), (2.0, 1.0, -1.3)])
    def test_two_mode_document_on_a_derived_grid_is_its_gaussian(self, alpha, beta, gamma):
        doc = bundled_document("two_mode_entangle")
        del doc["pointer"]["grid"]
        doc["pointer"].update(alpha=alpha, beta=beta, gamma=gamma)
        grid, phi = build_pointer(parse_config(doc))
        params = TwoModeGaussianParams(alpha, beta, gamma)
        assert grid == auto_grid(*gaussian_spreads(params.position_covariance()), None, None)
        assert np.array_equal(phi.amplitudes, two_mode_gaussian(grid, params).amplitudes)

    def test_two_mode_document_at_tiny_widths(self):
        # The inverse leaves the position covariance (entries near 1e19)
        # asymmetric by about 1e3, which an absolute 1e-12 called "not
        # symmetric".  Relative to its largest entry it is symmetric: the
        # document fails on the kick budget instead, since its momentum
        # spread is 1e-10, and runs at a strength of 1e-12.
        doc = bundled_document("two_mode_entangle")
        del doc["pointer"]["grid"]
        doc["pointer"].update(alpha=1e-20, beta=2e-20, gamma=5e-21)
        with pytest.raises(ConfigError, match="momentum half-width .* less offset 0.05 holds") \
                as info:
            run_scenario(parse_config(doc))
        assert info.value.path == "couplings"
        doc["couplings"][0]["strength"] = 1e-12
        report = run_scenario(parse_config(doc))
        assert np.max(report.residual_p) < 1e-24
        np.testing.assert_allclose(report.shift_q, report.predicted_dq, rtol=1e-3)


class TestRunSweep:
    def test_needs_three_multipliers(self):
        cfg = load_bundled("jozsa_baseline")
        with pytest.raises(ConfigError, match="at least 3"):
            run_sweep(cfg, (1.0, 0.5))

    def test_initial_moments_computed_once_per_sweep(self, monkeypatch):
        calls = []
        original = scenarios.moments
        monkeypatch.setattr(scenarios, "moments", lambda phi: calls.append(phi) or original(phi))
        resolved = []
        resolve = scenarios.resolve_system
        monkeypatch.setattr(scenarios, "resolve_system",
                            lambda cfg: resolved.append(cfg) or resolve(cfg))
        run_sweep(parse_config(minimal_document()), (2.0, 1.5, 1.0, 0.75, 0.5))
        assert len(calls) == 6  # the initial state once, then one final state per multiplier
        # Once for the predictions, then once per multiplier inside simulate_pipeline.
        assert len(resolved) == 6

    def test_rejects_non_finite_multipliers(self):
        cfg = parse_config(minimal_document())
        with pytest.raises(ConfigError, match="multipliers must be finite") as info:
            run_sweep(cfg, (1.0, -np.inf, 0.5))
        assert info.value.path == "sweep"

    def test_zero_coupling_sweep_residuals_vanish(self):
        cfg = load_bundled("zero_coupling")
        reports, summary = run_sweep(cfg, cfg.sweep)
        assert all(norm <= 1e-9 for norm in summary["residual_norms"])
        assert summary["slope"] is None

    def test_quadratic_residual_decay(self):
        cfg = load_bundled("single_wm_correlated")
        _, summary = run_sweep(cfg, cfg.sweep)
        assert summary["slope"] == pytest.approx(2.0, abs=0.3)

    def test_lg_probe_linear_in_strength(self):
        cfg = load_bundled("lg_probe")
        reports, _ = run_sweep(cfg, cfg.sweep)
        g = 0.05
        # First-order shifts: dx = g(Re A + l Im B), dy = g(Re B - l Im A)
        # with (Z)_w = i and (proj0)_w = (1+i)/2 at this postselection.
        base = reports[1]
        assert base.shift_q[0] == pytest.approx(g * 0.5, abs=3 * (2 * g) ** 2)
        assert base.shift_q[1] == pytest.approx(g * (0.5 - 1.0), abs=3 * (2 * g) ** 2)
        ratios = [abs(r.shift_q[0]) for r in reports]
        assert ratios[0] / ratios[1] == pytest.approx(2.0, rel=0.05)
        assert ratios[1] / ratios[2] == pytest.approx(2.0, rel=0.05)


class TestCli:
    def test_run_writes_deterministic_files(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(minimal_document()))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("tiny.csv", "tiny.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_run_prints_its_probability_and_its_own_wall_time(self, tmp_path, capsys,
                                                              monkeypatch):
        # The clock ticks 2 s per read: _cmd_run reads it around run_scenario.
        ticks = itertools.count(step=2.0)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
        path = Path(scenarios.__file__).parent / "scenarios" / "jozsa_baseline.json"
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(r"scenario jozsa_baseline: prob=\d\.\d{6} wall=2\.000s", first)

    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(minimal_document()))
        assert main(["sweep", str(cfg_path), "--multipliers", "2", "1", "0.5",
                     "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "tiny_sweep.csv").exists()
        assert (tmp_path / "s" / "tiny_sweep.json").exists()

    def test_sweep_falls_back_to_config_list(self, tmp_path):
        doc = minimal_document()
        doc["sweep"] = [2.0, 1.0, 0.5]
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "tiny_sweep.csv").exists()

    def test_sweep_without_any_multipliers_exits_2(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(minimal_document()))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("source", ["flag", "document"])
    def test_sweep_at_one_distinct_multiplier_has_no_slope(self, tmp_path, source):
        # Three equal multipliers leave one distinct log-multiplier: there is
        # no line to fit, so the slope is null rather than a fitting error.
        doc = minimal_document()
        args = []
        if source == "flag":
            args = ["--multipliers", "1", "1", "1"]
        else:
            doc["sweep"] = [1, 1, 1]
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", str(cfg_path), *args, "--out", str(tmp_path / "s")]) == 0
        summary = json.loads((tmp_path / "s" / "tiny_sweep.json").read_text())["summary"]
        assert summary["multipliers"] == [1.0, 1.0, 1.0]
        assert summary["slope"] is None

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_sweep_non_finite_multiplier_exits_2(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(minimal_document()))
        assert main(["sweep", str(cfg_path), "--multipliers", bad, "1", "0.5",
                     "--out", str(tmp_path / "s")]) == 2
        assert "config error: sweep: multipliers must be finite" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_short_document_sweep_exits_2_on_run(self, tmp_path, capsys):
        # A document's sweep meets run_sweep's rule as soon as it is read.
        doc = bundled_document("jozsa_baseline")
        doc["sweep"] = [1.0, 0.5]
        path = tmp_path / "short_sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert ("config error: sweep: a sweep needs at least 3 multipliers"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_over_long_scenario_id_exits_2_before_any_compute(self, tmp_path, capsys,
                                                             monkeypatch):
        # 123 characters, 246 UTF-8 bytes: "<id>_sweep.json" would pass the
        # 255-byte file-name limit.  244 bytes is the most an id may take.
        doc = minimal_document()
        doc["scenario_id"] = "a" * 244
        parse_config(doc)
        doc["scenario_id"] = "\u00e9" * 123
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(scenarios, "build_pointer",
                            lambda *args: pytest.fail("run computed an invalid scenario"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: scenario_id: scenario_id must be at most 244 UTF-8 bytes" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(["appendix-a", "--sigma1", "1", "--sigma2", "1", "--c12", "0.3",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    @pytest.mark.parametrize("out", ["file/out", ""], ids=["under_a_file", "empty"])
    @pytest.mark.parametrize("argv", [["validate"], ["run", "tiny.json"], ["run", "nope.json"]])
    def test_unwritable_out_exits_1_before_any_compute(self, tmp_path, capsys, monkeypatch,
                                                       argv, out):
        # --out is checked first, so a missing document exits 1 here, not 2.
        # An empty --out names no directory, though its absolute path would.
        (tmp_path / "tiny.json").write_text(json.dumps(minimal_document()))
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(validation, "run_all",
                            lambda: pytest.fail("validate ran the suite"))
        monkeypatch.setattr(cli, "run_scenario",
                            lambda *args: pytest.fail("run computed the scenario"))
        argv = argv[:1] + [str(tmp_path / name) for name in argv[1:]]
        assert main(argv + ["--out", out and str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_invalid_config_exits_2(self, tmp_path):
        doc = minimal_document()
        doc["bogus"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2

    def test_non_positive_definite_sigma_exits_2(self, tmp_path, capsys):
        doc = bundled_document("jozsa_baseline")
        doc["pointer"]["sigma"] = [[1.0, 1.2], [1.2, 1.0]]
        path = tmp_path / "bad_sigma.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "pointer.sigma: sigma is not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("template, keys, value, path", [
        ("two_mode_entangle", ("pointer", "gamma"), 0.5, "pointer"),
        ("two_mode_entangle", ("pointer", "alpha"), -0.25, "pointer"),
        ("jozsa_baseline", ("system", "pre_state"), [[0, 0], [0, 0]], "system.pre_state"),
        ("jozsa_baseline", ("system", "post_state"), {"amplitudes": [[0, 0], [0, 0]]},
         "system.post_state.amplitudes"),
        ("jozsa_baseline", ("pointer", "grid"),
         {"points_per_axis": [256, 256], "extent": [4.0, 4.0]}, "pointer.grid"),
        ("two_mode_entangle", ("pointer", "grid"),
         {"points_per_axis": [256, 256], "extent": [5.0, 5.0]}, "pointer.grid"),
        ("lg_probe", ("pointer", "l"), 40, "pointer.grid"),
        ("theta_qp_gaussian", ("pointer", "theta"), [[10, 0], [0, 0]], "pointer.grid"),
        ("theta_qp_gaussian", ("pointer", "theta"), [[12, 0], [0, 0]], "pointer.grid"),
        # Every document array: a non-list, a wrong length, a bad [re, im]
        # pair where pairs apply, a boolean and a non-finite leaf.
        ("jozsa_baseline", ("system", "pre_state"), "x", "system.pre_state"),
        ("jozsa_baseline", ("system", "pre_state"), [[1, 0]], "system.pre_state"),
        ("jozsa_baseline", ("system", "pre_state"), [[1, 0], [1]], "system.pre_state[1]"),
        ("jozsa_baseline", ("system", "pre_state"), [[1, 0], [True, 0]],
         "system.pre_state[1][0]"),
        ("jozsa_baseline", ("system", "pre_state"), [[1, 0], [1, NAN]],
         "system.pre_state[1][1]"),
        ("jozsa_baseline", ("system", "post_state", "amplitudes"), 3,
         "system.post_state.amplitudes"),
        ("jozsa_baseline", ("system", "post_state", "amplitudes"), [[1, 0], [0, 1], [0, 0]],
         "system.post_state.amplitudes"),
        ("jozsa_baseline", ("system", "post_state", "amplitudes"), [[1, 0], 1],
         "system.post_state.amplitudes[1]"),
        ("jozsa_baseline", ("system", "post_state", "amplitudes"), [[False, 0], [0, 1]],
         "system.post_state.amplitudes[0][0]"),
        ("jozsa_baseline", ("system", "post_state", "amplitudes"), [[1, 0], [INF, 1]],
         "system.post_state.amplitudes[1][0]"),
        ("jozsa_baseline", ("couplings", 0, "observable"), 1.0, "couplings[0].observable"),
        ("jozsa_baseline", ("couplings", 0, "observable"), [[[1, 0], [0, 0]], [[0, 0]]],
         "couplings[0].observable[1]"),
        ("jozsa_baseline", ("couplings", 0, "observable"), [[[1, 0], [0, 0]], [[0, 0], [1]]],
         "couplings[0].observable[1][1]"),
        ("jozsa_baseline", ("couplings", 0, "observable"),
         [[[1, 0], [0, 0]], [[0, 0], [True, 0]]], "couplings[0].observable[1][1][0]"),
        ("jozsa_baseline", ("couplings", 0, "observable"),
         [[[1, 0], [0, 0]], [[0, 0], [1, NAN]]], "couplings[0].observable[1][1][1]"),
        ("jozsa_baseline", ("pointer", "sigma"), "s", "pointer.sigma"),
        ("jozsa_baseline", ("pointer", "sigma"), [[1, 0], [0]], "pointer.sigma[1]"),
        ("jozsa_baseline", ("pointer", "sigma"), [[1, 0], [0, True]], "pointer.sigma[1][1]"),
        ("jozsa_baseline", ("pointer", "sigma"), [[1, 0], [0, NAN]], "pointer.sigma[1][1]"),
        ("jozsa_baseline", ("pointer", "mean_q"), 0.5, "pointer.mean_q"),
        ("jozsa_baseline", ("pointer", "mean_q"), [0.1, 0.2, 0.3], "pointer.mean_q"),
        ("jozsa_baseline", ("pointer", "mean_q"), [True, 0], "pointer.mean_q[0]"),
        ("jozsa_baseline", ("pointer", "mean_q"), [0, -INF], "pointer.mean_q[1]"),
        ("theta_qp_gaussian", ("pointer", "theta"), "t", "pointer.theta"),
        ("theta_qp_gaussian", ("pointer", "theta"), [[0, 0.3]], "pointer.theta"),
        ("theta_qp_gaussian", ("pointer", "theta"), [[0, 0.3], [0.3, False]],
         "pointer.theta[1][1]"),
        ("theta_qp_gaussian", ("pointer", "theta"), [[0, NAN], [0.3, 0]], "pointer.theta[0][1]"),
        ("jozsa_baseline", ("pointer", "grid", "extent"), [8.0], "pointer.grid.extent"),
        ("jozsa_baseline", ("pointer", "grid", "extent"), [8.0, True], "pointer.grid.extent[1]"),
        # A kind that is not a string, even an unhashable one, is unknown too.
        ("jozsa_baseline", ("pointer", "kind"), "gauss", "pointer.kind"),
        ("jozsa_baseline", ("pointer", "kind"), ["gaussian"], "pointer.kind"),
        ("jozsa_baseline", ("pointer", "kind"), {"a": 1}, "pointer.kind"),
        # Integers too large for a float.
        ("jozsa_baseline", ("couplings", 0, "strength"), 10**400, "couplings[0].strength"),
        ("jozsa_baseline", ("pointer", "sigma"), [[10**400, 0], [0, 1]], "pointer.sigma[0][0]"),
        ("lg_probe", ("pointer", "l"), 10**400, "pointer.l"),
        ("lg_probe", ("pointer", "grid", "points_per_axis"), [2**2000, 256],
         "pointer.grid.points_per_axis[0]"),
        # Entries near the float limit: no overflow warning before the rule.
        ("theta_qp_gaussian", ("pointer", "theta"), [[1e308, 1e308], [1e308, 1e308]],
         "pointer.theta"),
        ("theta_qp_gaussian", ("couplings", 0, "observable"),
         [[[1e308, 1e308], [1e308, -1e308]], [[1e308, 1e308], [1e308, 1e308]]],
         "couplings[0].observable"),
    ], ids=["two-mode-not-normalizable", "two-mode-negative-alpha", "zero-pre-state",
            "zero-post-state", "gaussian-grid-too-small", "two-mode-grid-too-small",
            "vortex-l40-grid-too-small", "chirp-10-aliases-in-momentum",
            "chirp-12-aliases-in-momentum",
            "pre-state-not-a-list", "pre-state-wrong-length", "pre-state-bad-pair",
            "pre-state-boolean", "pre-state-nan",
            "post-state-not-a-list", "post-state-wrong-length", "post-state-bad-pair",
            "post-state-boolean", "post-state-inf",
            "observable-not-a-list", "observable-wrong-length", "observable-bad-pair",
            "observable-boolean", "observable-nan",
            "sigma-not-a-list", "sigma-wrong-length", "sigma-boolean", "sigma-nan",
            "mean-q-not-a-list", "mean-q-wrong-length", "mean-q-boolean", "mean-q-inf",
            "theta-not-a-list", "theta-wrong-length", "theta-boolean", "theta-nan",
            "extent-wrong-length", "extent-boolean",
            "kind-unknown-string", "kind-list", "kind-object",
            "strength-huge-integer", "sigma-huge-integer", "vortex-l-huge-integer",
            "points-huge-integer", "theta-spread-overflows", "observable-huge-not-hermitian"])
    def test_document_rule_exits_2_with_its_path(self, tmp_path, capsys, template, keys,
                                                 value, path):
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps(edited_document(template, keys, value)))
        assert main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_builder_coverage_error_names_the_documents_axis(self, tmp_path, capsys):
        doc = bundled_document("jozsa_baseline")
        doc["pointer"]["grid"]["extent"] = [8.0, 5.0]
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps(doc))
        assert main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: pointer.grid: axis 2: position half-width 5 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_overflowing_readout_eigenvalue_exits_2_without_a_warning(self, tmp_path, capsys):
        # A finite Hermitian readout whose product with the post state overflows.
        doc = bundled_document("theta_qp_gaussian")
        doc["system"] = {"dimension": 4, "pre_state": [[1, 0]] * 4,
                         "post_state": {"amplitudes": [[1, 0]] * 4}}
        doc["couplings"][0]["observable"] = "proj0"
        doc["readout"]["observable"] = [[[1e308, 0]] * 4] * 4
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps(doc))
        assert main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: readout.observable: the readout "
                                           "eigenvalue of post_state overflows\n")

    def test_overflowing_state_norm_runs_as_the_bundled_state(self, tmp_path):
        # The norm of a pre_state scaled by 1e200 overflows a float.  Scaled by
        # its largest part first, it normalizes to the bundled state's bits.
        doc = bundled_document("jozsa_baseline")
        for name, scale in (("ref", 1), ("big", 1e200)):
            doc["system"]["pre_state"] = [[scale, 0], [scale, 0]]
            doc_path = tmp_path / f"{name}.json"
            doc_path.write_text(json.dumps(doc))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", str(doc_path), "--out", str(tmp_path / name)]) == 0
        for name in ("jozsa_baseline.csv", "jozsa_baseline.json"):
            assert (tmp_path / "big" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # Python's int parser refuses a literal of more than 4300 digits with
        # a ValueError that is not a JSONDecodeError.
        text = json.dumps(bundled_document("jozsa_baseline"))
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(text.replace('"strength": 0.05', '"strength": 1' + "0" * 5000))
        assert main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid JSON in {doc_path}: ")
        assert "4300" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_grid_with_too_many_cells_exits_2_before_any_allocation(self, tmp_path, capsys):
        # 2**38 cells would ask numpy for gigabytes; the document is rejected
        # while it is parsed, before any pointer is built.
        doc = bundled_document("lg_probe")
        doc["pointer"]["grid"]["points_per_axis"] = [2**30, 256]
        with pytest.raises(ConfigError, match="exceed the limit") as info:
            parse_config(doc)
        assert info.value.path == "pointer.grid"
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps(doc))
        assert main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: pointer.grid: 274877906944 grid cells exceed "
                       "the limit of 2097152\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sigma1, sigma2, c12, axis", [
        ("30", "1", "0.2", 1), ("100", "1", "0.5", 1), ("1", "30", "0.2", 2),
    ])
    def test_appendix_a_beyond_its_grid_exits_1(self, tmp_path, capsys, sigma1, sigma2, c12,
                                                axis):
        # The 256^2 grid spans 8 sd of the wider axis and cannot hold the
        # narrow axis in momentum; the closed form i c12/sigma2^2 is missed.
        assert main(["appendix-a", "--sigma1", sigma1, "--sigma2", sigma2, "--c12", c12,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: axis {axis}: momentum half-width ")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_derived_grid_past_the_cap_exits_2(self, tmp_path, capsys):
        # l = 70 needs 1085 points per axis; the derived grid stops at 1024.
        doc = bundled_document("lg_probe")
        del doc["pointer"]["grid"]
        doc["pointer"]["l"] = 70
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps(doc))
        assert main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: pointer.grid: axis 1: momentum" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("template, strength, space", [
        # Kick 40 against pi/dq = 12.57; unchecked, the run reports axis-1
        # dp = +7.26 against a prediction of -28.3 and exits 0.
        ("seq_corr_full", 40.0, "momentum"),
        # A p-coupling shifts position: kick 4 against 10 - 6 sd_q = 1.51.
        ("lg_probe", 4.0, "position"),
    ], ids=["q-coupling-wraps-momentum", "p-coupling-wraps-position"])
    def test_kick_past_the_grid_exits_2_naming_the_axis(self, tmp_path, capsys, template,
                                                        strength, space):
        doc = bundled_document(template)
        doc["couplings"][0]["strength"] = strength
        doc_path = tmp_path / "wraps.json"
        doc_path.write_text(json.dumps(doc))
        assert main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: couplings: axis 1: {space} half-width ")
        assert f" less offset {strength:g} holds " in err
        assert err.endswith(", at strength multiplier 1\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_sweep_whose_largest_multiplier_wraps_exits_2(self, tmp_path, capsys):
        # At 400x the 0.04 coupling kicks momentum by 16 against pi/dq = 12.57;
        # unchecked, the sweep fits a slope of 1.871 through the wrapped run.
        doc_path = tmp_path / "seq_corr_full.json"
        doc_path.write_text(json.dumps(bundled_document("seq_corr_full")))
        assert main(["sweep", str(doc_path), "--multipliers", "1", "2", "400",
                     "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: couplings: axis 1: momentum half-width ")
        assert " less offset 16 holds " in err
        assert err.endswith(", at strength multiplier 400\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_vortex_width_with_unusable_square_exits_2(self, tmp_path, capsys, sigma):
        # The width is checked where the document is parsed, before any grid.
        doc = bundled_document("lg_probe")
        del doc["pointer"]["grid"]
        doc["pointer"]["sigma"] = sigma
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps(doc))
        assert main(["run", str(doc_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: pointer.sigma: sigma must be positive and finite" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_exits_1(self, tmp_path):
        doc = minimal_document()
        doc["system"]["pre_state"] = [[1, 0], [0, 0]]
        doc["system"]["post_state"] = {"amplitudes": [[0, 0], [1, 0]]}
        doc["readout"] = {"direct_projection": True}
        doc["couplings"] = []
        path = tmp_path / "orth.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1

    def test_lg_check_command(self, tmp_path):
        assert main(["lg-check", "--l", "1", "--out", str(tmp_path)]) == 0
        obj = json.loads((tmp_path / "lg_check_l1.json").read_text())
        assert obj["corr_x_py"] == pytest.approx(0.5, abs=1e-3)
        assert obj["corr_y_px"] == pytest.approx(-0.5, abs=1e-3)

    @pytest.mark.parametrize("l", [16, 20])
    def test_lg_check_high_order_runs_on_the_derived_grid(self, tmp_path, l):
        # 256^2 does not cover these modes' momentum spread; the derived grid
        # doubles the points instead of failing on coverage.
        assert main(["lg-check", "--l", str(l), "--out", str(tmp_path)]) == 0
        obj = json.loads((tmp_path / f"lg_check_l{l}.json").read_text())
        assert obj["residual"] <= 1e-9

    def test_lg_check_has_no_points_option(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["lg-check", "--l", "1", "--points", "128", "--out", str(tmp_path)])

    def test_entangle_command(self, tmp_path):
        assert main(["entangle", "--alpha", "0.25", "--beta", "0.25",
                     "--gamma", "0.125", "--out", str(tmp_path)]) == 0
        files = [f for f in os.listdir(tmp_path) if f.startswith("entangle")]
        obj = json.loads((tmp_path / files[0]).read_text())
        assert obj["entangled_direct"] and obj["entangled_from_shifts"]
        assert obj["det_direct"] == pytest.approx(-1.0 / 12.0, abs=1e-6)

    @pytest.mark.parametrize("strength", ["0", "nan", "inf"])
    def test_entangle_unusable_strength_exits_1(self, tmp_path, capsys, strength):
        assert main(["entangle", "--alpha", "0.25", "--beta", "0.25", "--gamma", "0.125",
                     "--strength", strength, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: probe strength must be finite and nonzero")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_entangle_strength_past_the_grid_exits_1(self, tmp_path, capsys):
        # The probe kicks axis 1's position by |strength| too, far past its
        # half-width of 4: unchecked, the shifts gave an all-zero C and exit 0.
        assert main(["entangle", "--alpha", "1", "--beta", "1", "--gamma", "0",
                     "--strength", "1e300", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: probe strength 1e+300: axis 1: position half-width 4 less offset "
                       "1e+300 holds fewer than 6 marginal standard deviations (0.5)\n")
        assert os.listdir(tmp_path) == []

    def test_output_file_that_cannot_be_written_exits_1(self, tmp_path, capsys):
        # --out is a writable directory, but the output's name is taken by one.
        (tmp_path / "entangle_a0.25_b0.25_g0.125.json").mkdir()
        assert main(["entangle", "--alpha", "0.25", "--beta", "0.25", "--gamma", "0.125",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: [Errno 21] Is a directory: ")
        assert err.count("\n") == 1

    def test_entangle_strength_below_the_resolution_floor_exits_1(self, tmp_path, capsys):
        # A 1e-20 kick is rounding noise on this grid: the momentum floor is
        # 2.2e-8 and the position floor 8.9e-10.  The shifts of such a kick
        # would give the product state det(C) = -4.9e5, read as entangled.
        assert main(["entangle", "--alpha", "1", "--beta", "1", "--gamma", "0",
                     "--strength", "1e-20", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: probe strength 1e-20: axis 1: a momentum kick of 1e-20 is "
                              "below the resolution floor 2.23224e-08")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, name", [
        (["entangle", "--alpha", "inf", "--beta", "0.25", "--gamma", "0.125"], "alpha"),
        (["entangle", "--alpha", "0.25", "--beta", "inf", "--gamma", "0.125"], "beta"),
        (["entangle", "--alpha", "nan", "--beta", "0.25", "--gamma", "0.125"], "alpha"),
        (["entangle", "--alpha", "0.25", "--beta", "0.25", "--gamma", "nan"], "gamma"),
        (["appendix-a", "--sigma1", "inf", "--sigma2", "1", "--c12", "0.2"], "sigma1"),
        (["appendix-a", "--sigma1", "1", "--sigma2", "nan", "--c12", "0.2"], "sigma2"),
        (["appendix-a", "--sigma1", "1", "--sigma2", "1", "--c12", "nan"], "c12"),
        (["lg-check", "--l", "1", "--sigma", "inf"], "sigma"),
        # Finite widths whose squares overflow or underflow.
        (["lg-check", "--l", "1", "--sigma", "1e200"], "sigma"),
        (["lg-check", "--l", "1", "--sigma", "1e-200"], "sigma"),
        (["appendix-a", "--sigma1", "1e200", "--sigma2", "1", "--c12", "0"], "sigma1"),
        (["appendix-a", "--sigma1", "1", "--sigma2", "1e-200", "--c12", "0"], "sigma2"),
    ])
    def test_non_finite_parameter_exits_1_naming_it(self, tmp_path, capsys, argv, name):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ")
        assert "finite" in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_vortex_extent_with_infinite_square_exits_1(self, tmp_path, capsys):
        # sigma**2 is finite, but the grid half-width 8 sigma sqrt(2) squares
        # to inf: rejected before any grid, with no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lg-check", "--l", "1", "--sigma", "1e154",
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sigma = 1e+154 is too wide for l = 1")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_grid_with_subnormal_cell_volume_exits_1(self, tmp_path, capsys):
        # sigma = 1e-155 passes the width rule, but 256 points over the
        # derived half-width leave dq^2 = 7.8e-313 (subnormal) and dp^2 = inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lg-check", "--l", "1", "--sigma", "1e-155",
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: position cell volume 7.81e-313 is not a finite float >= 2.2e-308\n"
        assert os.listdir(tmp_path) == []
        assert main(["lg-check", "--l", "1", "--sigma", "1e-150", "--out", str(tmp_path)]) == 0

    def test_appendix_a_command(self, tmp_path):
        assert main(["appendix-a", "--sigma1", "1.0", "--sigma2", "1.0",
                     "--c12", "0.2", "--out", str(tmp_path)]) == 0
        files = [f for f in os.listdir(tmp_path) if f.startswith("appendix_a")]
        obj = json.loads((tmp_path / files[0]).read_text())
        assert obj["residual"] <= 1e-6
