"""Scenario config validation, orchestration, serialization, CLI."""

import json
import os

import numpy as np
import pytest

from pointersim import ConfigError
from pointersim.cli import main
from pointersim.scenarios import (
    bundled_scenario_names,
    load_bundled,
    load_config,
    parse_config,
    report_json_text,
    reports_csv_text,
    run_scenario,
    run_sweep,
)


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


class TestParsing:
    def test_bundled_corpus_loads(self):
        names = bundled_scenario_names()
        assert len(names) >= 10
        for name in names:
            cfg = load_bundled(name)
            assert cfg.scenario_id == name

    def test_round_trip(self):
        for name in bundled_scenario_names():
            cfg = load_bundled(name)
            doc = cfg.to_document()
            assert parse_config(doc).to_document() == doc

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

    def test_bad_schema_version(self):
        doc = minimal_document()
        doc["schema_version"] = 99
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

    def test_non_eigenvector_post_rejected_at_resolve(self):
        doc = minimal_document()
        doc["readout"] = {"axis": 2, "observable": "pauli_z"}
        doc["system"]["post_state"] = {"amplitudes": [[1, 0], [1, 0]]}
        cfg = parse_config(doc)
        with pytest.raises(ConfigError, match="eigenvector"):
            run_scenario(cfg)

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

    def test_coupling_mode_key_rejected(self):
        # Schema change: couplings take exactly observable, axis, quadrature
        # and strength; the first-order path is first_order_pointer, not a key.
        doc = minimal_document()
        doc["couplings"][0]["mode"] = "exact"
        with pytest.raises(ConfigError, match=r"unknown keys \['mode'\]"):
            parse_config(doc)


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

    def test_json_shape(self):
        report = run_scenario(load_bundled("jozsa_baseline"))
        obj = json.loads(report_json_text(report))
        assert obj["scenario_id"] == "jozsa_baseline"
        assert obj["convention"] == {"orientation": 1, "re_orientation": -1}
        assert len(obj["axes"]) == 2
        assert set(obj["axes"][0]["q"]) == {"initial", "final", "shift", "predicted", "residual"}


class TestRunSweep:
    def test_needs_three_multipliers(self):
        cfg = load_bundled("jozsa_baseline")
        with pytest.raises(ConfigError, match="at least 3"):
            run_sweep(cfg, (1.0, 0.5))

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

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        doc = minimal_document()
        doc["bogus"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2

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
        assert main(["lg-check", "--l", "1", "--points", "128",
                     "--out", str(tmp_path)]) == 0
        obj = json.loads((tmp_path / "lg_check_l1.json").read_text())
        assert obj["corr_x_py"] == pytest.approx(0.5, abs=1e-3)
        assert obj["corr_y_px"] == pytest.approx(-0.5, abs=1e-3)

    def test_entangle_command(self, tmp_path):
        assert main(["entangle", "--alpha", "0.25", "--beta", "0.25",
                     "--gamma", "0.125", "--out", str(tmp_path)]) == 0
        files = [f for f in os.listdir(tmp_path) if f.startswith("entangle")]
        obj = json.loads((tmp_path / files[0]).read_text())
        assert obj["entangled_direct"] and obj["entangled_from_shifts"]
        assert obj["det_direct"] == pytest.approx(-1.0 / 12.0, abs=1e-6)

    def test_appendix_a_command(self, tmp_path):
        assert main(["appendix-a", "--sigma1", "1.0", "--sigma2", "1.0",
                     "--c12", "0.2", "--out", str(tmp_path)]) == 0
        files = [f for f in os.listdir(tmp_path) if f.startswith("appendix_a")]
        obj = json.loads((tmp_path / files[0]).read_text())
        assert obj["residual"] <= 1e-6
