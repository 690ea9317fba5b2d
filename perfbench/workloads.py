"""The three benchmark workloads: one operation each, and its correctness checks.

An operation is what one closed-loop caller asks pointersim to do between
two timestamps.  Inputs are prepared before the timer starts and checked
after it stops, so neither is part of an operation's time.

* ``run_3d``: parse_config, run_scenario, JSON and CSV serialization of one
  generated 3-axis (64^3) document; templates taken round robin.
* ``sweep_2d``: parse_config, run_sweep at five fixed multipliers, sweep JSON
  and CSV serialization of one generated 2-axis (256^2) document.
* ``validate``: ``pointersim.cli.main(["validate", "--out", dir])`` in process.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import pointersim
from pointersim import cli, scenarios

import generate

MULTIPLIERS = (2.0, 1.5, 1.0, 0.75, 0.5)
# Grid moments of a Gaussian template against its closed form.  The largest
# deviation on generated documents is about 2e-11; 1e-8 leaves room for a
# change of summation order without letting a wrong moment through.
MOMENT_TOL = 1e-8
# Bytes per complex amplitude.
AMPLITUDE_BYTES = 16


def _residual_tolerance(doc: dict, multiplier: float) -> float:
    """Criterion 9's rule: max(3 (m * lambda_tot)^2, 1e-9) per component."""
    lam_tot = sum(abs(c["strength"]) for c in doc["couplings"])
    return max(3.0 * (multiplier * lam_tot) ** 2, 1e-9)


def _closed_form(doc: dict):
    """Exact initial moments of a ``gaussian`` pointer: mean_q = mu,
    mean_p = p0, cov_qq = sigma, cov_qp = sigma @ theta."""
    pointer = doc["pointer"]
    sigma = np.array(pointer["sigma"], dtype=float)
    d = len(sigma)
    mu = np.array(pointer.get("mean_q", [0.0] * d), dtype=float)
    p0 = np.array(pointer.get("mean_p", [0.0] * d), dtype=float)
    theta = np.array(pointer.get("theta", [[0.0] * d] * d), dtype=float)
    return mu, p0, sigma, sigma @ theta


def _check_report(doc: dict, report, multiplier: float) -> list[str]:
    errors = []
    tol = _residual_tolerance(doc, multiplier)
    residual = max(float(np.max(np.abs(report.shift_q - report.predicted_dq))),
                   float(np.max(np.abs(report.shift_p - report.predicted_dp))))
    if not residual <= tol:
        errors.append(f"residual {residual:.3e} > {tol:.3e} at multiplier {multiplier}")
    if not 0.0 < report.probability <= 1.0:
        errors.append(f"postselection probability {report.probability!r} outside (0, 1]")
    if doc["pointer"]["kind"] == "gaussian":
        mu, p0, _sigma, _cov_qp = _closed_form(doc)
        dev = max(float(np.max(np.abs(report.initial_mean_q - mu))),
                  float(np.max(np.abs(report.initial_mean_p - p0))))
        if not dev <= MOMENT_TOL:
            errors.append(f"initial means off the closed form by {dev:.3e}")
    return errors


def _check_csv(text: str, rows: int) -> list[str]:
    lines = text.count("\n")
    return [] if lines == rows + 1 else [f"CSV has {lines} lines, expected {rows + 1}"]


def joint_state_bytes(doc: dict) -> int:
    """Bytes of the system (x) pointer amplitude array a run of ``doc`` holds."""
    cells = int(np.prod(doc["pointer"]["grid"]["points_per_axis"]))
    return cells * doc["system"]["dimension"] * AMPLITUDE_BYTES


class _Generated:
    """Common part of the two workloads driven by generated documents."""

    templates: tuple[str, ...]

    def __init__(self, seed: int):
        self.seed = seed
        self.round_size = len(self.templates)
        self._templates: dict[str, dict] = {}
        self._checked: dict[int, dict] = {}

    def _scenario_dir(self) -> Path:
        return Path(pointersim.__file__).parent / "scenarios"

    def setup(self) -> None:
        """Read the templates, generate the first round of documents, parse
        each with ``parse_config``, and run one untimed warm-up operation."""
        self._templates = generate.load_templates(self._scenario_dir(), self.templates)
        first = [self.prepare(k) for k in range(self.round_size)]
        for doc in first:
            scenarios.parse_config(doc)
        errors = self.check(first[0], self.run(first[0]))
        if errors:
            raise RuntimeError(f"warm-up operation failed: {errors}")

    def prepare(self, k: int) -> dict:
        name = self.templates[k % self.round_size]
        text = generate.document_text(self._templates[name], self.seed, k // self.round_size)
        doc = json.loads(text)
        if k < self.round_size:
            self._checked[k] = doc
        return doc

    def final_check(self) -> dict[int, list[str]]:
        """Closed-form covariance check on the first round's documents.

        One grid ``moments`` call per template; run after the timed window
        because it costs as much as a third of an operation.
        """
        failures = {}
        for k, doc in sorted(self._checked.items()):
            if doc["pointer"]["kind"] != "gaussian":
                continue
            _grid, phi = scenarios.build_pointer(scenarios.parse_config(doc))
            m = pointersim.moments(phi)
            mu, p0, sigma, cov_qp = _closed_form(doc)
            dev = max(float(np.max(np.abs(a - b))) for a, b in (
                (m.mean_q, mu), (m.mean_p, p0), (m.cov_qq, sigma), (m.cov_qp, cov_qp)))
            if not dev <= MOMENT_TOL:
                failures[k] = [f"{doc['scenario_id']}: initial moments off the "
                               f"closed form by {dev:.3e}"]
        return failures

    def close(self) -> None:
        pass

    def joint_state_bytes(self) -> list[int]:
        return sorted({joint_state_bytes(t) for t in self._templates.values()})


class Run3D(_Generated):
    templates = generate.RUN_3D_TEMPLATES

    def run(self, doc: dict):
        cfg = scenarios.parse_config(doc)
        report = scenarios.run_scenario(cfg)
        return report, scenarios.report_json_text(report), scenarios.reports_csv_text([report])

    def check(self, doc: dict, result) -> list[str]:
        report, json_text, csv_text = result
        errors = _check_report(doc, report, 1.0)
        if json.loads(json_text)["scenario_id"] != doc["scenario_id"]:
            errors.append("JSON report names another scenario")
        return errors + _check_csv(csv_text, 2 * len(report.initial_mean_q))


class Sweep2D(_Generated):
    templates = generate.SWEEP_2D_TEMPLATES

    def run(self, doc: dict):
        cfg = scenarios.parse_config(doc)
        reports, summary = scenarios.run_sweep(cfg, MULTIPLIERS)
        return (reports, summary, scenarios.sweep_json_text(reports, summary),
                scenarios.reports_csv_text(reports))

    def check(self, doc: dict, result) -> list[str]:
        reports, _summary, json_text, csv_text = result
        errors = []
        for multiplier, report in zip(MULTIPLIERS, reports, strict=True):
            errors += _check_report(doc, report, multiplier)
        if json.loads(json_text)["summary"]["multipliers"] != list(MULTIPLIERS):
            errors.append("sweep JSON lists other multipliers")
        rows = sum(2 * len(r.initial_mean_q) for r in reports)
        return errors + _check_csv(csv_text, rows)


class Validate:
    """The acceptance suite through the CLI; its inputs are fixed, so the
    seed does not apply."""

    round_size = 1
    _FILES = ("validate_summary.json", "validate_summary.csv")

    def __init__(self, work_dir: Path):
        self._work_dir = work_dir
        self._reference: dict[str, bytes] | None = None

    def setup(self) -> None:
        """Run one untimed warm-up operation; its summary files become the
        reference the timed operations must reproduce byte for byte."""
        self._reference = None
        out = self.prepare(0)
        errors = self.check(out, self.run(out))
        if errors:
            raise RuntimeError(f"warm-up validate failed: {errors}")

    def prepare(self, k: int) -> Path:
        self._work_dir.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="validate-", dir=self._work_dir))

    def run(self, out: Path):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(["validate", "--out", str(out)])
        return code, captured.getvalue()

    def check(self, out: Path, result) -> list[str]:
        code, printed = result
        try:
            errors = [] if code == 0 else [f"exit code {code}: {printed[-400:]}"]
            files = {}
            for name in self._FILES:
                path = out / name
                files[name] = path.read_bytes() if path.is_file() else b""
            summary = files[self._FILES[0]]
            if not summary or json.loads(summary)["all_passed"] is not True:
                errors.append("summary does not report all_passed")
            if self._reference is None:
                self._reference = files
            elif files != self._reference:
                errors.append("summary files differ from the first operation's")
            return errors
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def final_check(self) -> dict[int, list[str]]:
        return {}

    def close(self) -> None:
        shutil.rmtree(self._work_dir, ignore_errors=True)

    def joint_state_bytes(self) -> list[int]:
        names = scenarios.bundled_scenario_names()
        docs = generate.load_templates(Path(pointersim.__file__).parent / "scenarios", names)
        return sorted({joint_state_bytes(d) for d in docs.values()})


def make(name: str, seed: int, work_dir: Path):
    if name == "run_3d":
        return Run3D(seed)
    if name == "sweep_2d":
        return Sweep2D(seed)
    if name == "validate":
        return Validate(work_dir)
    raise ValueError(f"unknown workload {name!r}")
