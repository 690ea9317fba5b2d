"""Scenario ingestion, experiment orchestration and result serialization.

A scenario is a single JSON document (versioned via ``schema_version``)
declaring the system states, the pointer preparation, an ordered list of
weak couplings, and the postselection route (strong readout on one axis or
direct projection).  Everything is deterministic: identical inputs give
byte-identical CSV/JSON outputs.

Axis indices in documents and serialized outputs are 1-based (q1, q2, q3);
in-memory code is 0-based.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .dynamics import CouplingSpec, apply_couplings, make_joint, postselect, strong_readout
from .entanglement import TwoModeGaussianParams, two_mode_gaussian
from .errors import ConfigError, DimensionError, InvalidObservable
from .pointer import Grid, auto_grid, gaussian_pointer, lg_mode, moments
from .quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Observable,
    eigendecompose,
    expectation,
    make_state,
    weak_value,
)
from .shifts import FROZEN_CONVENTION, SignConvention, predict_general

SCHEMA_VERSION = 1
MAX_SYSTEM_DIM = 16

_NAMED_OBSERVABLES = ("pauli_x", "pauli_y", "pauli_z", "proj0")
_POINTER_KINDS = ("gaussian", "lg", "two_mode_gaussian")


# ---------------------------------------------------------------------------
# Document validation

def _fail(msg: str, path: str):
    raise ConfigError(msg, path)


def _check_keys(obj, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        _fail(f"expected an object, got {type(obj).__name__}", path)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        _fail(f"unknown keys {unknown}", path)
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(f"missing keys {missing}", path)


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"expected a number, got {value!r}", path)
    if not np.isfinite(value):
        _fail(f"expected a finite number, got {value!r}", path)
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"expected an integer, got {value!r}", path)
    return value


def _parse_complex_vector(obj, path: str, length: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != length:
        _fail(f"expected a list of {length} [re, im] pairs", path)
    out = np.empty(length, dtype=complex)
    for k, entry in enumerate(obj):
        if not isinstance(entry, list) or len(entry) != 2:
            _fail("expected an [re, im] pair", f"{path}[{k}]")
        out[k] = complex(_as_number(entry[0], f"{path}[{k}][0]"),
                         _as_number(entry[1], f"{path}[{k}][1]"))
    return out


def _parse_complex_matrix(obj, path: str, dim: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        _fail(f"expected a {dim}x{dim} matrix of [re, im] pairs", path)
    return np.stack([_parse_complex_vector(row, f"{path}[{i}]", dim) for i, row in enumerate(obj)])


def _parse_real_vector(obj, path: str, length: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != length:
        _fail(f"expected a list of {length} numbers", path)
    return np.array([_as_number(v, f"{path}[{k}]") for k, v in enumerate(obj)])


def _parse_real_matrix(obj, path: str, dim: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        _fail(f"expected a {dim}x{dim} matrix", path)
    return np.stack([_parse_real_vector(row, f"{path}[{i}]", dim) for i, row in enumerate(obj)])


@dataclass
class ScenarioConfig:
    scenario_id: str
    dimension: int
    pre_amplitudes: np.ndarray
    post_amplitudes: np.ndarray | None
    post_eigenvalue_index: int | None
    pointer_kind: str
    pointer_dims: int
    pointer_params: dict
    grid: Grid | None
    couplings: tuple[CouplingSpec, ...]
    interaction: str
    readout_direct: bool
    readout_axis0: int | None
    # None for direct projection, and for the post_projector readout, which
    # resolve_system builds from the normalized post state.
    readout_observable: Observable | None
    sweep: tuple[float, ...] | None
    document: dict

    def to_document(self) -> dict:
        """Reproduce an equivalent scenario document."""
        return copy.deepcopy(self.document)


def _parse_observable(doc, dim: int, path: str,
                      allow_post_projector: bool = False) -> Observable | None:
    """Observable named or given by ``doc``; None for an allowed ``post_projector``."""
    if isinstance(doc, str):
        allowed = _NAMED_OBSERVABLES + (("post_projector",) if allow_post_projector else ())
        if doc not in allowed:
            _fail(f"unknown observable name {doc!r} (allowed: {sorted(allowed)})", path)
        if doc.startswith("pauli_") and dim != 2:
            _fail(f"{doc} requires system dimension 2, got {dim}", path)
        if doc == "post_projector":
            return None
        if doc == "proj0":
            matrix = np.zeros((dim, dim), dtype=complex)
            matrix[0, 0] = 1.0
            return Observable(matrix)
        return Observable({"pauli_x": PAULI_X, "pauli_y": PAULI_Y, "pauli_z": PAULI_Z}[doc])
    try:
        return Observable(_parse_complex_matrix(doc, path, dim))
    except InvalidObservable as exc:
        raise ConfigError(str(exc), path) from None


def parse_config(document: dict, source: str = "<document>") -> ScenarioConfig:
    """Validate a scenario document; reject unknown keys; raise ConfigError with path."""
    _check_keys(document, source,
                required=("schema_version", "scenario_id", "system", "pointer",
                          "couplings", "readout"),
                optional=("interaction", "sweep"))
    if document["schema_version"] != SCHEMA_VERSION:
        _fail(f"unsupported schema_version {document['schema_version']!r}", "schema_version")
    sid = document["scenario_id"]
    if not isinstance(sid, str) or not sid or not all(c.isalnum() or c in "_-" for c in sid):
        _fail("scenario_id must be a nonempty alphanumeric/_/- string", "scenario_id")

    system = document["system"]
    _check_keys(system, "system", required=("dimension", "pre_state", "post_state"))
    dim = _as_int(system["dimension"], "system.dimension")
    if not 2 <= dim <= MAX_SYSTEM_DIM:
        _fail(f"dimension must be in 2..{MAX_SYSTEM_DIM}", "system.dimension")
    pre = _parse_complex_vector(system["pre_state"], "system.pre_state", dim)
    post_doc = system["post_state"]
    if not isinstance(post_doc, dict) or len(post_doc) != 1:
        _fail("post_state must contain exactly one of 'amplitudes'/'eigenvalue_index'",
              "system.post_state")
    post_amps = None
    post_index = None
    if "amplitudes" in post_doc:
        post_amps = _parse_complex_vector(post_doc["amplitudes"],
                                          "system.post_state.amplitudes", dim)
    elif "eigenvalue_index" in post_doc:
        post_index = _as_int(post_doc["eigenvalue_index"], "system.post_state.eigenvalue_index")
        if not 0 <= post_index < dim:
            _fail(f"eigenvalue_index must be in 0..{dim - 1}", "system.post_state.eigenvalue_index")
    else:
        _fail("post_state needs 'amplitudes' or 'eigenvalue_index'", "system.post_state")

    pointer = document["pointer"]
    if not isinstance(pointer, dict) or "kind" not in pointer:
        _fail("pointer needs a 'kind'", "pointer")
    kind = pointer["kind"]
    if kind not in _POINTER_KINDS:
        _fail(f"unknown pointer kind {kind!r} (allowed: {list(_POINTER_KINDS)})", "pointer.kind")
    params: dict = {}
    if kind == "gaussian":
        _check_keys(pointer, "pointer", required=("kind", "sigma"),
                    optional=("grid", "mean_q", "mean_p", "theta"))
        sigma_doc = pointer["sigma"]
        if not isinstance(sigma_doc, list) or not sigma_doc:
            _fail("sigma must be a DxD matrix", "pointer.sigma")
        pdims = len(sigma_doc)
        if not 1 <= pdims <= 3:
            _fail("gaussian pointers support 1-3 axes", "pointer.sigma")
        params["sigma"] = _parse_real_matrix(sigma_doc, "pointer.sigma", pdims)
        for key in ("mean_q", "mean_p"):
            if key in pointer:
                params[key] = _parse_real_vector(pointer[key], f"pointer.{key}", pdims)
        if "theta" in pointer:
            params["theta"] = _parse_real_matrix(pointer["theta"], "pointer.theta", pdims)
    elif kind == "lg":
        _check_keys(pointer, "pointer", required=("kind", "l", "sigma"), optional=("grid",))
        params["l"] = _as_int(pointer["l"], "pointer.l")
        params["sigma"] = _as_number(pointer["sigma"], "pointer.sigma")
        if params["sigma"] <= 0:
            _fail("sigma must be positive", "pointer.sigma")
        pdims = 2
    else:
        _check_keys(pointer, "pointer", required=("kind", "alpha", "beta", "gamma"),
                    optional=("grid",))
        for key in ("alpha", "beta", "gamma"):
            params[key] = _as_number(pointer[key], f"pointer.{key}")
        pdims = 2

    grid = None
    if "grid" in pointer:
        gdoc = pointer["grid"]
        _check_keys(gdoc, "pointer.grid", required=("points_per_axis", "extent"))
        pts = gdoc["points_per_axis"]
        ext = gdoc["extent"]
        if not isinstance(pts, list) or len(pts) != pdims:
            _fail(f"points_per_axis must list {pdims} entries", "pointer.grid.points_per_axis")
        if not isinstance(ext, list) or len(ext) != pdims:
            _fail(f"extent must list {pdims} entries", "pointer.grid.extent")
        pts_t = tuple(_as_int(v, f"pointer.grid.points_per_axis[{k}]") for k, v in enumerate(pts))
        ext_t = tuple(_as_number(v, f"pointer.grid.extent[{k}]") for k, v in enumerate(ext))
        try:
            grid = Grid(points_per_axis=pts_t, extent=ext_t)
        except DimensionError as exc:
            raise ConfigError(str(exc), "pointer.grid") from None

    couplings_doc = document["couplings"]
    if not isinstance(couplings_doc, list):
        _fail("couplings must be a list", "couplings")
    couplings = []
    for k, cdoc in enumerate(couplings_doc):
        cpath = f"couplings[{k}]"
        _check_keys(cdoc, cpath, required=("observable", "axis", "quadrature", "strength"))
        observable = _parse_observable(cdoc["observable"], dim, f"{cpath}.observable")
        axis = _as_int(cdoc["axis"], f"{cpath}.axis")
        if not 1 <= axis <= pdims:
            _fail(f"axis must be in 1..{pdims}", f"{cpath}.axis")
        strength = _as_number(cdoc["strength"], f"{cpath}.strength")
        try:
            couplings.append(CouplingSpec(observable, axis - 1, cdoc["quadrature"], strength))
        except ValueError as exc:
            raise ConfigError(str(exc), cpath) from None

    interaction = document.get("interaction", "sequential")
    if interaction not in ("sequential", "simultaneous"):
        _fail("interaction must be 'sequential' or 'simultaneous'", "interaction")
    if interaction == "simultaneous" and len({c.quadrature for c in couplings}) > 1:
        _fail("simultaneous couplings must share one quadrature", "couplings")

    readout = document["readout"]
    if not isinstance(readout, dict):
        _fail("readout must be an object", "readout")
    if readout.get("direct_projection") is True:
        _check_keys(readout, "readout", required=("direct_projection",))
        direct = True
        r_axis0 = None
        r_obs = None
        if post_index is not None:
            _fail("eigenvalue_index postselection needs a strong readout observable",
                  "system.post_state.eigenvalue_index")
    else:
        _check_keys(readout, "readout", required=("axis", "observable"))
        direct = False
        raxis = _as_int(readout["axis"], "readout.axis")
        if not 1 <= raxis <= pdims:
            _fail(f"axis must be in 1..{pdims}", "readout.axis")
        r_axis0 = raxis - 1
        r_obs_doc = readout["observable"]
        r_obs = _parse_observable(r_obs_doc, dim, "readout.observable", allow_post_projector=True)
        if r_obs_doc == "post_projector" and post_amps is None:
            _fail("post_projector readout needs explicit post_state amplitudes",
                  "readout.observable")
        if post_index is not None and r_obs_doc == "post_projector":
            _fail("eigenvalue_index cannot be combined with post_projector",
                  "system.post_state.eigenvalue_index")

    sweep = None
    if "sweep" in document:
        sdoc = document["sweep"]
        if not isinstance(sdoc, list) or not sdoc:
            _fail("sweep must be a nonempty list of multipliers", "sweep")
        sweep = tuple(_as_number(v, f"sweep[{k}]") for k, v in enumerate(sdoc))

    return ScenarioConfig(
        scenario_id=sid,
        dimension=dim,
        pre_amplitudes=pre,
        post_amplitudes=post_amps,
        post_eigenvalue_index=post_index,
        pointer_kind=kind,
        pointer_dims=pdims,
        pointer_params=params,
        grid=grid,
        couplings=tuple(couplings),
        interaction=interaction,
        readout_direct=direct,
        readout_axis0=r_axis0,
        readout_observable=r_obs,
        sweep=sweep,
        document=copy.deepcopy(document),
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return parse_config(document, source=str(path))


# ---------------------------------------------------------------------------
# Builders

def build_pointer(cfg: ScenarioConfig):
    """Construct the grid and initial pointer state for a scenario."""
    params = cfg.pointer_params
    if cfg.grid is not None:
        grid = cfg.grid
    elif cfg.pointer_kind == "gaussian":
        stds = np.sqrt(np.diag(params["sigma"]))
        grid = auto_grid(cfg.pointer_dims, stds, params.get("mean_q"))
    elif cfg.pointer_kind == "lg":
        std = params["sigma"] * np.sqrt(1.0 + abs(params["l"]))
        grid = auto_grid(2, [std, std])
    else:
        tm = TwoModeGaussianParams(params["alpha"], params["beta"], params["gamma"])
        grid = auto_grid(2, np.sqrt(np.diag(tm.position_covariance())))
    if cfg.pointer_kind == "gaussian":
        phi = gaussian_pointer(grid, params["sigma"], params.get("mean_q"),
                               params.get("mean_p"), params.get("theta"))
    elif cfg.pointer_kind == "lg":
        phi = lg_mode(grid, params["l"], params["sigma"])
    else:
        phi = two_mode_gaussian(grid, TwoModeGaussianParams(
            params["alpha"], params["beta"], params["gamma"]))
    return grid, phi


def resolve_system(cfg: ScenarioConfig):
    """Resolve (pre, post, readout observable, readout eigenvalue) for a scenario."""
    pre = make_state(cfg.pre_amplitudes)
    if cfg.readout_direct:
        return pre, make_state(cfg.post_amplitudes), None, 0.0
    obs = cfg.readout_observable
    if obs is None:
        post = make_state(cfg.post_amplitudes)
        obs = Observable(np.outer(post.amplitudes, post.amplitudes.conj()))
        return pre, post, obs, 1.0
    if cfg.post_eigenvalue_index is not None:
        spec = eigendecompose(obs)
        idx = cfg.post_eigenvalue_index
        return pre, make_state(spec.eigenvectors[:, idx]), obs, float(spec.eigenvalues[idx])
    post = make_state(cfg.post_amplitudes)
    a_l = expectation(obs, post)
    drift = np.linalg.norm(obs.matrix @ post.amplitudes - a_l * post.amplitudes)
    if drift > 1e-10:
        raise ConfigError(
            "post_state is not an eigenvector of the readout observable "
            f"(residual {drift:.2e}); use direct_projection for arbitrary postselection",
            "system.post_state.amplitudes",
        )
    return pre, post, obs, a_l


def build_coupling_specs(cfg: ScenarioConfig, multiplier: float = 1.0) -> list[CouplingSpec]:
    return [replace(spec, strength=spec.strength * multiplier) for spec in cfg.couplings]


# ---------------------------------------------------------------------------
# Reports

@dataclass
class ShiftReport:
    """Initial/final pointer means and predictions for one run; shifts and
    residuals derive from them.

    ``wall_time_seconds`` is diagnostic only and never serialized: the CSV and
    JSON outputs are bit-exact deterministic by contract.
    """

    scenario_id: str
    probability: float
    initial_mean_q: np.ndarray
    initial_mean_p: np.ndarray
    final_mean_q: np.ndarray
    final_mean_p: np.ndarray
    predicted_dq: np.ndarray
    predicted_dp: np.ndarray
    lambda1: float
    lambda2: float
    convention: SignConvention
    grid_points: tuple[int, ...]
    grid_extent: tuple[float, ...]
    includes_readout_offset: bool
    wall_time_seconds: float

    @property
    def shift_q(self) -> np.ndarray:
        return self.final_mean_q - self.initial_mean_q

    @property
    def shift_p(self) -> np.ndarray:
        return self.final_mean_p - self.initial_mean_p

    @property
    def residual_q(self) -> np.ndarray:
        return np.abs(self.shift_q - self.predicted_dq)

    @property
    def residual_p(self) -> np.ndarray:
        return np.abs(self.shift_p - self.predicted_dp)

    def residual_norm(self) -> float:
        return float(np.sqrt(np.sum(self.residual_q**2) + np.sum(self.residual_p**2)))


def simulate_pipeline(cfg: ScenarioConfig, strength_multiplier: float = 1.0):
    """Exact pipeline only: couple, (optionally) read out, postselect.

    Returns ``(final_pointer, probability)``.
    """
    _grid, phi = build_pointer(cfg)
    pre, post, readout_obs, _a_l = resolve_system(cfg)
    specs = build_coupling_specs(cfg, strength_multiplier)
    joint = make_joint(pre, phi)
    if cfg.interaction == "sequential":
        for spec in specs:
            joint = apply_couplings(joint, [spec])
    elif specs:
        joint = apply_couplings(joint, specs)
    if not cfg.readout_direct:
        joint = strong_readout(joint, readout_obs, cfg.readout_axis0)
    return postselect(joint, post)


def run_scenario(cfg: ScenarioConfig, strength_multiplier: float = 1.0) -> ShiftReport:
    """Execute the full pipeline for one scenario and compare to predictions."""
    t0 = time.perf_counter()
    grid, phi = build_pointer(cfg)
    pre, post, _readout_obs, a_l = resolve_system(cfg)
    specs = build_coupling_specs(cfg, strength_multiplier)
    terms = []
    for spec in specs:
        terms.append((spec.axis, spec.quadrature, spec.strength,
                      weak_value(spec.observable, pre, post)))
    base = moments(phi)
    prediction = predict_general(
        base, terms,
        readout_axis=cfg.readout_axis0,
        readout_eigenvalue=a_l if not cfg.readout_direct else 0.0,
        conv=FROZEN_CONVENTION,
    )
    pointer_f, prob = simulate_pipeline(cfg, strength_multiplier)
    final = moments(pointer_f)

    strengths = [spec.strength for spec in specs]
    return ShiftReport(
        scenario_id=cfg.scenario_id,
        probability=prob,
        initial_mean_q=base.mean_q,
        initial_mean_p=base.mean_p,
        final_mean_q=final.mean_q,
        final_mean_p=final.mean_p,
        predicted_dq=prediction.delta_q,
        predicted_dp=prediction.delta_p,
        lambda1=strengths[0] if len(strengths) > 0 else 0.0,
        lambda2=strengths[1] if len(strengths) > 1 else 0.0,
        convention=FROZEN_CONVENTION,
        grid_points=grid.points_per_axis,
        grid_extent=grid.extent,
        includes_readout_offset=prediction.includes_readout_offset,
        wall_time_seconds=time.perf_counter() - t0,
    )


def run_sweep(cfg: ScenarioConfig, multipliers) -> tuple[list[ShiftReport], dict]:
    """Run the scenario at each strength multiplier and fit the residual slope."""
    mults = [float(m) for m in multipliers]
    if len(mults) < 3:
        raise ConfigError("a sweep needs at least 3 multipliers", "sweep")
    reports = [run_scenario(cfg, m) for m in mults]
    norms = [r.residual_norm() for r in reports]
    xs, ys = [], []
    for m, n in zip(mults, norms):
        if m > 0 and n > 1e-13:
            xs.append(np.log(m))
            ys.append(np.log(n))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None
    summary = {
        "scenario_id": cfg.scenario_id,
        "multipliers": mults,
        "residual_norms": norms,
        "slope": slope,
    }
    return reports, summary


# ---------------------------------------------------------------------------
# Serialization (bit-exact deterministic)

CSV_COLUMNS = ("scenario_id", "axis", "quadrature", "initial_mean", "final_mean",
               "shift", "predicted", "residual", "lambda1", "lambda2", "prob")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


_AXIS_VALUES = ("initial", "final", "shift", "predicted", "residual")


def _axis_rows(report: ShiftReport):
    """Yield ``(axis, quadrature, values)`` per axis, q before p, where
    ``values`` maps each name in ``_AXIS_VALUES`` to a float."""
    columns = {
        "q": (report.initial_mean_q, report.final_mean_q, report.shift_q,
              report.predicted_dq, report.residual_q),
        "p": (report.initial_mean_p, report.final_mean_p, report.shift_p,
              report.predicted_dp, report.residual_p),
    }
    for axis in range(len(report.initial_mean_q)):
        for quad, arrays in columns.items():
            yield axis, quad, {name: float(arr[axis]) for name, arr in zip(_AXIS_VALUES, arrays)}


def report_csv_rows(report: ShiftReport) -> list[dict]:
    return [
        {
            "scenario_id": report.scenario_id,
            "axis": str(axis + 1),
            "quadrature": quad,
            "initial_mean": _g17(values["initial"]),
            "final_mean": _g17(values["final"]),
            "shift": _g17(values["shift"]),
            "predicted": _g17(values["predicted"]),
            "residual": _g17(values["residual"]),
            "lambda1": _g17(report.lambda1),
            "lambda2": _g17(report.lambda2),
            "prob": _g17(report.probability),
        }
        for axis, quad, values in _axis_rows(report)
    ]


def reports_csv_text(reports: list[ShiftReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerows(report_csv_rows(report))
    return buf.getvalue()


def report_json_obj(report: ShiftReport) -> dict:
    axes = [{"axis": axis + 1} for axis in range(len(report.initial_mean_q))]
    for axis, quad, values in _axis_rows(report):
        axes[axis][quad] = values
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": report.scenario_id,
        "probability": float(report.probability),
        "convention": {
            "orientation": report.convention.orientation,
            "re_orientation": report.convention.re_orientation,
        },
        "grid": {
            "points_per_axis": list(report.grid_points),
            "extent": [float(v) for v in report.grid_extent],
        },
        "lambda1": float(report.lambda1),
        "lambda2": float(report.lambda2),
        "includes_readout_offset": report.includes_readout_offset,
        "axes": axes,
    }


def report_json_text(report: ShiftReport) -> str:
    return json.dumps(report_json_obj(report), sort_keys=True, indent=2) + "\n"


def sweep_json_text(reports: list[ShiftReport], summary: dict) -> str:
    obj = {"summary": summary, "reports": [report_json_obj(r) for r in reports]}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Bundled corpus

def bundled_scenario_names() -> list[str]:
    root = resources.files("pointersim").joinpath("scenarios")
    return sorted(p.name[:-len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> ScenarioConfig:
    root = resources.files("pointersim").joinpath("scenarios")
    path = root.joinpath(f"{name}.json")
    if not path.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    document = json.loads(path.read_text(encoding="utf-8"))
    return parse_config(document, source=f"bundled:{name}")
