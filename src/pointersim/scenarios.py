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

import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .dynamics import CouplingSpec, check_shared_quadrature, evolve
from .entanglement import TwoModeGaussianParams
from .errors import ConfigError, PointersimError
from .pointer import (
    Grid,
    auto_grid,
    check_gaussian_params,
    gaussian_pointer,
    kick_gap,
    lg_mode,
    lg_spreads,
    moments,
)
from .quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Observable,
    SystemState,
    weak_value,
)
from .shifts import ORIENTATION, RE_ORIENTATION, predict_general

SCHEMA_VERSION = 1
MAX_SYSTEM_DIM = 16
# The longest output name, "<id>_sweep.json", then fits the common 255-byte limit.
MAX_ID_BYTES = 244

_NAMED_OBSERVABLES = ("pauli_x", "pauli_y", "pauli_z", "proj0")
# Document pointer kind -> (closed-form per-axis marginal (std_q, std_p) of the
# parsed parameters, the pointer built from them on a grid).  A two_mode_gaussian
# document, parsed to the Gaussian of its position covariance, shares gaussian's
# entry.  Builders are called by name, so perfbench's tracer, which rebinds
# names, counts each build.
_POINTER_KINDS = {
    "gaussian": (lambda p: check_gaussian_params(p["sigma"], p.get("theta")),
                 lambda grid, p: gaussian_pointer(grid, **p)),
    "lg": (lambda p: lg_spreads(p["l"], p["sigma"]), lambda grid, p: lg_mode(grid, **p)),
}
_POINTER_KINDS["two_mode_gaussian"] = _POINTER_KINDS["gaussian"]


# ---------------------------------------------------------------------------
# Document validation

def _fail(msg: str, path: str):
    raise ConfigError(msg, path)


@contextmanager
def _at(path: str):
    """Report an input rule broken inside the block as a ConfigError at
    document ``path``.  Each rule lives once, in the domain constructor or
    builder that needs it; a ConfigError from the block keeps its own path."""
    try:
        yield
    except ConfigError:
        raise
    except (PointersimError, ValueError) as exc:
        raise ConfigError(str(exc), path) from None


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
    if not abs(value) <= sys.float_info.max:  # also NaN, and an integer too large for a float
        _fail(f"expected a finite number, got {value!r}", path)
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"expected an integer, got {value!r}", path)
    _as_number(value, path)  # an integer must also be a finite float
    return value


def _parse_array(obj, path: str, shape: tuple[int, ...], pairs: bool = False):
    """The array of ``shape`` at document ``path``: nested lists whose leaves
    are numbers, or ``[re, im]`` pairs when ``pairs`` is set."""
    if shape:
        if not isinstance(obj, list) or len(obj) != shape[0]:
            _fail(f"expected a list of {shape[0]} entries", path)
        return np.array([_parse_array(v, f"{path}[{k}]", shape[1:], pairs)
                         for k, v in enumerate(obj)])
    if not pairs:
        return _as_number(obj, path)
    if not isinstance(obj, list) or len(obj) != 2:
        _fail("expected an [re, im] pair", path)
    return complex(_as_number(obj[0], f"{path}[0]"), _as_number(obj[1], f"{path}[1]"))


@dataclass
class ScenarioConfig:
    """A parsed scenario: its states, observables, pointer parameters, grid
    (the document's, or ``auto_grid`` of the pointer's spreads) and readout
    are built and checked, an explicit post state against the readout too.
    The grid's coverage of the pointer (:func:`build_pointer`) waits for the
    run."""

    scenario_id: str
    pre: SystemState
    # None when the post state is an eigenvalue_index into the readout
    # spectrum, which resolve_system resolves; post_eigenvalue likewise.
    post: SystemState | None
    post_eigenvalue_index: int | None
    # The readout eigenvalue of post: 1.0 for post_projector, 0.0 for direct
    # projection, whose postselection shifts no pointer.
    post_eigenvalue: float | None
    pointer_kind: str
    # Keyword arguments of the kind's builder in _POINTER_KINDS after its grid:
    # gaussian_pointer's, also for a two_mode_gaussian document, or lg_mode's.
    pointer_params: dict
    grid: Grid
    couplings: tuple[CouplingSpec, ...]
    interaction: str
    # The unit-strength q coupling of the strong readout, the pipeline's last
    # step (post_projector's is the projector onto post); None for direct
    # projection.
    readout: CouplingSpec | None
    sweep: tuple[float, ...] | None


def _check_sweep(multipliers: list[float]) -> list[float]:
    """The one sweep rule, of a document's ``sweep`` and of :func:`run_sweep`."""
    if len(multipliers) < 3:
        _fail("a sweep needs at least 3 multipliers", "sweep")
    if not all(np.isfinite(multipliers)):
        _fail(f"multipliers must be finite, got {multipliers}", "sweep")
    return multipliers


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
    with _at(path):
        return Observable(_parse_array(doc, path, (dim, dim), pairs=True))


def parse_config(document: dict, source: str = "<document>") -> ScenarioConfig:
    """Validate a scenario document and build its states, observables, pointer
    parameters and grid; reject unknown keys; raise ConfigError with path."""
    _check_keys(document, source,
                required=("schema_version", "scenario_id", "system", "pointer",
                          "couplings", "readout"),
                optional=("interaction", "sweep"))
    if _as_int(document["schema_version"], "schema_version") != SCHEMA_VERSION:
        _fail(f"unsupported schema_version {document['schema_version']!r}", "schema_version")
    sid = document["scenario_id"]
    if not isinstance(sid, str) or not sid or not all(c.isalnum() or c in "_-" for c in sid):
        _fail("scenario_id must be a nonempty alphanumeric/_/- string", "scenario_id")
    if len(sid.encode()) > MAX_ID_BYTES:
        _fail(f"scenario_id must be at most {MAX_ID_BYTES} UTF-8 bytes", "scenario_id")

    system = document["system"]
    _check_keys(system, "system", required=("dimension", "pre_state", "post_state"))
    dim = _as_int(system["dimension"], "system.dimension")
    if not 2 <= dim <= MAX_SYSTEM_DIM:
        _fail(f"dimension must be in 2..{MAX_SYSTEM_DIM}", "system.dimension")
    with _at("system.pre_state"):
        pre = SystemState(_parse_array(system["pre_state"], "system.pre_state", (dim,), pairs=True))
    post_doc = system["post_state"]
    if not isinstance(post_doc, dict) or len(post_doc) != 1:
        _fail("post_state must contain exactly one of 'amplitudes'/'eigenvalue_index'",
              "system.post_state")
    post = None
    post_index = None
    if "amplitudes" in post_doc:
        with _at("system.post_state.amplitudes"):
            post = SystemState(_parse_array(post_doc["amplitudes"], "system.post_state.amplitudes",
                                            (dim,), pairs=True))
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
    if not isinstance(kind, str) or kind not in _POINTER_KINDS:
        _fail(f"unknown pointer kind {kind!r} (allowed: {list(_POINTER_KINDS)})", "pointer.kind")
    params: dict = {}
    if kind == "gaussian":
        _check_keys(pointer, "pointer", required=("kind", "sigma"),
                    optional=("grid", "mean_q", "mean_p", "theta"))
        sigma_doc = pointer["sigma"]
        if not isinstance(sigma_doc, list) or not sigma_doc:
            _fail("sigma must be a DxD matrix", "pointer.sigma")
        d = len(sigma_doc)
        if not 1 <= d <= 3:
            _fail("gaussian pointers support 1-3 axes", "pointer.sigma")
        params["sigma"] = _parse_array(sigma_doc, "pointer.sigma", (d, d))
        for key in ("mean_q", "mean_p"):
            if key in pointer:
                params[key] = _parse_array(pointer[key], f"pointer.{key}", (d,))
        with _at("pointer.sigma"):
            check_gaussian_params(params["sigma"])
        if "theta" in pointer:
            params["theta"] = _parse_array(pointer["theta"], "pointer.theta", (d, d))
            with _at("pointer.theta"):
                check_gaussian_params(params["sigma"], params["theta"])
    elif kind == "lg":
        _check_keys(pointer, "pointer", required=("kind", "l", "sigma"), optional=("grid",))
        params["l"] = _as_int(pointer["l"], "pointer.l")
        params["sigma"] = _as_number(pointer["sigma"], "pointer.sigma")
    else:
        _check_keys(pointer, "pointer", required=("kind", "alpha", "beta", "gamma"),
                    optional=("grid",))
        with _at("pointer"):
            params["sigma"] = TwoModeGaussianParams(*(
                _as_number(pointer[key], f"pointer.{key}") for key in ("alpha", "beta", "gamma")
            )).position_covariance()
            check_gaussian_params(params["sigma"])
    # Of the spreads, only lg_spreads rejects a parameter here: the vortex width.
    with _at("pointer.sigma"):
        std_q, std_p = _POINTER_KINDS[kind][0](params)
    pdims = len(std_q)

    if "grid" in pointer:
        gdoc = pointer["grid"]
        _check_keys(gdoc, "pointer.grid", required=("points_per_axis", "extent"))
        pts = gdoc["points_per_axis"]
        if not isinstance(pts, list) or len(pts) != pdims:
            _fail(f"points_per_axis must list {pdims} entries", "pointer.grid.points_per_axis")
        pts_t = tuple(_as_int(v, f"pointer.grid.points_per_axis[{k}]") for k, v in enumerate(pts))
        ext_t = tuple(_parse_array(gdoc["extent"], "pointer.grid.extent", (pdims,)).tolist())
    with _at("pointer.grid"):
        grid = (Grid(points_per_axis=pts_t, extent=ext_t) if "grid" in pointer
                else auto_grid(std_q, std_p, params.get("mean_q"), params.get("mean_p")))

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
        with _at(cpath):
            couplings.append(CouplingSpec(observable, axis - 1, cdoc["quadrature"],
                                          _as_number(cdoc["strength"], f"{cpath}.strength")))

    interaction = document.get("interaction", "sequential")
    if interaction not in ("sequential", "simultaneous"):
        _fail("interaction must be 'sequential' or 'simultaneous'", "interaction")
    if interaction == "simultaneous":
        with _at("couplings"):
            check_shared_quadrature(couplings)

    rdoc = document["readout"]
    if not isinstance(rdoc, dict):
        _fail("readout must be an object", "readout")
    readout, a_l = None, (None if post is None else 0.0)
    if rdoc.get("direct_projection") is True:
        _check_keys(rdoc, "readout", required=("direct_projection",))
        if post_index is not None:
            _fail("eigenvalue_index postselection needs a strong readout observable",
                  "system.post_state.eigenvalue_index")
    else:
        _check_keys(rdoc, "readout", required=("axis", "observable"))
        raxis = _as_int(rdoc["axis"], "readout.axis")
        if not 1 <= raxis <= pdims:
            _fail(f"axis must be in 1..{pdims}", "readout.axis")
        r_obs = _parse_observable(rdoc["observable"], dim, "readout.observable",
                                  allow_post_projector=True)
        if r_obs is None:
            if post is None:
                _fail("post_projector readout needs explicit post_state amplitudes",
                      "readout.observable")
            r_obs, a_l = Observable(np.outer(post.amplitudes, post.amplitudes.conj())), 1.0
        elif post is not None:
            a_post = r_obs.matrix @ post.amplitudes
            a_l = float(np.vdot(post.amplitudes, a_post).real)
            drift = np.linalg.norm((a_post - a_l * post.amplitudes) / (r_obs.spectral_radius or 1))
            if drift > 1e-10:
                _fail("post_state is not an eigenvector of the readout observable (residual "
                      f"{drift:.2e} of its spectral radius); use direct_projection for "
                      "arbitrary postselection", "system.post_state.amplitudes")
        readout = CouplingSpec(r_obs, raxis - 1, "q", 1.0)

    sweep = None
    if "sweep" in document:
        sdoc = document["sweep"]
        if not isinstance(sdoc, list):
            _fail("sweep must be a list of multipliers", "sweep")
        sweep = tuple(_check_sweep([_as_number(v, f"sweep[{k}]") for k, v in enumerate(sdoc)]))

    return ScenarioConfig(
        scenario_id=sid,
        pre=pre,
        post=post,
        post_eigenvalue_index=post_index,
        post_eigenvalue=a_l,
        pointer_kind=kind,
        pointer_params=params,
        grid=grid,
        couplings=tuple(couplings),
        interaction=interaction,
        readout=readout,
        sweep=sweep,
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return parse_config(document, source=str(path))


# ---------------------------------------------------------------------------
# Builders

def build_pointer(cfg: ScenarioConfig):
    """The scenario's grid and initial pointer state.  The builder checks
    that the grid covers the state in position and momentum; a grid that
    does not is a ConfigError at ``pointer.grid``."""
    with _at("pointer.grid"):
        return cfg.grid, _POINTER_KINDS[cfg.pointer_kind][1](cfg.grid, cfg.pointer_params)


def resolve_system(cfg: ScenarioConfig):
    """``(pre, post, readout eigenvalue of post)``; an eigenvalue_index post
    state is the readout observable's eigenvector of that index."""
    if cfg.post_eigenvalue_index is None:
        return cfg.pre, cfg.post, cfg.post_eigenvalue
    vals, vecs = np.linalg.eigh(cfg.readout.observable.matrix)
    idx = cfg.post_eigenvalue_index
    return cfg.pre, SystemState(vecs[:, idx]), float(vals[idx])


def build_coupling_specs(cfg: ScenarioConfig, multiplier: float = 1.0) -> list[CouplingSpec]:
    return [replace(spec, strength=spec.strength * multiplier) for spec in cfg.couplings]


def first_order_terms(cfg: ScenarioConfig, specs: list[CouplingSpec], system) -> list[tuple]:
    """``(axis, quadrature, strength, weak_value)`` of each of ``specs`` in
    ``system`` (:func:`resolve_system`'s triple), then of the strong readout,
    whose weak value is its eigenvalue a_l, if there is one."""
    pre, post, a_l = system
    terms = [(s.axis, s.quadrature, s.strength, weak_value(s.observable, pre, post))
             for s in specs]
    r = cfg.readout
    return terms + ([] if r is None else [(r.axis, r.quadrature, r.strength, a_l)])


# ---------------------------------------------------------------------------
# Reports

@dataclass
class ShiftReport:
    """One run of ``cfg``: postselection probability, initial/final pointer
    means and predictions, from which shifts and residuals derive.  Its id,
    grid and readout flag are ``cfg``'s, and it holds no wall-clock time."""

    cfg: ScenarioConfig
    probability: float
    initial_mean_q: np.ndarray
    initial_mean_p: np.ndarray
    final_mean_q: np.ndarray
    final_mean_p: np.ndarray
    predicted_dq: np.ndarray
    predicted_dp: np.ndarray
    lambda1: float
    lambda2: float

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
    """Exact pipeline only: the scenario as :func:`evolve`'s steps (one per
    coupling, or one group when simultaneous, then the readout), then
    postselection.  Returns ``(final_pointer, probability)``."""
    pre, post, _a_l = resolve_system(cfg)
    specs = build_coupling_specs(cfg, strength_multiplier)
    steps = [specs] if cfg.interaction == "simultaneous" else [[s] for s in specs]
    if cfg.readout is not None:
        steps.append([cfg.readout])
    # The built pointer goes straight to evolve, which drops it once joined.
    return evolve(pre, build_pointer(cfg)[1], steps, post)


def check_kick_budget(cfg: ScenarioConfig, multiplier: float) -> None:
    """Raise ConfigError at ``couplings`` unless the kicks ``|strength| *
    spectral_radius`` of the couplings at ``multiplier`` times their strengths
    and of the strong readout, a unit q-coupling, pass :func:`~pointersim.pointer.kick_gap`.
    The builder has already held the unkicked pointer to the coverage rule."""
    readout = [] if cfg.readout is None else [(cfg.readout, 1.0)]
    kicks = [(s.axis, s.quadrature, abs(m * s.strength) * s.observable.spectral_radius)
             for s, m in [(s, multiplier) for s in cfg.couplings] + readout]
    params = cfg.pointer_params
    gap = kick_gap(cfg.grid, *_POINTER_KINDS[cfg.pointer_kind][0](params),
                   params.get("mean_q", 0.0), params.get("mean_p", 0.0), kicks)
    if gap:
        _fail(f"{gap[2]}, at strength multiplier {multiplier:g}", "couplings")


def _shift_reports(cfg: ScenarioConfig, multipliers: list[float]) -> list[ShiftReport]:
    """Predict, simulate and measure each strength multiplier in turn.  The
    pointer (then :func:`check_kick_budget` at the largest ``|multiplier|``,
    which bounds wraparound, and at the smallest nonzero one, which bounds
    resolution), its initial moments and the system are built once for all
    of them."""
    phi = build_pointer(cfg)[1]
    sizes = [abs(m) for m in multipliers]
    for size in (max(sizes), min((s for s in sizes if s), default=0.0)):
        check_kick_budget(cfg, size)
    base = moments(phi)
    del phi  # full-grid; only its moments are needed from here on
    system = resolve_system(cfg)
    reports = []
    for m in multipliers:
        specs = build_coupling_specs(cfg, m)
        prediction = predict_general(base, first_order_terms(cfg, specs, system))
        pointer_f, prob = simulate_pipeline(cfg, m)
        final = moments(pointer_f)
        del pointer_f  # full-grid; only its moments are needed from here on
        lambda1, lambda2 = ([s.strength for s in specs] + [0.0, 0.0])[:2]
        reports.append(ShiftReport(
            cfg=cfg, probability=prob,
            initial_mean_q=base.mean_q, initial_mean_p=base.mean_p,
            final_mean_q=final.mean_q, final_mean_p=final.mean_p,
            predicted_dq=prediction.delta_q, predicted_dp=prediction.delta_p,
            lambda1=lambda1, lambda2=lambda2,
        ))
    return reports


def run_scenario(cfg: ScenarioConfig, strength_multiplier: float = 1.0) -> ShiftReport:
    """Execute the full pipeline for one scenario and compare to predictions."""
    return _shift_reports(cfg, [strength_multiplier])[0]


def run_sweep(cfg: ScenarioConfig, multipliers) -> tuple[list[ShiftReport], dict]:
    """Run the scenario at each strength multiplier and fit the log-log
    residual slope over the positive multipliers whose residual norm exceeds
    1e-13; the slope is None unless two distinct such multipliers remain."""
    mults = _check_sweep([float(m) for m in multipliers])
    reports = _shift_reports(cfg, mults)
    norms = [r.residual_norm() for r in reports]
    logs = [(np.log(m), np.log(n)) for m, n in zip(mults, norms) if m > 0 and n > 1e-13]
    xs, ys = [x for x, _ in logs], [y for _, y in logs]
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(set(xs)) >= 2 else None
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
            "scenario_id": report.cfg.scenario_id,
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


def csv_text(columns, rows) -> str:
    """The one CSV dialect of every output: a header of ``columns``, then one
    line per dict in ``rows``, each line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def reports_csv_text(reports: list[ShiftReport]) -> str:
    return csv_text(CSV_COLUMNS, (row for report in reports for row in report_csv_rows(report)))


def report_json_obj(report: ShiftReport) -> dict:
    axes = [{"axis": axis + 1} for axis in range(len(report.initial_mean_q))]
    for axis, quad, values in _axis_rows(report):
        axes[axis][quad] = values
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": report.cfg.scenario_id,
        "probability": float(report.probability),
        "convention": {"orientation": ORIENTATION, "re_orientation": RE_ORIENTATION},
        "grid": {
            "points_per_axis": list(report.cfg.grid.points_per_axis),
            "extent": list(report.cfg.grid.extent),
        },
        "lambda1": float(report.lambda1),
        "lambda2": float(report.lambda2),
        "includes_readout_offset": report.cfg.readout is not None,
        "axes": axes,
    }


def json_text(obj) -> str:
    """The one JSON output format: sorted keys, two-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def report_json_text(report: ShiftReport) -> str:
    return json_text(report_json_obj(report))


def sweep_json_text(reports: list[ShiftReport], summary: dict) -> str:
    return json_text({"summary": summary, "reports": [report_json_obj(r) for r in reports]})


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
