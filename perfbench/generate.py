"""Seeded scenario documents for the benchmark workloads.

Each document starts from a bundled scenario (its *template*) and varies only
numbers that leave the cost of a run unchanged: coupling strengths, the
nonzero off-diagonal entries of ``sigma`` (diagonal kept, so grid coverage
stays at 6 sigma, and the matrix stays positive definite), the nonzero
entries of ``theta``, and the relative phases of the pre- and post-states.
Grid shape, system dimension, coupling structure and readout route are the
template's own, so an operation's cost depends on its template alone.

Phases change only where the template has a weak value with a nonzero
imaginary part.  A draw is kept only if the pre/post overlap keeps 0.85 of
the template's, every Im(w) keeps half of the template's, and no |w| grows
by more than 15% (``_KEEP_OVERLAP``, ``_KEEP_IMAG``, ``_MAX_GROWTH``).
``zero_coupling`` keeps its strength at 0.

Documents are pure functions of (template, seed, index): the same arguments
give byte-identical ``document_text``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
# Bound before any tracing wraps numpy.linalg, so document generation never
# shows up in the traced kernel counts.
from numpy.linalg import eigh as _eigh, eigvalsh as _eigvalsh

RUN_3D_TEMPLATES = ("jozsa_reduction_3d", "real_weak_value", "seq_corr_full", "seq_corr_q3")
SWEEP_2D_TEMPLATES = ("displaced_gaussian", "jozsa_baseline", "lg_probe",
                      "single_wm_correlated", "theta_qp_gaussian", "two_mode_entangle",
                      "zero_coupling")

_SCALE = (0.7, 1.3)      # multiplicative range for strengths, sigma and theta entries
_PHASE = 0.35            # max relative phase change, radians
_MAX_DRAWS = 64
# A phase draw is kept when the overlap <post|pre> keeps this share of the
# template's, every Im(w) keeps this share, and no |w| grows beyond this
# factor.  Second-order residuals grow as |w|^2, so these keep every run
# well inside the residual bound the checks apply.
_KEEP_OVERLAP = 0.85
_KEEP_IMAG = 0.5
_MAX_GROWTH = 1.15

_PAULI = {
    "pauli_x": [[0, 1], [1, 0]],
    "pauli_y": [[0, -1j], [1j, 0]],
    "pauli_z": [[1, 0], [0, -1]],
}


def load_templates(scenario_dir: Path, names) -> dict[str, dict]:
    """Read the bundled documents named in ``names``."""
    return {n: json.loads((scenario_dir / f"{n}.json").read_text(encoding="utf-8"))
            for n in names}


def _complex_vec(doc) -> np.ndarray:
    return np.array([complex(re, im) for re, im in doc])


def _vec_doc(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _observable(doc, dim: int) -> np.ndarray:
    if isinstance(doc, str):
        if doc == "proj0":
            mat = np.zeros((dim, dim), dtype=complex)
            mat[0, 0] = 1.0
            return mat
        return np.array(_PAULI[doc], dtype=complex)
    return np.array([[complex(re, im) for re, im in row] for row in doc])


def _post_state(doc: dict) -> np.ndarray:
    system = doc["system"]
    post = system["post_state"]
    if "amplitudes" in post:
        return _complex_vec(post["amplitudes"])
    obs = _observable(doc["readout"]["observable"], system["dimension"])
    return _eigh(obs)[1][:, post["eigenvalue_index"]]


def _weak_values(doc: dict) -> tuple[list[complex], float]:
    """Weak value of every coupling and the normalized pre/post overlap."""
    dim = doc["system"]["dimension"]
    pre = _complex_vec(doc["system"]["pre_state"])
    post = _post_state(doc)
    pre = pre / np.linalg.norm(pre)
    post = post / np.linalg.norm(post)
    ovl = complex(np.vdot(post, pre))
    values = [complex(np.vdot(post, _observable(c["observable"], dim) @ pre)) / ovl
              for c in doc["couplings"]]
    return values, abs(ovl)


def _scaled(rng: random.Random, value: float) -> float:
    return value * rng.uniform(*_SCALE)


def _positive_definite(mat: list[list[float]]) -> bool:
    return bool(np.all(_eigvalsh(np.array(mat)) > 0.05 * min(np.diag(mat))))


def _vary_symmetric(rng: random.Random, mat: list[list[float]], diagonal: bool,
                    require_pd: bool) -> list[list[float]]:
    for _ in range(_MAX_DRAWS):
        out = [list(row) for row in mat]
        for i in range(len(mat)):
            for j in range(i if diagonal else i + 1, len(mat)):
                if mat[i][j] != 0:
                    out[i][j] = out[j][i] = _scaled(rng, mat[i][j])
        if not require_pd or _positive_definite(out):
            return out
    raise RuntimeError("no positive definite variation found")


def _vary_phases(rng: random.Random, doc: dict, template: dict) -> None:
    values, overlap = _weak_values(template)
    if max((abs(w.imag) for w in values), default=0.0) < 1e-12:
        return
    system = doc["system"]
    post = system["post_state"]
    readout = doc["readout"]
    post_free = "amplitudes" in post and (readout.get("direct_projection") is True
                                         or readout.get("observable") == "post_projector")
    for _ in range(_MAX_DRAWS):
        trial = json.loads(json.dumps(doc))
        targets = [trial["system"]["pre_state"]]
        if post_free:
            targets.append(trial["system"]["post_state"]["amplitudes"])
        for vec_doc in targets:
            vec = _complex_vec(vec_doc)
            phases = np.exp(1j * np.array([0.0] + [rng.uniform(-_PHASE, _PHASE)
                                                   for _ in range(len(vec) - 1)]))
            vec_doc[:] = _vec_doc(vec * phases)
        new_values, new_overlap = _weak_values(trial)
        if new_overlap >= _KEEP_OVERLAP * overlap and all(
                abs(w.imag) >= _KEEP_IMAG * abs(t.imag) and abs(w) <= _MAX_GROWTH * abs(t)
                for w, t in zip(new_values, values)):
            system["pre_state"] = trial["system"]["pre_state"]
            system["post_state"] = trial["system"]["post_state"]
            return
    raise RuntimeError(f"no phase variation keeps Im(w) for {template['scenario_id']}")


def document(template: dict, seed: int, index: int) -> dict:
    """The ``index``-th generated variant of ``template`` for ``seed``."""
    rng = random.Random(f"{seed}:{template['scenario_id']}:{index}")
    doc = json.loads(json.dumps(template))
    for coupling in doc["couplings"]:
        if coupling["strength"] != 0:
            coupling["strength"] = _scaled(rng, coupling["strength"])
    pointer = doc["pointer"]
    if pointer["kind"] == "gaussian":
        pointer["sigma"] = _vary_symmetric(rng, pointer["sigma"], diagonal=False,
                                           require_pd=True)
        if "theta" in pointer:
            pointer["theta"] = _vary_symmetric(rng, pointer["theta"], diagonal=True,
                                               require_pd=False)
    _vary_phases(rng, doc, template)
    return doc


def document_text(template: dict, seed: int, index: int) -> str:
    """Canonical JSON text of :func:`document`."""
    return json.dumps(document(template, seed, index), sort_keys=True) + "\n"
