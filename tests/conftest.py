"""Shared helpers: an O(N^2) dense-DFT oracle independent of the FFT code path,
whole-array references for the blockwise moments, momentum displacement and
system contractions, the parity split of a sweep's residual and its fitted
slope, a traced-peak
probe, a call counter, a finder of source sites and the session's one
acceptance-suite pass."""

import ast
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from pointersim.scenarios import run_sweep
from pointersim.validation import run_all
from pointersim.pointer import (
    Grid,
    MomentSet,
    PointerWavefunction,
    _axis_transform,
)


def dense_axis_transform(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Direct kernel-matrix transform exp(-i p q) dq / sqrt(2 pi) along one axis."""
    q = grid.positions(axis)
    p = grid.momenta(axis)
    kernel = np.exp(-1j * np.outer(p, q)) * grid.dq(axis) / np.sqrt(2.0 * np.pi)
    out = np.tensordot(kernel, values, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def oracle_mixed_moment(phi: PointerWavefunction, q_axis: int, p_axis: int) -> float:
    """<q_l p_m> - <q_l><p_m> (l != m) via the dense transform, brute force."""
    assert q_axis != p_axis
    grid = phi.grid
    mixed = dense_axis_transform(phi.amplitudes, grid, p_axis)
    reps = ["position"] * grid.dims
    reps[p_axis] = "momentum"
    rho = np.abs(mixed) ** 2 * grid.cell_volume(tuple(reps))
    qv = grid.axis_array(q_axis, grid.positions(q_axis))
    pv = grid.axis_array(p_axis, grid.momenta(p_axis))
    rho_q = np.abs(phi.amplitudes) ** 2 * grid.cell_volume(("position",) * grid.dims)
    mean_q = float(np.sum(rho_q * qv))
    mean_p = float(np.sum(rho * pv))
    return float(np.sum(rho * qv * pv)) - mean_q * mean_p


def reference_moments(phi: PointerWavefunction) -> MomentSet:
    """Whole-array moments: every density, product and sum is formed over the
    full grid, each second moment as one ``np.sum`` of cell products.  Its
    sums run in ``np.sum``'s pairwise order; the blockwise ``moments`` add
    their block sums in row order and take second moments from marginals, so
    they match it to rounding only."""
    grid, d = phi.grid, phi.grid.dims
    psi_q = phi.amplitudes
    dvol_q = grid.cell_volume(("position",) * d)
    qs = [grid.axis_array(j, grid.positions(j)) for j in range(d)]
    ps = [grid.axis_array(j, grid.momenta(j)) for j in range(d)]

    def mean_and_cov(rho, xs):
        mean, raw = np.zeros(d), np.zeros((d, d))
        for i in range(d):
            w = rho * xs[i]
            mean[i] = float(np.sum(w))
            for j in range(i, d):
                raw[i, j] = raw[j, i] = float(np.sum(w * xs[j]))
        return mean, raw - np.outer(mean, mean)

    psi_p = psi_q
    for axis in range(d):
        psi_p = _axis_transform(psi_p, grid, axis)
    mean_p, cov_pp = mean_and_cov(np.abs(psi_p) ** 2 * grid.cell_volume(("momentum",) * d), ps)
    mean_q, cov_qq = mean_and_cov(np.abs(psi_q) ** 2 * dvol_q, qs)
    cov_qp = np.zeros((d, d))
    for m in range(d):
        reps = ["position"] * d
        reps[m] = "momentum"
        rho = np.abs(_axis_transform(psi_q, grid, m)) ** 2 * grid.cell_volume(tuple(reps))
        for j in range(d):
            if j != m:
                cov_qp[j, m] = float(np.sum((rho * qs[j]) * ps[m])) - mean_q[j] * mean_p[m]
    for j in range(d):
        p_psi = _axis_transform(ps[j] * _axis_transform(psi_q, grid, j), grid, j, forward=False)
        raw = complex(np.sum(np.multiply(np.conjugate(psi_q) * qs[j], p_psi)) * dvol_q)
        cov_qp[j, j] = raw.real - mean_q[j] * mean_p[j]
    return MomentSet(mean_q=mean_q, mean_p=mean_p, cov_qq=cov_qq, cov_qp=cov_qp, cov_pp=cov_pp)


def whole_array_displace_momentum(phi: PointerWavefunction, shifts) -> np.ndarray:
    """The amplitudes of ``displace_momentum(phi, shifts)`` from whole-grid
    arrays: the real phase, then one complex array for ``1j * phase``, its
    exp and the product, factor first."""
    grid = phi.grid
    phase = np.zeros(grid.shape)
    for j, shift in enumerate(np.asarray(shifts, dtype=float)):
        if shift != 0:
            np.add(phase, shift * grid.axis_array(j, grid.positions(j)), out=phase)
    factor = np.multiply(1j, phase, out=np.empty(grid.shape, dtype=complex))
    np.exp(factor, out=factor)
    return np.multiply(factor, phi.amplitudes, out=factor)


def whole_array_contract(m: np.ndarray, src: np.ndarray) -> np.ndarray:
    """``out[j] = sum_i m[..., i, j] * src[i]`` over whole arrays by ufunc
    multiply-adds: every product formed, then added in order of i."""
    return np.array([reduce(np.add, (m[..., i, j] * src[i] for i in range(len(src))))
                     for j in range(m.shape[-1])])


PARITY_MULTIPLIERS = (1.0, 0.5, 0.25)


def parity_residuals(cfg) -> list[tuple[float, float]]:
    """Per multiplier m of :data:`PARITY_MULTIPLIERS`, ``(odd, even)``: the
    norms over every q and p component of the odd part ``(r(m) - r(-m))/2``
    and the even part ``(r(m) + r(-m))/2`` of the signed residual
    ``r = shift - predicted``, from one ``run_sweep`` at +m and -m."""
    mults = list(PARITY_MULTIPLIERS) + [-m for m in PARITY_MULTIPLIERS]
    reports, _summary = run_sweep(cfg, mults)
    r = [np.concatenate([rep.shift_q - rep.predicted_dq, rep.shift_p - rep.predicted_dp])
         for rep in reports]
    n = len(PARITY_MULTIPLIERS)
    return [(float(np.linalg.norm((r[i] - r[i + n]) / 2)),
             float(np.linalg.norm((r[i] + r[i + n]) / 2))) for i in range(n)]


def fitted_slope(norms) -> float:
    """Log-log slope of ``norms`` over :data:`PARITY_MULTIPLIERS`."""
    return float(np.polyfit(np.log(PARITY_MULTIPLIERS), np.log(norms), 1)[0])


def traced_peak(fn):
    """``(fn(), peak)``: the peak bytes ``tracemalloc`` traces while ``fn()``
    runs.  What was allocated before the call does not count."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_calls(monkeypatch, module, *names) -> dict:
    """Wrap each function ``module.<name>`` so that it counts its calls;
    returns ``{name: calls so far}``."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return counts


def source_sites(label) -> set[tuple[str, str, str]]:
    """``(module, enclosing function, label(node))`` of every AST node in the
    pointersim sources for which ``label`` returns a name."""
    sites = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def generic_visit(self, node):
            name = label(node)
            if name:
                sites.add((self.module, self.scope[-1], name))
            super().generic_visit(node)

    import pointersim
    for path in sorted(Path(pointersim.__file__).parent.glob("*.py")):
        Visitor(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return sites


@pytest.fixture(scope="session")
def suite_results():
    """One ``validation.run_all()`` per session: the acceptance tests check
    its criteria, and the byte contract hashes its summaries."""
    return run_all()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (m + m.conj().T)


def random_state_vector(rng, d: int) -> np.ndarray:
    return rng.normal(size=d) + 1j * rng.normal(size=d)


__all__ = [
    "count_calls",
    "dense_axis_transform",
    "fitted_slope",
    "oracle_mixed_moment",
    "random_hermitian",
    "random_state_vector",
    "reference_moments",
    "source_sites",
    "traced_peak",
    "whole_array_contract",
    "whole_array_displace_momentum",
]
