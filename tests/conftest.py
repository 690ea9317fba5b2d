"""Shared helpers: an O(N^2) dense-DFT oracle independent of the FFT code path."""

import numpy as np
import pytest

from pointersim.pointer import Grid, PointerWavefunction


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(rng, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (m + m.conj().T)


def random_state_vector(rng, d: int) -> np.ndarray:
    return rng.normal(size=d) + 1j * rng.normal(size=d)


__all__ = [
    "dense_axis_transform",
    "oracle_mixed_moment",
    "random_hermitian",
    "random_state_vector",
]
