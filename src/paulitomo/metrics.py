"""Reconstruction metrics on factors, computed from r x r Gram matrices.

All distances treat a d x r factor U as the matrix rho = U U^dagger it
represents, so nothing here allocates a d x d array.
"""

import numpy as np

from .states import PureState


def as_factor(u, d: int | None = None) -> np.ndarray:
    """u as a (d, r >= 1) factor: a 1-D array is one column; any other shape,
    or a row count other than d when d is given, is a ValueError."""
    u = np.asarray(u)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] < 1 or d not in (None, u.shape[0]):
        raise ValueError(f"factor must be ({'d' if d is None else d}, r >= 1), got shape {u.shape}")
    return u


def _state_vector(psi) -> np.ndarray:
    if isinstance(psi, PureState):
        return psi.amplitudes
    return np.asarray(psi).ravel()


def procrustes_distance(u, v) -> float:
    """min over unitary R of ||u - v R||_F.

    Equals sqrt(||u||_F^2 + ||v||_F^2 - 2 sum_j sigma_j(u^dagger v)), but is
    evaluated as the explicit difference at the minimizing rotation: the
    trace form loses half the working precision to cancellation near zero.
    """
    u, v = as_factor(u), as_factor(v)
    if u.shape != v.shape:
        raise ValueError(f"factor shapes differ: {u.shape} vs {v.shape}")
    w, _, vh = np.linalg.svd(v.conj().T @ u)  # R = w vh maximizes Re Tr(R^dagger v^dagger u)
    return float(np.linalg.norm(u - v @ (w @ vh)))


def frobenius_error(u, v) -> float:
    """||u u^dagger - v v^dagger||_F from Gram matrices only.

    Row dimensions must match; the number of columns may differ.
    """
    u = as_factor(u)
    v = as_factor(v, u.shape[0])
    gu = np.linalg.norm(u.conj().T @ u) ** 2
    gv = np.linalg.norm(v.conj().T @ v) ** 2
    cross = np.linalg.norm(u.conj().T @ v) ** 2
    return float(np.sqrt(max(gu + gv - 2.0 * cross, 0.0)))


def fidelity_rank1(u, psi) -> float:
    """Fidelity of rho = u u^dagger / Tr(u u^dagger) to a pure target:
    ||u^dagger psi||^2 / ||u||_F^2, and 0.0 for a zero factor."""
    vec = _state_vector(psi)
    u = as_factor(u, vec.size)
    trace = np.linalg.norm(u) ** 2
    return float(np.linalg.norm(u.conj().T @ vec) ** 2 / trace) if trace else 0.0


def fidelity_density(rho: np.ndarray, psi) -> float:
    """Tr(|psi><psi| rho) = <psi| rho |psi> for a dense density matrix."""
    vec = _state_vector(psi)
    rho = np.asarray(rho)
    if rho.shape != (vec.size, vec.size):
        raise ValueError(f"density matrix shape {rho.shape} does not match state")
    return float(np.vdot(vec, rho @ vec).real)
