"""Randomized block Krylov eigensolver for Hermitian matrix-free operators.

Operators are callables W -> M W on (dim, b) complex blocks.  A seeded
random block of b = min(dim, k + 2) columns starts one orthonormal basis,
extended without restarts by the image of its newest block (Halko, Martinsson and
Tropp, arXiv:0909.4061; Musco and Musco, arXiv:1504.05477).  Rayleigh-Ritz
on the whole basis follows every extension.  The basis stops at dim
columns or an invariant subspace, where Rayleigh-Ritz is exact.
"""

import numpy as np


class PowerIterationError(RuntimeError):
    """The eigensolver missed its tolerance; carries the residual norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _complement(basis: np.ndarray, block: np.ndarray) -> np.ndarray:
    """At most dim - cols orthonormal columns spanning block outside span(basis).

    Each round projects the basis out twice and keeps the singular directions
    above rounding of the block's norm; the second round makes the weak
    directions the first keeps orthogonal to full precision."""
    dim, cols = basis.shape
    for _ in range(2):
        ref = np.linalg.norm(block)
        for _ in range(2):
            block = block - basis @ (basis.conj().T @ block)
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        block = u[:, s > dim * np.finfo(float).eps * ref][:, : dim - cols]
    return block


def _ritz(matvec, dim: int, k: int, tol: float, seed: int, pick):
    """Ritz pairs pick(theta), theta ascending, once each has ||M v - theta v||
    <= max(tol |theta|, floor ||M||) with ||M|| = max |theta| and floor =
    min(tol, max(tol 1e-6, dim eps)); raises PowerIterationError if the
    basis can grow no further first."""
    floor = min(tol, max(tol * 1e-6, dim * np.finfo(float).eps))
    rng = np.random.default_rng([seed, 0xB10C])
    shape = (dim, min(dim, k + 2))
    basis = image = np.zeros((dim, 0), dtype=complex)
    new = _complement(basis, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    while True:
        basis = np.hstack([basis, new])
        image = np.hstack([image, matvec(new)])
        h = basis.conj().T @ image
        theta, s = np.linalg.eigh((h + h.conj().T) / 2)
        wanted = pick(theta)
        values, vectors = theta[wanted], basis @ s[:, wanted]
        residual = np.linalg.norm(image @ s[:, wanted] - vectors * values, axis=0)
        missed = residual > np.maximum(tol * np.abs(values), floor * np.abs(theta).max())
        if not missed.any():
            return values, vectors
        new = _complement(basis, image[:, -new.shape[1] :])
        if not new.shape[1]:
            j = int(np.argmax(missed))
            raise PowerIterationError(f"eigenpair {j} did not converge", float(residual[j]))


def operator_norm(matvec, dim: int, tol: float = 1e-10, seed: int = 0) -> float:
    """Spectral norm (largest |eigenvalue|) of a Hermitian operator."""
    values, _ = _ritz(matvec, dim, 1, tol, seed, lambda theta: [np.abs(theta).argmax()])
    return float(abs(values[0]))


def top_eigen(matvec, dim: int, k: int, tol: float = 1e-8, seed: int = 0):
    """Top-k eigenpairs (descending eigenvalue) of a Hermitian operator.

    Returns (values, vectors) with vectors in columns.  Each pair satisfies
    ||M v - lambda v|| <= max(tol |lambda|, floor ||M||_2) with floor =
    min(tol, max(tol 1e-6, dim eps)).  The floor admits eigenvalues
    negligible against the operator scale; for tol >= dim eps it is at or
    above the rounding of a matvec, dim eps ||M||_2, so a pair at eigenvalue
    0 cannot miss on rounding alone.  A tol below dim eps is unreachable.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if dim < k:
        raise ValueError(f"operator dimension {dim} is smaller than k={k}")
    return _ritz(matvec, dim, k, tol, seed, lambda theta: np.argsort(-theta)[:k])
