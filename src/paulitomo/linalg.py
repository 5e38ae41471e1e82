"""Block Lanczos eigensolver for Hermitian matrix-free operators.

Operators are callables W -> M W on (dim, b) complex blocks.  A seeded
random block of b = min(dim, k) columns, k the pairs wanted, starts the
symmetric block Lanczos recurrence (Lanczos 1950; Golub and Underwood
1977) with full reorthogonalization: each column of the newest block's
image M V_j has the whole basis projected out twice, and what is left
above rounding of the image, normalized, joins the next block V_{j+1}.
The projected matrix T = V* M V grows by one block per step: the Rayleigh
quotient V_j* M V_j on the diagonal and the coefficients R_j of V_{j+1} in
M V_j beside it, so T is block tridiagonal; for b = 1 it is the real
tridiagonal matrix of the alpha_j and beta_j, and each step applies M to
one column.  A Ritz pair (theta, T s = theta s) has residual ||R_j s_j||
in exact arithmetic, s_j being s on the newest block.  Once that estimate
meets the tolerance for every wanted pair, the true residual
||M v - theta v|| from the stored images decides.  The basis stops at dim
columns or an invariant subspace, where T is exact.  The seeded block is
drawn from substream(seed, "eigensolver").
"""

import numpy as np

from .seeding import as_count, substream


class PowerIterationError(RuntimeError):
    """The eigensolver missed its tolerance; carries the residual norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _lanczos(matvec, dim: int, k: int, tol: float, seed: int, pick):
    """Ritz pairs pick(theta), theta ascending, once each has ||M v - theta v||
    <= max(tol |theta|, floor ||M||) with ||M|| = max |theta| and floor =
    min(tol, max(tol 1e-6, dim eps)); raises PowerIterationError if the
    basis can grow no further first or the operator's image is not finite."""
    if not 0 < tol < np.inf:
        raise ValueError(f"need 0 < tol < inf, got {tol}")
    dim = as_count(dim, "dim")
    if dim < k:
        raise ValueError(f"operator dimension {dim} is smaller than k={k}")
    eps = np.finfo(float).eps
    floor = min(tol, max(tol * 1e-6, dim * eps))
    rng = substream(seed, "eigensolver")
    shape = (dim, k)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # Room for dim columns, contiguous each; only the columns in use are touched.
    basis = np.empty((dim, dim), dtype=complex, order="F")
    image = np.empty((dim, dim), dtype=complex, order="F")
    t = coupling = np.zeros((0, 0), dtype=complex)
    n = last = 0
    while True:
        # Project the basis out of each column of the block twice; the rest,
        # if above rounding of the block, joins the basis normalized.
        # coef[:, i] holds column i's coefficients on the first n columns.
        cols = n
        ref = dim * eps * abs(np.vdot(block, block)) ** 0.5
        if not ref < np.inf:
            raise PowerIterationError("operator image is not finite", float("nan"))
        coef = np.zeros((cols + block.shape[1], block.shape[1]), dtype=complex)
        for i in range(block.shape[1]):
            x = block[:, i]
            h = (x.conj() @ basis[:, :n]).conj()
            x = x - basis[:, :n] @ h
            g = (x.conj() @ basis[:, :n]).conj()
            x = x - basis[:, :n] @ g
            coef[:n, i] = h + g
            norm = abs(np.vdot(x, x)) ** 0.5
            if norm > ref and n < dim:
                coef[n, i] = norm
                basis[:, n] = x / norm
                n += 1
        new, beta = basis[:, cols:n], coef[cols:n, :last]
        if cols:
            # T gains the newest block, columns a:cols: its Rayleigh quotient
            # and, below it, the coupling R to the block before (eigh reads
            # the lower triangle).  T is real whenever its imaginary part is
            # zero, always for b = 1.
            a = cols - last
            grown = np.zeros((cols, cols), dtype=complex)
            grown[:a, :a] = t
            grown[a:, a - coupling.shape[1] : a] = coupling
            grown[a:, a:] = (coef[a:cols] + coef[a:cols].conj().T) / 2
            t = grown
            theta, s = np.linalg.eigh(t if t.imag.any() else t.real)
            # theta ascends, so ||M|| = max(-theta[0], theta[-1]); the estimate
            # is the column norm of R s on the newest block.
            wanted = pick(theta)
            bound = np.maximum(tol * np.abs(theta[wanted]), floor * max(-theta[0], theta[-1]))
            estimate = np.hypot.reduce(abs(beta @ s[a:, wanted]), axis=0, initial=0.0)
            if (estimate <= bound).all() or n == cols:
                values, vectors = theta[wanted], basis[:, :cols] @ s[:, wanted]
                residual = np.linalg.norm(image[:, :cols] @ s[:, wanted] - vectors * values, axis=0)
                missed = ~(residual <= bound)
                if not missed.any():
                    return values, vectors
                if n == cols:
                    j = int(np.argmax(missed))
                    raise PowerIterationError(f"eigenpair {j} did not converge", float(residual[j]))
        block, coupling, last = matvec(new), beta, n - cols
        image[:, cols:n] = block


def operator_norm(matvec, dim: int, tol: float = 1e-10, seed: int = 0) -> float:
    """Spectral norm (largest |eigenvalue|) of a Hermitian operator."""
    values, _ = _lanczos(matvec, dim, 1, tol, seed, lambda theta: [np.abs(theta).argmax()])
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
    k = as_count(k, "k")
    # theta ascends: the last k, in reverse.
    return _lanczos(matvec, dim, k, tol, seed, lambda theta: slice(-1, -k - 1, -1))
