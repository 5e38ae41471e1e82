"""Full-tomography baseline and readout-error mitigation.

Linear inversion expands rho in the Pauli basis from a complete set of
4^n expectation values and projects the result onto the density-matrix
set (nearest in Frobenius norm: eigenvalues projected onto the
probability simplex).  Completion and inversion share one format: a float
array of the 4^n expectations indexed by base-4 monomial code, qubit 0 the
most significant digit; the inversion expands it one qubit at a time.
Mitigation inverts a measured calibration matrix by simplex-constrained
least squares.

The dense d x d paths are capped at n = 8; beyond that the arrays stop
fitting in desk-scale memory and the call is refused outright.
"""

from dataclasses import dataclass

import numpy as np

from .measurements import _codes, setting_labels
from .sensing import parity_means

DENSE_QUBIT_CAP = 8
VALUE_ATOL = 1e-12
# I, X, Y, Z: _PAULIS[label] is the 2x2 matrix of that monomial label.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class MitigationError(RuntimeError):
    """Projected gradient stalled; carries the final objective value."""

    def __init__(self, objective: float):
        super().__init__(f"mitigation did not converge (objective {objective:.3e})")
        self.objective = objective


@dataclass
class CalibrationMatrix:
    """Column j holds the measured distribution of prepared basis state j."""

    entries: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.entries, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"calibration matrix must be square, got shape {c.shape}")
        if not np.all(c >= 0):  # NaN fails too
            raise ValueError("calibration entries must be nonnegative numbers")
        sums = c.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-8):
            raise ValueError("each calibration column must sum to 1")
        self.entries = c


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sorting algorithm)."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a vector with non-finite entries")
    s = np.sort(v)[::-1]
    css = np.cumsum(s)
    j = np.arange(1, v.size + 1)
    feasible = s - (css - 1.0) / j > 0
    rho = int(np.nonzero(feasible)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1)
    return np.maximum(v - theta, 0.0)


def project_to_density(h: np.ndarray) -> np.ndarray:
    """Nearest density matrix in Frobenius norm to a Hermitian matrix."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.allclose(h, h.conj().T, atol=1e-10 * max(1.0, np.linalg.norm(h))):
        raise ValueError("input must be Hermitian")
    if h.shape[0] > 2**DENSE_QUBIT_CAP:
        raise ValueError(f"dense path capped at n <= {DENSE_QUBIT_CAP} qubits")
    eigvals, eigvecs = np.linalg.eigh(h)
    projected = simplex_project(eigvals)
    return (eigvecs * projected[None, :]) @ eigvecs.conj().T


def complete_expectations(records) -> np.ndarray:
    """All 4^n monomial expectations from full-tomography records.

    Expects one record per measurement setting, all 3^n of them, and
    returns the code-indexed array (see the module docstring).  A monomial
    is estimated from every compatible setting (identity positions may be
    measured along any axis), which cuts the variance of identity-heavy
    monomials by the number of contributing settings.

    With S shots per setting, a monomial P of weight |P| is averaged over
    3^(n-|P|) independent settings, so its estimate is unbiased with
    variance (1 - <P>^2) / (S * 3^(n-|P|)).  The identity entry is exactly 1.
    """
    records = list(records)
    if not records:
        raise ValueError("no records given")
    n = records[0].setting.n
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense path capped at n <= {DENSE_QUBIT_CAP} qubits")
    record_codes = _codes(setting_labels([r.setting for r in records], n))
    if len({r.setting.axes for r in records}) != 3**n or len(records) != 3**n:
        raise ValueError(f"need each of the 3^{n} settings exactly once")
    d = 2**n
    # Entry s of a record's parity means is the estimate of the monomial with
    # the setting's axis where s has a bit and identity elsewhere: the
    # setting's code with the digits outside s cleared.
    values = parity_means(np.stack([r.counts for r in records]), np.array([[r.shots] for r in records]))
    digit_masks = 3 * sum(((np.arange(d) >> j) & 1) << (2 * j) for j in range(n))
    codes = record_codes[:, None] & digit_masks
    sums = np.bincount(codes.ravel(), weights=values.ravel(), minlength=4**n)
    return sums / np.bincount(codes.ravel(), minlength=4**n)


def pauli_linear_inversion(values) -> np.ndarray:
    """rho_raw = (1/d) sum_c v_c P_c from all 4^n unnormalized expectations.

    `values` is the code-indexed array `complete_expectations` returns.
    P_c is a Kronecker product over qubits, so the sum is built by one
    contraction per qubit of its base-4 digit against the four 2x2 Paulis,
    O(n 4^n) work in all.

    Fed by `complete_expectations`, rho_raw is unbiased and, since
    ||P||_F^2 = d, its expected squared Frobenius error is
    E = (1/d) sum_{P != I} (1 - <P>^2) / (S * 3^(n-|P|)).  The estimate
    need not be positive semidefinite; `project_to_density` maps it onto
    the density matrices, a convex set, so the projection is nonexpansive:
    it moves rho_raw no further from any density matrix, the true state
    included.
    """
    values = np.asarray(values, dtype=float)
    n = (values.size.bit_length() - 1) // 2
    if values.ndim != 1 or values.size != 4**n or not 1 <= n <= DENSE_QUBIT_CAP:
        raise ValueError(f"need 4^n values, 1 <= n <= {DENSE_QUBIT_CAP}; got {values.shape}")
    if not np.all(np.abs(values) <= 1.0 + VALUE_ATOL):
        raise ValueError("expectation values must be finite and lie in [-1, 1]")
    # After k contractions the axes are (digits of qubits k.., row_0, col_0,
    # .., row_{k-1}, col_{k-1}); one transpose gathers rows before columns.
    rho = values.reshape((4,) * n)
    for _ in range(n):
        rho = np.tensordot(rho, _PAULIS, axes=(0, 0))
    d = 2**n
    return rho.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(d, d) / d


def readout_mitigate(calibration: CalibrationMatrix, v_meas: np.ndarray) -> np.ndarray:
    """Solve min ||C v - v_meas||^2 over the probability simplex.

    When C is invertible and the solution of C v = v_meas lies in the
    simplex, that solution is the constrained minimizer (objective 0) and is
    returned.  Otherwise: projected gradient with the constant step
    1/||C||_2^2, stopping at relative objective change <= 1e-10.  Exhausting
    the iteration cap without reaching that tolerance raises MitigationError.
    """
    c = calibration.entries
    v_meas = np.asarray(v_meas, dtype=float).ravel()
    if v_meas.size != c.shape[0]:
        raise ValueError(f"measured vector has size {v_meas.size}, expected {c.shape[0]}")
    try:
        v = np.linalg.solve(c, v_meas)
    except np.linalg.LinAlgError:  # singular C: the projected gradient decides
        pass
    else:
        if np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 1e-12:
            return v
    step = 1.0 / np.linalg.norm(c, 2) ** 2
    v = simplex_project(v_meas)
    objective = float(np.linalg.norm(c @ v - v_meas) ** 2)
    for _ in range(100_000):
        if objective == 0.0:
            return v
        grad = c.T @ (c @ v - v_meas)
        v = simplex_project(v - step * grad)
        new_objective = float(np.linalg.norm(c @ v - v_meas) ** 2)
        if abs(objective - new_objective) <= 1e-10 * max(objective, 1e-300):
            return v
        objective = new_objective
    raise MitigationError(objective)
