"""Full-tomography baseline and readout-error mitigation.

Linear inversion expands rho in the Pauli basis from a complete set of
4^n expectation values and projects the result onto the density-matrix
set (nearest in Frobenius norm: eigenvalues projected onto the
probability simplex).  Mitigation inverts a measured calibration matrix
by simplex-constrained least squares.

The dense d x d paths are capped at n = 8; beyond that the arrays stop
fitting in desk-scale memory and the call is refused outright.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .measurements import ExpectationSample, PauliMonomial
from .sensing import SensingMap, _fwht

DENSE_QUBIT_CAP = 8
_LABEL_FOR_AXIS = {"x": 1, "y": 2, "z": 3}


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
        if np.any(c < 0):
            raise ValueError("calibration entries must be nonnegative")
        sums = c.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-8):
            raise ValueError("each calibration column must sum to 1")
        self.entries = c

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sorting algorithm)."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
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


def complete_expectations(records) -> list:
    """All 4^n monomial expectations from full-tomography records.

    Expects one record per measurement setting, all 3^n of them.  A
    monomial is estimated from every compatible setting (identity
    positions may be measured along any axis), which cuts the variance of
    identity-heavy monomials by the number of contributing settings; this
    is what full-tomography fitters consume.

    With S shots per setting, a monomial P of weight |P| is averaged over
    3^(n-|P|) independent settings, so its estimate is unbiased with
    variance (1 - <P>^2) / (S * 3^(n-|P|)).  The identity is exact.
    """
    records = list(records)
    if not records:
        raise ValueError("no records given")
    n = records[0].setting.n
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense path capped at n <= {DENSE_QUBIT_CAP} qubits")
    if len({r.setting.axes for r in records}) != 3**n or len(records) != 3**n:
        raise ValueError(f"need each of the 3^{n} settings exactly once")
    d = 2**n
    # Entry s of a record's Walsh-Hadamard transform is the parity sum of the
    # monomial with the setting's axis where s has a bit and identity elsewhere.
    shots = np.array([r.shots for r in records])
    values = _fwht(np.stack([r.counts for r in records])) / shots[:, None]
    axis_labels = np.array([[_LABEL_FOR_AXIS[a] for a in r.setting.axes] for r in records])
    codes = np.zeros((len(records), d), dtype=np.int64)
    for k in range(n):
        bit = (np.arange(d) >> (n - 1 - k)) & 1
        codes |= (axis_labels[:, k, None] * bit) << (2 * (n - 1 - k))
    sums = np.bincount(codes.ravel(), weights=values.ravel(), minlength=4**n)
    means = sums / np.bincount(codes.ravel(), minlength=4**n)
    return [
        ExpectationSample(PauliMonomial(labels), float(means[code]))
        for code, labels in enumerate(itertools.product(range(4), repeat=n))
    ]


def pauli_linear_inversion(expectations) -> np.ndarray:
    """rho_raw = (1/d) sum_P <P> P from a complete, unnormalized sample set.

    Requires exactly one sample per monomial over all 4^n of them.  The
    sum is the unnormalized sensing map's adjoint at x = <P>/d: one
    Walsh-Hadamard transform per flip mask, O(d^2 log d) in all.

    Fed by `complete_expectations`, rho_raw is unbiased and, since
    ||P||_F^2 = d, its expected squared Frobenius error is
    E = (1/d) sum_{P != I} (1 - <P>^2) / (S * 3^(n-|P|)).  The estimate
    need not be positive semidefinite; `project_to_density` maps it onto
    the density matrices, a convex set, so the projection is nonexpansive:
    it moves rho_raw no further from any density matrix, the true state
    included.
    """
    samples = list(expectations)
    if not samples:
        raise ValueError("no expectation samples given")
    n = samples[0].monomial.n
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense path capped at n <= {DENSE_QUBIT_CAP} qubits")
    seen = {s.monomial.labels for s in samples}
    if len(seen) != len(samples) or len(samples) != 4**n:
        raise ValueError(f"need each of the 4^{n} monomials exactly once")
    d = 2**n
    sensing_map = SensingMap(n, [s.monomial for s in samples], normalized=False)
    x = sensing_map._flip_ordered(np.array([s.value for s in samples]) / d)
    # One flip group per off-diagonal pattern: each table row fills one
    # generalized diagonal rho[j ^ f, j].
    src, table = sensing_map._adjoint_table(x, 0, len(samples))
    rho = np.zeros((d, d), dtype=complex)
    rho[src, np.arange(d)] = table
    return rho


def readout_mitigate(calibration: CalibrationMatrix, v_meas: np.ndarray) -> np.ndarray:
    """Solve min ||C v - v_meas||^2 over the probability simplex.

    Projected gradient with the constant step 1/||C||_2^2, stopping at
    relative objective change <= 1e-10.  Exhausting the iteration cap
    without reaching that tolerance raises MitigationError.
    """
    c = calibration.entries
    v_meas = np.asarray(v_meas, dtype=float).ravel()
    if v_meas.size != calibration.dim:
        raise ValueError(f"measured vector has size {v_meas.size}, expected {calibration.dim}")
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
