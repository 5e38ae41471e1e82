"""Generic low-rank matrix-sensing benchmark with a Gaussian ensemble.

The sensing operator applies m independent real linear functionals
X -> Tr(A_i X) with A_i real symmetric and i.i.d. Gaussian entries of
variance 1/m.  Functionals are stored compactly as rows over the
scaled upper-triangle coordinates of the symmetric matrix space
(diagonal plus sqrt(2) times the strict upper triangle), which makes
forward and adjoint two GEMV calls against an (m, d(d+1)/2) array
instead of m dense d x d matrices.

Ground truth is rho* = U* U*^T with Gaussian U*, rescaled to unit
Frobenius norm; the observations are y = A(rho*) + w with w rescaled to
an exact noise norm.  The ground truth is consumed only by metrics,
never by the optimizer.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import optimizer
from .metrics import as_data, as_factor
from .seeding import as_count, substream


@dataclass
class SyntheticProblem:
    """Dimensions and noise level of one benchmark instance (m = c d r);
    d, r, c >= 1 and seed >= 0 are stored as the ints seeding.as_count checks."""

    d: int = 256
    r: int = 5
    c: int = 5
    noise_norm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("d", 1), ("r", 1), ("c", 1), ("seed", 0)):
            setattr(self, name, as_count(getattr(self, name), name, low))
        if not 0 <= self.noise_norm < np.inf:
            raise ValueError(f"noise norm must be nonnegative and finite, got {self.noise_norm}")
        if self.m > self.d**2:
            raise ValueError(f"m = c*d*r = {self.m} exceeds d^2 = {self.d**2}")

    @property
    def m(self) -> int:
        return self.c * self.d * self.r


class GaussianSensingMap:
    """m real symmetric Gaussian functionals on Hermitian d x d matrices.

    The forward map is one GEMV against the rows.  A gradient over rows
    [lo, hi) makes its forward and adjoint GEMVs on that view, copying
    nothing; a fixed operator Z -> A^dagger(x) Z reads the rows once, into
    a dense d x d matrix."""

    real_factors = True  # random factor initialization may stay real
    gain = 1.0  # E[A^dagger A] = I: entries have variance 1/m

    def __init__(self, d: int, rows: np.ndarray):
        self.d = d
        hdim = d * (d + 1) // 2
        if rows.ndim != 2 or rows.shape[1] != hdim:
            raise ValueError(f"rows must have shape (m, {hdim}), got {rows.shape}")
        self.rows = rows
        self._iu = np.triu_indices(d, k=1)
        self._sqrt2 = np.sqrt(2.0)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    def _hvec(self, x: np.ndarray) -> np.ndarray:
        # Isometric coordinates of the real symmetric part.
        return np.concatenate([np.diagonal(x), self._sqrt2 * x[self._iu]])

    def _unhvec(self, h: np.ndarray) -> np.ndarray:
        x = np.zeros((self.d, self.d))
        np.fill_diagonal(x, h[: self.d])
        off = h[self.d :] / self._sqrt2
        x[self._iu] = off
        x[(self._iu[1], self._iu[0])] = off
        return x

    def forward_factored(self, u: np.ndarray) -> np.ndarray:
        u = as_factor(u, self.d)
        return self.rows @ self._hvec((u @ u.conj().T).real)  # the imaginary part is antisymmetric

    def adjoint_operator(self, x: np.ndarray):
        """The fixed operator Z -> A^dagger(x) Z, from one GEMV against the rows."""
        mat = self._unhvec(self.rows.T @ as_data(x, self.m))
        return lambda z: mat @ z

    def residual_gradient_range(self, y, z, lo: int, hi: int) -> np.ndarray:
        z = as_factor(z, self.d)
        rows = self.rows[lo:hi]
        residual = rows @ self._hvec((z @ z.conj().T).real) - as_data(y, self.m)[lo:hi]
        return self._unhvec(rows.T @ residual) @ z

    def residual_gradient(self, y, z) -> np.ndarray:
        return self.residual_gradient_range(y, z, 0, self.m)


def generate_synthetic(problem: SyntheticProblem):
    """Build (sensing map, observations y, ground-truth factor U*)."""
    d, r, m = problem.d, problem.r, problem.m
    hdim = d * (d + 1) // 2
    rng = substream(problem.seed, "sensing")
    rows = rng.standard_normal((m, hdim))
    rows[:, :d] *= np.sqrt(1.0 / m)
    rows[:, d:] *= np.sqrt(2.0 / m)  # sqrt(2) coordinate times N(0, 1/m) entry
    sensing_map = GaussianSensingMap(d, rows)

    u_star = substream(problem.seed, "state").standard_normal((d, r))
    u_star /= np.sqrt(np.linalg.norm(u_star.T @ u_star))  # ||rho*||_F = 1

    y = sensing_map.forward_factored(u_star)
    if problem.noise_norm > 0:
        w = substream(problem.seed, "noise").standard_normal(m)
        y = y + w * (problem.noise_norm / np.linalg.norm(w))
    return sensing_map, y, u_star


def theory_step_interval(sigma_r: float, delta: float = 0.1):
    """Step-size interval the convergence analysis permits, at RIP level delta."""
    hi = 10.0 / (4.0 * sigma_r * (1.0 - delta))
    contraction = (np.sqrt(1 + delta) - np.sqrt(1 - delta)) / ((np.sqrt(2) + 1) * np.sqrt(1 + delta))
    lo = (1.0 - contraction**4) * hi
    return lo, hi


def run_synthetic_comparison(
    problem: SyntheticProblem,
    mu_values=(0.0, 2.0 / 3.0, "theory"),
    tol: float = 1e-3,
    maxiters: int = 4000,
) -> dict:
    """Head-to-head momentum comparison on one synthetic instance.

    Each entry of mu_values is a momentum spec (optimizer.parse_mu); a
    theory spec takes tau from the known spectrum of rho*.  All runs share
    the problem, the random initialization seed, and the step-size rule;
    reported per run are iterations, final relative error, and wall time.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    sensing_map, y, u_star = generate_synthetic(problem)
    spectrum = np.linalg.eigvalsh(u_star.T @ u_star)
    sigma_1, sigma_r = float(spectrum[-1]), float(spectrum[0])
    tau = sigma_1 / sigma_r
    interval = theory_step_interval(sigma_r)

    runs = []
    for mu_spec in mu_values:
        config = optimizer.OptimizerConfig(
            rank=problem.r, mu=mu_spec, maxiters=maxiters, reltol=tol, seed=problem.seed, init="random"
        )
        config.mu = optimizer.resolve_mu(config, tau)
        start = time.perf_counter()
        _, trace = optimizer.run(sensing_map, y, config, target=u_star)
        elapsed = time.perf_counter() - start
        runs.append(
            {
                "mu": config.mu,
                "mu_spec": str(mu_spec),
                "iterations": trace.iterations,
                "converged": trace.stop_reason == "reltol",
                "final_relative_error": trace.final().error,
                "wall_time_s": elapsed,
                "eta": trace.eta,
                "eta_in_theory_interval": bool(interval[0] <= trace.eta <= interval[1]),
            }
        )
    return {
        "problem": {
            "d": problem.d,
            "r": problem.r,
            "c": problem.c,
            "m": problem.m,
            "noise_norm": problem.noise_norm,
            "seed": problem.seed,
        },
        "tau": tau,
        "sigma_r": sigma_r,
        "theory_step_interval": list(interval),
        "runs": runs,
    }
