"""Momentum-accelerated factored gradient descent for low-rank recovery.

The optimization variable is a d x r factor U with rho = U U^dagger, so
positivity and the rank bound hold by construction.  Iterates follow the
two-step recursion

    U_{i+1} = Z_i - eta * A^dagger(A(Z_i Z_i^dagger) - y) Z_i
    Z_{i+1} = U_{i+1} + mu * (U_{i+1} - U_i)

with Z_0 = U_0; mu = 0 recovers plain factored gradient descent.  The
step size, when not supplied, is fixed from two top-eigenvalue
computations at Z_0 and held constant.  Successive-iterate change is
measured in rho space through r x r Gram identities, never via a d x d
matrix.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import operator_norm, top_eigen
from .metrics import as_data, as_factor, fidelity_rank1, frobenius_error
from .seeding import as_count, substream
from .states import PureState

KAPPA = 1.223  # sensing condition number of the pure-state analysis


class DivergenceError(RuntimeError):
    """Iterates left the finite range; carries the failing iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


@dataclass
class OptimizerConfig:
    """Hyperparameters of the factored-gradient run.

    eta None means the two-eigenvalue step rule evaluated at Z_0.  mu is
    any spec that parse_mu reads.  rank, maxiters >= 1 and seed >= 0 are
    stored as the ints seeding.as_count checks, so a config serializes.
    """

    rank: int = 1
    eta: float | None = None
    mu: float | str = 0.0
    maxiters: int = 1000
    reltol: float = 5e-4
    seed: int = 0
    init: str = "spectral"
    L_hat: float = 1.1

    def __post_init__(self):
        for name, low in (("rank", 1), ("maxiters", 1), ("seed", 0)):
            setattr(self, name, as_count(getattr(self, name), name, low))
        if not 0 < self.reltol < np.inf:
            raise ValueError(f"reltol must be positive and finite, got {self.reltol}")
        if self.eta is not None and not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        parse_mu(self.mu)
        if self.init not in ("spectral", "random"):
            raise ValueError(f"init must be 'spectral' or 'random', got {self.init!r}")
        if not 1.0 < self.L_hat <= 1.1:
            raise ValueError(f"L_hat must lie in (1, 1.1], got {self.L_hat}")


@dataclass
class TraceRecord:
    iteration: int
    change: float
    error: float | None
    fidelity: float | None
    time_s: float
    grad_time_s: float | None = None


@dataclass
class ConvergenceTrace:
    """Per-iteration diagnostics, append-only; remembers eta, mu and the stop reason."""

    records: list = field(default_factory=list)
    eta: float | None = None
    mu: float | None = None
    stop_reason: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def final(self) -> TraceRecord:
        return self.records[-1]


def theoretical_mu(r: int, tau: float = 1.0, epsilon: float = 1.0) -> float:
    """Momentum value epsilon / (2000 r tau sqrt(KAPPA)).

    With pure-state constants (r=1, tau=1) this evaluates to roughly
    epsilon / 2212.
    """
    r = as_count(r, "rank")
    if not 1.0 <= tau < np.inf:
        raise ValueError(f"condition number tau must be finite and >= 1, got {tau}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return epsilon / (2000.0 * r * tau * np.sqrt(KAPPA))


def parse_mu(spec):
    """Read a momentum spec: a float in [0, 1), or "theory" / "theory:EPS"
    for theoretical_mu with epsilon EPS in (0, 1] ("theory" is "theory:1").

    Returns (value, epsilon): (the float, None) for a plain value and
    (spec, EPS) for a theory spec, so value is what a config stores.
    """
    head, sep, tail = str(spec).partition(":")
    if head == "theory":
        try:
            epsilon = float(tail) if sep else 1.0
        except ValueError:
            raise ValueError(f"mu 'theory:EPS' needs a number EPS, got {spec!r}") from None
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        return spec, epsilon
    try:
        mu = float(spec)
    except (TypeError, ValueError):
        raise ValueError(f"mu must be a float, 'theory' or 'theory:EPS', got {spec!r}") from None
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"mu must satisfy 0 <= mu < 1, got {spec}")
    return mu, None


def resolve_mu(config: OptimizerConfig, tau: float = 1.0) -> float:
    """Numeric momentum for a config (pure-state constants by default)."""
    mu, epsilon = parse_mu(config.mu)
    return mu if epsilon is None else theoretical_mu(config.rank, tau, epsilon)


def random_init(d: int, r: int, seed: int = 0, real: bool = False) -> np.ndarray:
    """i.i.d. Gaussian factor scaled to unit Frobenius norm."""
    rng = substream(seed, "init")
    u = rng.standard_normal((d, r))
    if not real:
        u = u + 1j * rng.standard_normal((d, r))
    return u / np.linalg.norm(u)


def spectral_init(sensing_map, y, r: int, L_hat: float = 1.1, seed: int = 0) -> np.ndarray:
    """Factor of the rank-r PSD part of A^dagger(y) / c, scaled by 1/L_hat.

    c is the map's gain (E[A^dagger A] = c I).  The block Lanczos solver,
    of block width r, runs on the map's fixed operator Z -> A^dagger(y) Z;
    column j is v_j * sqrt(max(lambda_j / c, 0) / L_hat).
    """
    y = as_data(y, sensing_map.m)
    values, vectors = top_eigen(sensing_map.adjoint_operator(y), sensing_map.d, r, tol=1e-9, seed=seed)
    cols = np.sqrt(np.maximum(values / sensing_map.gain, 0.0) / L_hat)
    return vectors * cols[None, :]


def compute_step_size(sensing_map, y, z0: np.ndarray, L_hat: float = 1.1) -> float:
    """Constant step 1 / (4 c (L_hat ||Z0 Z0*||_2 + ||A^dagger(A(Z0 Z0*) - y)||_2 / c)).

    c is the map's gain (E[A^dagger A] = c I; c = 1 is the RIP-normalized
    rule).  The first spectral norm comes from the r x r Gram eigenproblem,
    the second from the Lanczos solver (one column per step) on the map's
    fixed operator Z -> A^dagger(A(Z0 Z0*) - y) Z.
    """
    y = as_data(y, sensing_map.m)
    z0 = as_factor(z0, sensing_map.d)
    if not np.any(z0):
        raise ValueError("step-size rule needs a nonzero Z0")
    gram = z0.conj().T @ z0
    top_sq = float(np.linalg.eigvalsh(gram).max())
    residual = sensing_map.forward_factored(z0) - y
    grad_norm = operator_norm(sensing_map.adjoint_operator(residual), sensing_map.d, tol=1e-8)
    c = sensing_map.gain
    return 1.0 / (4.0 * c * (L_hat * top_sq + grad_norm / c))


def _gram_change(u_new: np.ndarray, u_old: np.ndarray) -> float:
    """Relative rho-space change between consecutive factors."""
    denom = max(float(np.linalg.norm(u_old.conj().T @ u_old)), 1e-15)
    return frobenius_error(u_new, u_old) / denom


def _target_metrics(u: np.ndarray, target):
    if target is None:
        return None, None
    target = as_factor(target.amplitudes if isinstance(target, PureState) else target)
    error = frobenius_error(u, target)
    fidelity = fidelity_rank1(u, target[:, 0]) if target.shape[1] == 1 else None
    return error, fidelity


def run(sensing_map, y, config: OptimizerConfig, target=None, gradient_fn=None):
    """Iterate the momentum recursion until reltol or maxiters.

    y is the data vector, checked once by metrics.as_data as a float array
    of shape (m,) for the map's m.  target (a PureState or a d x r factor)
    is consumed only for trace metrics.  gradient_fn, if given, replaces
    the map's residual_gradient and must return A^dagger(A(zz*) - y) z for
    the same map and data; no library caller passes one, but
    perfbench/tracing.py always passes the keyword.  The loop runs with
    numpy's overflow and invalid-operation errors raised, so a diverging run
    raises DivergenceError at the first overflow, warning nothing.

    Returns (factor, ConvergenceTrace).
    """
    y = as_data(y, sensing_map.m)
    d, r = sensing_map.d, config.rank
    if config.init == "spectral":
        u = spectral_init(sensing_map, y, r, config.L_hat, seed=config.seed)
    else:
        u = random_init(d, r, seed=config.seed, real=getattr(sensing_map, "real_factors", False))
    eta = config.eta if config.eta is not None else compute_step_size(sensing_map, y, u, config.L_hat)
    mu = resolve_mu(config)
    if gradient_fn is None:
        gradient_fn = lambda z: sensing_map.residual_gradient(y, z)

    trace = ConvergenceTrace(eta=eta, mu=mu, stop_reason="maxiters")
    z = u
    start = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(1, config.maxiters + 1):
                grad_start = time.perf_counter()
                grad = gradient_fn(z)
                grad_time = time.perf_counter() - grad_start
                u_next = z - eta * grad
                if not np.all(np.isfinite(u_next)):
                    raise DivergenceError(i)
                z = u_next + mu * (u_next - u)
                change = _gram_change(u_next, u)
                error, fidelity = _target_metrics(u_next, target)
                now = time.perf_counter() - start
                trace.records.append(TraceRecord(i, change, error, fidelity, now, grad_time))
                u = u_next
                if change <= config.reltol:
                    trace.stop_reason = "reltol"
                    break
    except FloatingPointError:
        raise DivergenceError(i) from None
    return u, trace
