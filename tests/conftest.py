"""Shared independent oracles: dense Pauli matrices built by Kronecker
products, dense measurement projectors, dense sensing operators, the
shot-noise error of full-tomography linear inversion, and the
one-setting-at-a-time record simulation.  These never touch the package's
signed-permutation, prefix-sharing or multinomial fast paths, so they
can certify them.
"""

import itertools

import numpy as np
import pytest

from paulitomo.measurements import _TO_X_BASIS, _TO_Y_BASIS
from paulitomo.seeding import substream
from paulitomo.states import apply_single_qubit

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = {0: I2, 1: SX, 2: SY, 3: SZ}

# Measurement-basis vectors: AXIS_VECTORS[axis][outcome_bit]
AXIS_VECTORS = {
    "x": (np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)),
    "y": (np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)),
    "z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
}


def code_labels(code: int, n: int) -> tuple:
    """Base-4 digits of a monomial code, qubit 0 (the most significant) first."""
    return tuple((int(code) >> (2 * (n - 1 - k))) & 3 for k in range(n))


def monomial_action(labels):
    """Signed-permutation data (flip mask, sign mask, #y factors) of one
    monomial's label tuple, qubit by qubit."""
    n = len(labels)
    flip = 0
    sign_mask = 0
    ny = 0
    for k, label in enumerate(labels):
        bit = 1 << (n - 1 - k)
        if label == 1:
            flip |= bit
        elif label == 2:
            flip |= bit
            sign_mask |= bit
            ny += 1
        elif label == 3:
            sign_mask |= bit
    return flip, sign_mask, ny


def dense_monomial(labels) -> np.ndarray:
    """P as an explicit 2^n x 2^n matrix via Kronecker products."""
    mat = np.eye(1, dtype=complex)
    for label in labels:
        mat = np.kron(mat, SIGMA[label])
    return mat


def dense_basis_vector(axes: str, outcome: int) -> np.ndarray:
    """|v_l> for a setting and an outcome index (qubit 0 = MSB)."""
    n = len(axes)
    vec = np.eye(1, dtype=complex).ravel()
    for k, axis in enumerate(axes):
        bit = (outcome >> (n - 1 - k)) & 1
        vec = np.kron(vec, AXIS_VECTORS[axis][bit])
    return vec


def dense_born(amplitudes: np.ndarray, axes: str) -> np.ndarray:
    """Outcome probabilities |<v_j|psi>|^2 of a setting, from dense basis vectors."""
    return np.array([abs(np.vdot(dense_basis_vector(axes, j), amplitudes)) ** 2 for j in range(2 ** len(axes))])


def dense_forward(codes, n: int, rho: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """A(rho) over n-qubit monomial codes, computed entirely through dense matrices."""
    return np.array(
        [scale * np.trace(dense_monomial(code_labels(c, n)) @ rho).real for c in codes]
    )


def dense_adjoint(codes, n: int, x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """A^dagger(x) over n-qubit monomial codes as an explicit d x d matrix."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for xi, c in zip(x, codes):
        out += scale * xi * dense_monomial(code_labels(c, n))
    return out


def inversion_shot_noise(amplitudes: np.ndarray, shots: int) -> float:
    """E = mean of ||rho_raw - rho||_F^2 for linear inversion from all 3^n settings.

    A monomial P of weight |P| is averaged over its 3^(n-|P|) compatible
    settings, each an independent mean of `shots` +-1 outcomes, so its
    estimate has variance (1 - <P>^2) / (shots * 3^(n-|P|)).  The identity
    is exact, and ||P||_F^2 = d turns the (1/d)-weighted expansion into
    E = (1/d) sum_{P != I} (1 - <P>^2) / (shots * 3^(n-|P|)).
    """
    d = amplitudes.size
    n = d.bit_length() - 1
    total = 0.0
    for labels in itertools.product(range(4), repeat=n):
        weight = sum(1 for label in labels if label)
        if weight == 0:
            continue
        value = np.vdot(amplitudes, dense_monomial(labels) @ amplitudes).real
        total += (1.0 - value**2) / (shots * 3 ** (n - weight))
    return total / d


def reference_counts(probs: np.ndarray, shots: int, rng) -> np.ndarray:
    """Conditional binomials (Davis, Comput. Stat. Data Anal. 16, 1993),
    one rng.binomial call per bin: bin j takes Binomial(shots left,
    p_j / mass left) of the shots not yet placed, over the bins up to the
    last nonzero one, normalized there.  That bin takes what is left, and
    the chain stops once no shot is left."""
    weights = np.maximum(np.asarray(probs, dtype=float), 0.0)
    last = max(j for j, w in enumerate(weights) if w > 0)
    p = (weights[: last + 1] / weights[: last + 1].sum()).tolist()
    counts = np.zeros(len(weights), dtype=np.int64)
    left, mass = shots, 1.0
    for j in range(last):
        counts[j] = rng.binomial(left, min(1.0, p[j] / mass))
        left -= counts[j]
        if left == 0:
            return counts
        mass -= p[j]
    counts[last] = left
    return counts


def reference_records(state, settings, shots: int, seed: int) -> list:
    """Counts of each setting simulated alone: one apply_single_qubit
    rotation per x/y qubit, |amplitude|^2, then reference_counts on the one
    generator substream(seed, "shots"), taken by the settings in sorted
    axes order (equal settings in their given order)."""
    gates = {"x": _TO_X_BASIS, "y": _TO_Y_BASIS}
    rng = substream(seed, "shots")
    out = [None] * len(settings)
    for i in sorted(range(len(settings)), key=lambda i: settings[i].axes):
        amps = state.amplitudes
        for k, axis in enumerate(settings[i].axes):
            if axis in gates:
                amps = apply_single_qubit(amps, gates[axis], k, state.n)
        out[i] = reference_counts(np.abs(amps) ** 2, shots, rng)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_factor(rng, d, r, real=False):
    u = rng.standard_normal((d, r))
    if not real:
        u = u + 1j * rng.standard_normal((d, r))
    return u


def random_pure_state_vector(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)
