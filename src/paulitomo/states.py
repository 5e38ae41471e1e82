"""Target pure states and a minimal state-vector simulator.

Bit convention, fixed across the whole package: a basis index i of a
length-2^n amplitude vector is read as an n-bit string with qubit 0 as the
most significant bit.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import as_count, substream

NORM_ATOL = 1e-10

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV


@dataclass
class PureState:
    """Pure n-qubit state as a unit-norm complex amplitude vector; n is
    stored as the int that seeding.as_count checks."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.n = as_count(self.n, "n")
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.size != 2**self.n:
            raise ValueError(f"expected {2**self.n} amplitudes, got {amps.size}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValueError(f"amplitudes are not unit norm: |psi| = {norm}")
        self.amplitudes = amps


@dataclass(frozen=True)
class RandomCircuitSpec:
    """Parameters of the random-circuit state constructor; n >= 1, depth >= 0
    and seed >= 0 are stored as the ints seeding.as_count checks."""

    n: int
    depth: int
    seed: int

    def __post_init__(self):
        for name, low in (("n", 1), ("depth", 0), ("seed", 0)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, low))


def _ghz(n: int, sign: float, name: str) -> PureState:
    if as_count(n, "n") <= 2:
        raise ValueError(f"{name} is defined for n > 2, got n={n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = _SQRT2_INV
    amps[-1] = sign * _SQRT2_INV
    return PureState(n, amps)


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2); defined for n > 2."""
    return _ghz(n, 1.0, "ghz")


def ghz_minus(n: int) -> PureState:
    """(|0...0> - |1...1>)/sqrt(2); defined for n > 2."""
    return _ghz(n, -1.0, "ghz_minus")


def hadamard_all(n: int) -> PureState:
    """((|0> + |1>)/sqrt(2))^{tensor n}: the uniform superposition."""
    n = as_count(n, "n")
    amps = np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex)
    return PureState(n, amps)


def euler_rotation(theta: float, phi: float, lam: float) -> np.ndarray:
    """Standard 3-Euler-angle single-qubit unitary U(theta, phi, lambda)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


def _check_wire(qubit: int, n: int):
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} is outside the {n}-qubit register")


def apply_single_qubit(amps: np.ndarray, gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a length-2^n amplitude vector, or of
    each row of an (S, 2^n) batch.

    A strided butterfly: the amplitudes are viewed as (..., 2^q, 2, 2^(n-q-1))
    for q = qubit, and with a0, a1 the two halves along the middle axis,
    out[..., 0, :] = g00 a0 + g01 a1 and out[..., 1, :] = g10 a0 + g11 a1.
    Every output entry is the same elementwise expression whatever the
    batch, so each row equals its own row-by-row call bit for bit.
    """
    _check_wire(qubit, n)
    psi = amps.reshape(amps.shape[:-1] + (2**qubit, 2, 2 ** (n - qubit - 1)))
    # Each half, (..., 2^q, 1, 2^(n-q-1)), broadcasts against a (2, 1) gate column.
    out = psi[..., :1, :] * gate[:, :1] + psi[..., 1:, :] * gate[:, 1:]
    return out.reshape(amps.shape)


def apply_cx(amps: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    """Apply a controlled-X gate; flips `target` where `control` is 1."""
    _check_wire(control, n)
    _check_wire(target, n)
    if control == target:
        raise ValueError(f"control and target must differ, both are qubit {control}")
    k = np.arange(2**n)
    return amps[k ^ (((k >> (n - 1 - control)) & 1) << (n - 1 - target))]


def random_state(spec: RandomCircuitSpec) -> PureState:
    """State prepared by `depth` uniformly chosen gates from |0...0>.

    Each step is either a 3-Euler-angle rotation on a uniformly chosen qubit
    (angles drawn uniformly from [0, 1], used directly as radians) or a
    controlled-X between a uniformly chosen pair of distinct qubits.  Draw
    order per step is fixed (gate kind, then wires, then angles), so a fixed
    seed reproduces the state bit for bit.
    """
    rng = substream(spec.seed, "state")
    n = spec.n
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    for _ in range(spec.depth):
        kind = 0 if n == 1 else int(rng.integers(2))
        if kind == 0:
            qubit = int(rng.integers(n))
            theta, phi, lam = rng.random(3)
            amps = apply_single_qubit(amps, euler_rotation(theta, phi, lam), qubit, n)
        else:
            control = int(rng.integers(n))
            t = int(rng.integers(n - 1))
            target = t + 1 if t >= control else t
            amps = apply_cx(amps, control, target, n)
    return PureState(n, amps)


def density_of(state: PureState) -> np.ndarray:
    """Rank-1 density matrix |psi><psi| of a pure state."""
    return np.outer(state.amplitudes, state.amplitudes.conj())
