"""Pauli monomial sampling, basis-measurement simulation, and conversion of
outcome counts to monomial expectation values.

Encoding: a monomial is a length-n tuple of labels over {0, 1, 2, 3} for
(identity, x, y, z); equivalently a string over {I, X, Y, Z} with qubit 0
first.  A measurement setting is a string over {x, y, z}, one axis per
qubit.  Outcomes are integers j in [0, 2^n) with qubit 0 as the most
significant bit, the package-wide convention, and bit value b at a qubit
means eigenvalue (-1)^b of that qubit's measured Pauli axis.  A record's
counts are a length-2^n integer array, counts[j] being the number of
shots with outcome j; bit strings appear only in the records file
(serialize.py).

The action of a monomial on a state vector is a signed index permutation:
x and y flip the qubit's bit, y and z contribute a sign from the bit value,
and each y contributes one factor of i.  apply_monomial exploits this for
an O(2^n) matrix-free product.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import as_generator
from .states import PureState, apply_single_qubit, _HADAMARD

LABEL_CHARS = "IXYZ"
_AXIS_FOR_LABEL = ("z", "x", "y", "z")

# Inverse basis-change matrices: rows are the measurement-basis bras.
_TO_X_BASIS = _HADAMARD
_TO_Y_BASIS = _HADAMARD @ np.diag([1.0, -1.0j])  # Hadamard after S^dagger

VALUE_ATOL = 1e-12


@dataclass(frozen=True)
class PauliMonomial:
    """n-fold tensor product of single-qubit Paulis, as a label tuple."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(int(l) for l in self.labels)
        if not labels:
            raise ValueError("monomial must cover at least one qubit")
        if any(l not in (0, 1, 2, 3) for l in labels):
            raise ValueError(f"labels must be in {{0,1,2,3}}, got {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_string(cls, text: str) -> "PauliMonomial":
        try:
            return cls(tuple(LABEL_CHARS.index(ch) for ch in text.upper()))
        except ValueError:
            raise ValueError(f"monomial string must be over IXYZ, got {text!r}") from None

    def __str__(self) -> str:
        return "".join(LABEL_CHARS[l] for l in self.labels)


@dataclass(frozen=True)
class PauliSetting:
    """Measurement setting: one of x, y, z per qubit."""

    axes: str

    def __post_init__(self):
        if not self.axes or any(a not in "xyz" for a in self.axes):
            raise ValueError(f"axes must be a nonempty string over xyz, got {self.axes!r}")

    @property
    def n(self) -> int:
        return len(self.axes)


@dataclass
class MeasurementRecord:
    """Counts observed for one setting over a fixed number of shots.

    counts[j] is the number of shots with outcome j (qubit 0 = most
    significant bit), an integer array of length 2^n.
    """

    setting: PauliSetting
    shots: int
    counts: np.ndarray

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        counts = np.asarray(self.counts)
        d = 2**self.setting.n
        if counts.shape != (d,) or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(
                f"counts must be an integer array of shape ({d},), "
                f"got {counts.dtype} with shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        total = int(counts.sum())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")
        self.counts = counts


@dataclass
class ExpectationSample:
    """Estimated expectation value of one monomial."""

    monomial: PauliMonomial
    value: float

    def __post_init__(self):
        if abs(self.value) > 1.0 + VALUE_ATOL:
            raise ValueError(f"expectation value out of [-1, 1]: {self.value}")


def monomial_from_code(code: int, n: int) -> PauliMonomial:
    """Decode a base-4 integer (qubit 0 = most significant digit)."""
    labels = tuple((code >> (2 * (n - 1 - k))) & 3 for k in range(n))
    return PauliMonomial(labels)


def sample_monomials(n: int, m: int, seed) -> list:
    """Draw m distinct monomials uniformly without replacement.

    Deterministic per seed.  Uses a full permutation when m is a large
    fraction of 4^n and rejection sampling otherwise; the branch depends
    only on (n, m) so reproducibility is unaffected.
    """
    total = 4**n
    if not 1 <= m <= total:
        raise ValueError(f"need 1 <= m <= 4^n = {total}, got m={m}")
    rng = as_generator(seed)
    if m * 2 >= total:
        codes = rng.permutation(total)[:m]
    else:
        seen = {}
        while len(seen) < m:
            for code in rng.integers(total, size=2 * (m - len(seen))):
                if int(code) not in seen:
                    seen[int(code)] = None
                    if len(seen) == m:
                        break
        codes = np.fromiter(seen.keys(), dtype=np.int64)
    return [monomial_from_code(int(c), n) for c in codes]


def setting_of(p: PauliMonomial) -> PauliSetting:
    """Measurement setting of a monomial; identity positions default to z."""
    return PauliSetting("".join(_AXIS_FOR_LABEL[l] for l in p.labels))


def born_probabilities(state: PureState, setting: PauliSetting) -> np.ndarray:
    """Outcome distribution of a Pauli-basis measurement on a pure state.

    Rotates each qubit into the computational basis (x via Hadamard, y via
    Hadamard after phase conjugation) and squares the amplitudes.
    """
    if state.n != setting.n:
        raise ValueError(f"state has {state.n} qubits, setting has {setting.n}")
    amps = state.amplitudes
    for k, axis in enumerate(setting.axes):
        if axis == "x":
            amps = apply_single_qubit(amps, _TO_X_BASIS, k, state.n)
        elif axis == "y":
            amps = apply_single_qubit(amps, _TO_Y_BASIS, k, state.n)
    return np.abs(amps) ** 2


def sample_record(
    setting: PauliSetting, probs: np.ndarray, shots: int, seed
) -> MeasurementRecord:
    """Multinomial draw of `shots` outcomes from a distribution.

    Sampling is inverse-CDF on a seeded uniform stream (one categorical
    draw per shot), so counts are reproducible per seed across platforms.
    """
    probs = np.asarray(probs, dtype=float)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if probs.ndim != 1 or probs.size != 2**setting.n:
        raise ValueError(f"expected {2**setting.n} probabilities, got shape {probs.shape}")
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-8:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    rng = as_generator(seed)
    cdf = np.cumsum(np.maximum(probs, 0.0))
    cdf[-1] = max(cdf[-1], 1.0)  # guard against roundoff losing the last bin
    outcomes = np.searchsorted(cdf, rng.random(shots), side="right")
    counts = np.bincount(outcomes, minlength=probs.size)
    return MeasurementRecord(setting=setting, shots=shots, counts=counts)


def _check_setting_match(record_setting: PauliSetting, p: PauliMonomial):
    for axis, label in zip(record_setting.axes, p.labels):
        if label != 0 and _AXIS_FOR_LABEL[label] != axis:
            raise ValueError(
                f"record setting {record_setting.axes!r} does not measure monomial {p}"
            )


def expectation_from_distribution(
    setting: PauliSetting, probs: np.ndarray, p: PauliMonomial
) -> float:
    """Parity-weighted sum turning an outcome distribution into <P>.

    Outcome bits at identity positions of the monomial are masked out; the
    remaining bits' parity gives the sign of each outcome's contribution.
    """
    if setting.n != p.n:
        raise ValueError(f"setting covers {setting.n} qubits, monomial {p.n}")
    _check_setting_match(setting, p)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2**setting.n,):
        raise ValueError(f"expected {2**setting.n} outcome weights, got shape {probs.shape}")
    flip, sign_mask, _ = monomial_action(p)
    signs = 1.0 - 2.0 * _bit_parity(np.arange(probs.size) & (flip | sign_mask))
    return float(np.dot(signs, probs))


def expectation_from_record(record: MeasurementRecord, p: PauliMonomial) -> ExpectationSample:
    """Estimate <P> from one record's counts.

    The signed count sum is an integer, held exactly in float64; the single
    final division keeps e.g. the all-identity monomial at exactly 1.0.
    """
    value = expectation_from_distribution(record.setting, record.counts, p) / record.shots
    return ExpectationSample(monomial=p, value=value)


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of each integer's bit count (vectorized)."""
    out = np.zeros(values.shape, dtype=np.int64)
    v = values.copy()
    while np.any(v):
        out ^= v & 1
        v >>= 1
    return out


def monomial_action(p: PauliMonomial):
    """Signed-permutation data (flip mask, sign mask, #y factors) of P."""
    n = p.n
    flip = 0
    sign_mask = 0
    ny = 0
    for k, label in enumerate(p.labels):
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


def monomial_actions(monomials):
    """monomial_action of each monomial, as (flips, sign_masks, nys) int64 arrays."""
    labels = np.array([p.labels for p in monomials], dtype=np.int64)
    bits = 1 << np.arange(labels.shape[1] - 1, -1, -1, dtype=np.int64)
    flips = ((labels == 1) | (labels == 2)) @ bits
    sign_masks = ((labels == 2) | (labels == 3)) @ bits
    return flips, sign_masks, np.count_nonzero(labels == 2, axis=1)


def apply_monomial(p: PauliMonomial, v: np.ndarray) -> np.ndarray:
    """Matrix-free product P @ v for a vector or a stack of columns.

    O(2^n) per column: a signed index permutation plus one global i^{#y}
    phase.  Applying twice returns the input (every monomial squares to
    the identity).
    """
    v = np.asarray(v)
    d = 2**p.n
    if v.shape[0] != d:
        raise ValueError(f"vector has leading dimension {v.shape[0]}, expected {d}")
    flip, sign_mask, ny = monomial_action(p)
    src = np.arange(d) ^ flip
    signs = 1.0 - 2.0 * _bit_parity(src & sign_mask)
    phase = (1j**ny) * signs
    if v.ndim == 1:
        return phase * v[src]
    return phase[:, None] * v[src, :]


def exact_expectation(state: PureState, p: PauliMonomial) -> float:
    """<psi| P |psi>, matrix-free; real and in [-1, 1] for any pure state."""
    if state.n != p.n:
        raise ValueError(f"state has {state.n} qubits, monomial has {p.n}")
    value = np.vdot(state.amplitudes, apply_monomial(p, state.amplitudes))
    return float(min(1.0, max(-1.0, value.real)))
