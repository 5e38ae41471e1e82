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

Measurement simulation is batched.  born_probabilities takes a block of
settings and rotates qubit by qubit over their prefix tree, so settings
that share their first k axes share the first k rotations; each row is
bit-identical to rotating its setting alone.  sample_record counts a
setting's shots by sorting its uniforms and looking up each cumulative
weight once, which gives exactly the counts of a per-shot inverse-CDF
lookup on the same uniforms.

The action of a monomial on a state vector is a signed index permutation:
x and y flip the qubit's bit, y and z contribute a sign from the bit value,
and each y contributes one factor of i.  apply_monomial exploits this for
an O(2^n) matrix-free product.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import as_generator
from .states import PureState, _HADAMARD

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


def born_probabilities(state: PureState, settings) -> np.ndarray:
    """Outcome distributions of Pauli-basis measurements on a pure state.

    `settings` is one PauliSetting, giving shape (d,), or a sequence of S
    settings, giving shape (S, d) with row i for settings[i]; one setting
    is the batch of one row.  Each qubit k is rotated into the
    computational basis (x via Hadamard, y via Hadamard after phase
    conjugation) and the amplitudes are squared.  Rotation runs qubit by
    qubit over a prefix tree: settings that agree on axes 0..k share one
    amplitude row after qubit k, so a row is rotated once per distinct
    prefix rather than once per setting.  Each rotation is the same
    per-qubit product as apply_single_qubit, so every row is bit-identical
    to rotating that setting alone.
    """
    single = isinstance(settings, PauliSetting)
    batch = [settings] if single else list(settings)
    n = state.n
    for setting in batch:
        if setting.n != n:
            raise ValueError(f"state has {n} qubits, setting has {setting.n}")
    # Axis codes x=0, y=1, z=2 from the setting strings' bytes.
    axes = np.frombuffer("".join(s.axes for s in batch).encode(), dtype=np.uint8)
    axes = axes.reshape(len(batch), n).astype(np.int64) - ord("x")
    rows = state.amplitudes.reshape((1,) + (2,) * n)
    codes = np.zeros(1, dtype=np.int64)
    prefix = np.zeros(len(batch), dtype=np.int64)
    for k in range(n):
        prefix = 3 * prefix + axes[:, k]
        child, leaf = np.unique(prefix, return_inverse=True)
        parent = np.searchsorted(codes, child // 3)
        axis = child % 3
        out = np.empty((child.size,) + rows.shape[1:], dtype=complex)
        for code, gate in ((0, _TO_X_BASIS), (1, _TO_Y_BASIS), (2, None)):
            sel = axis == code
            src = rows[parent[sel]]
            if gate is not None:  # apply_single_qubit's product, row by row
                src = np.moveaxis(np.moveaxis(src, k + 1, -1) @ gate.T, -1, k + 1)
            out[sel] = src
        rows, codes = out, child
    probs = np.abs(rows.reshape(codes.size, 2**n)[leaf]) ** 2
    return probs[0] if single else probs


def sample_record(
    setting: PauliSetting, probs: np.ndarray, shots: int, seed
) -> MeasurementRecord:
    """Multinomial draw of `shots` outcomes from a distribution.

    Sampling is inverse-CDF on a seeded uniform stream (one categorical
    draw per shot), so counts are reproducible per seed across platforms.
    A shot with uniform u has outcome j when cdf[j-1] <= u < cdf[j].  The
    counts are taken from the sorted uniforms with one lookup per outcome,
    counts[j] = #{u < cdf[j]} - #{u < cdf[j-1]}, which equals a per-shot
    lookup of every uniform followed by a bincount, at
    O(shots log shots + d log shots) rather than O(shots log d).
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
    below = np.searchsorted(np.sort(rng.random(shots)), cdf, side="left")
    counts = below.copy()
    counts[1:] -= below[:-1]
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
