"""Pauli monomial sampling, basis-measurement simulation, and conversion of
outcome counts to monomial expectation values.

Encoding: inside the library a monomial is its base-4 code, an integer in
[0, 4^n) whose digit k (qubit 0 the most significant digit) is qubit k's
label over {0, 1, 2, 3} for (identity, x, y, z), and a set of monomials is
an int64 code array.  The label tuple PauliMonomial and the string over
{I, X, Y, Z} (qubit 0 first) exist only at the API and file edges.  A
measurement setting is a string over {x, y, z}, one axis per qubit: the
string of a monomial with no identity, in lower case.
Outcomes are integers j in [0, 2^n) with qubit 0 as the most significant
bit, the package-wide convention, and bit value b at a qubit means
eigenvalue (-1)^b of that qubit's measured Pauli axis.  A record's counts
are a length-2^n integer array, counts[j] being the number of shots with
outcome j; bit strings appear only in the records file (serialize.py).

Measurement simulation is batched.  born_probabilities takes a block of
settings and rotates qubit by qubit over their prefix tree, so settings
that share their first k axes share the first k rotations.  Each level is
one call of apply_single_qubit's strided butterfly on all its rows, whose
arithmetic is elementwise, so each row is bit-identical to rotating its
setting alone.  sample_record draws a setting's counts as one
multinomial, by conditional binomials at O(d) whatever the shot count,
from the seed or generator it is given, after as_shots checks the count.

One array codec converts between the forms of every Pauli string, m at
a time: _labels takes codes to an (m, n) label array and _codes takes it
back, _letters spells label rows as IXYZ strings through one byte table,
and _text_labels reads strings (either case, ASCII only) back to labels.
PauliMonomial's code, __str__ and from_string use it, and so do settings:
setting_codes reads identity as z, the one rule from a monomial to its
setting, code_settings spells those codes in lower case, and
setting_labels reads axes strings back.  Every PauliMonomial carries its
code, which monomial_codes reads.  One built from labels validates and
encodes them once; one built from checked codes (sample_monomials,
monomial_from_code, from_string) is made from the label rows without
__post_init__ and given its code.  Equality, hash and repr read the labels
only.

The action of a monomial on a state vector is a signed index permutation:
x and y flip the qubit's bit, y and z contribute a sign from the bit value,
and each y contributes one factor of i.  monomial_actions reads these masks
off the codes, and apply_monomial uses them for an O(2^n) matrix-free
product.
"""

from dataclasses import dataclass, field

import numpy as np

from .seeding import as_count
from .states import PureState, _HADAMARD, apply_single_qubit

# The codec's byte tables: the letter of each label, and the label of each
# byte (upper or lower case), 4 for a byte that is no IXYZ letter.
_LETTERS = np.frombuffer(b"IXYZ", dtype=np.uint8)
_LABEL_OF_BYTE = np.full(256, 4, dtype=np.int64)
_LABEL_OF_BYTE[_LETTERS] = _LABEL_OF_BYTE[_LETTERS + 32] = np.arange(4)

# Inverse basis-change matrices: rows are the measurement-basis bras.
_TO_X_BASIS = _HADAMARD
_TO_Y_BASIS = _HADAMARD @ np.diag([1.0, -1.0j])  # Hadamard after S^dagger


@dataclass(frozen=True, slots=True)
class PauliMonomial:
    """n-fold tensor product of single-qubit Paulis, as a label tuple, and
    its base-4 code."""

    labels: tuple
    code: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("monomial must cover at least one qubit")
        if not all(isinstance(l, (int, np.integer)) and not isinstance(l, bool) and 0 <= l <= 3
                   for l in labels):
            raise ValueError(f"labels must be in {{0,1,2,3}}, got {labels}")
        object.__setattr__(self, "labels", tuple(map(int, labels)))
        object.__setattr__(self, "code", int(_codes([self.labels])[0]))

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_string(cls, text: str) -> "PauliMonomial":
        labels = _text_labels([text], len(text))
        if labels is None or not text:
            raise ValueError(f"monomial string must be over IXYZ, got {text!r}")
        return _monomials(_codes(labels), len(text))[0]

    def __str__(self) -> str:
        return _letters([self.labels])[0]


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
        self.shots = as_shots(self.shots)
        counts = np.asarray(self.counts)
        d = 2**self.setting.n
        if counts.shape != (d,) or counts.dtype.kind not in "iu":
            raise ValueError(
                f"counts must be an integer array of shape ({d},), "
                f"got {counts.dtype} with shape {counts.shape}"
            )
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        total = int(counts.sum())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")
        self.counts = counts


def as_shots(shots) -> int:
    """The one check of a shot count: seeding.as_count's integer >= 1,
    below 2^63."""
    shots = as_count(shots, "shots")
    if shots >= 2**63:  # numpy's multinomial takes an int64 count
        raise ValueError(f"shots must be below 2^63, got {shots}")
    return shots


def _labels(codes, n: int) -> np.ndarray:
    """(m, n) labels of a code array: column k is qubit k's base-4 digit."""
    return (np.asarray(codes, dtype=np.int64)[:, None] >> (2 * np.arange(n - 1, -1, -1))) & 3


def _codes(labels) -> np.ndarray:
    """The int64 codes of an (m, n) label array."""
    labels = np.asarray(labels, dtype=np.int64)
    return labels @ 4 ** np.arange(labels.shape[1] - 1, -1, -1, dtype=np.int64)


def _letters(labels) -> list:
    """The IXYZ string of each row of an (m, n) label array, cut from one buffer."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[1]
    text = _LETTERS[labels].tobytes().decode()
    return [text[i : i + n] for i in range(0, len(text), n)]


def _text_labels(texts, n: int):
    """(m, n) labels of m strings over IXYZ, either case, read as one byte
    array; None unless every string is n such letters."""
    if any(len(t) != n for t in texts):
        return None
    text = "".join(texts).encode("ascii", "replace")  # one byte per letter, '?' if not ASCII
    labels = _LABEL_OF_BYTE[np.frombuffer(text, dtype=np.uint8)]
    return None if np.any(labels > 3) else labels.reshape(len(texts), n)


def _monomials(codes: np.ndarray, n: int) -> list:
    """PauliMonomials of checked codes, made from their label rows without
    __post_init__'s validation; each carries its code."""
    out = []
    for row, code in zip(_labels(codes, n).tolist(), codes.tolist()):
        p = object.__new__(PauliMonomial)
        object.__setattr__(p, "labels", tuple(row))
        object.__setattr__(p, "code", code)
        out.append(p)
    return out


def monomial_from_code(code: int, n: int) -> PauliMonomial:
    """Decode a base-4 integer in [0, 4^n) (qubit 0 = most significant digit)."""
    return _monomials(monomial_codes([code], n), n)[0]


def monomial_codes(monomials, n: int) -> np.ndarray:
    """The int64 codes of n-qubit monomials given as integer codes or as
    PauliMonomials, whose carried codes are read."""
    n = as_count(n, "n")
    if not isinstance(monomials, np.ndarray):
        monomials = list(monomials)
        if monomials and all(isinstance(p, PauliMonomial) and p.n == n for p in monomials):
            monomials = [p.code for p in monomials]
    codes = np.asarray(monomials)
    if codes.ndim != 1 or codes.size == 0 or not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"need one or more {n}-qubit PauliMonomials or integer codes")
    if codes.min() < 0 or codes.max() >= 4**n:
        raise ValueError(f"monomial codes must lie in [0, 4^{n})")
    return codes.astype(np.int64)


def sample_codes(n: int, m: int, seed) -> np.ndarray:
    """Draw m distinct monomial codes uniformly without replacement.

    Deterministic per seed, a Generator or an integer >= 0 (as_count).
    Uses a full permutation when m is a large fraction of 4^n and rejection
    sampling otherwise; the branch depends only on (n, m).  Rejection draws
    2(m - k) codes while k are taken, and keeps each new value's first
    occurrence in draw order up to m.
    """
    n, m = as_count(n, "n"), as_count(m, "m")
    total = 4**n
    if m > total:
        raise ValueError(f"need m <= 4^n = {total}, got m={m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(as_count(seed, "seed", 0))
    if m * 2 >= total:
        return rng.permutation(total)[:m]
    taken = np.empty(0, dtype=np.int64)
    while taken.size < m:
        draws = rng.integers(total, size=2 * (m - taken.size))
        fresh = draws[np.sort(np.unique(draws, return_index=True)[1])]
        fresh = fresh[~np.isin(fresh, taken)]
        taken = np.concatenate([taken, fresh[: m - taken.size]])
    return taken


def sample_monomials(n: int, m: int, seed) -> list:
    """sample_codes' draws as PauliMonomials, each carrying its code."""
    return _monomials(sample_codes(n, m, seed), n)


def setting_of(p: PauliMonomial) -> PauliSetting:
    """Measurement setting of a monomial; identity positions default to z."""
    return code_settings([p.code], p.n)[0]


def setting_codes(codes, n: int) -> np.ndarray:
    """The base-4 code of each monomial code's measurement setting: its
    labels with identity read as z.  Setting codes sort as axes strings do."""
    labels = _labels(codes, n)
    return _codes(np.where(labels == 0, 3, labels))


def code_settings(codes, n: int) -> list:
    """The measurement setting of each monomial code: the string of its
    setting code, in lower case."""
    return [PauliSetting(t.lower()) for t in _letters(_labels(setting_codes(codes, n), n))]


def setting_labels(settings, n: int) -> np.ndarray:
    """(S, n) labels of n-qubit settings' axes (x 1, y 2, z 3); raises
    ValueError naming the first setting of another qubit count."""
    odd = [s.axes for s in settings if s.n != n]
    if odd:
        raise ValueError(f"setting {odd[0]!r} covers {len(odd[0])} qubits, expected {n}")
    return _text_labels([s.axes for s in settings], n)


def born_probabilities(state: PureState, settings) -> np.ndarray:
    """Outcome distributions of Pauli-basis measurements on a pure state.

    `settings` is one PauliSetting, giving shape (d,), or a sequence of S
    settings, giving shape (S, d) with row i for settings[i]; one setting
    is the batch of one row.  Each qubit k is rotated into the
    computational basis (x via Hadamard, y via Hadamard after phase
    conjugation) and the amplitudes are squared.  Rotation runs qubit by
    qubit over a prefix tree: settings that agree on axes 0..k share one
    amplitude row after qubit k, so a row is rotated once per distinct
    prefix rather than once per setting.  Each level copies its parent
    rows once into one array, ordered by the new axis, and rotates the x
    rows and the y rows there as one slice each through
    apply_single_qubit, so every row is bit-identical to rotating that
    setting alone.  The distinct rows are squared before each setting
    gathers its own.
    """
    single = isinstance(settings, PauliSetting)
    batch = [settings] if single else list(settings)
    n = state.n
    labels = setting_labels(batch, n)
    rows = state.amplitudes[None, :]
    node = np.zeros(len(batch), dtype=np.int64)  # each setting's row
    for k in range(n):
        # A row's children, one per axis label that continues it: sorted by
        # label (x 1, y 2, z 3), so each label's rows are one slice.
        child, node = np.unique(labels[:, k] * len(rows) + node, return_inverse=True)
        label, parent = np.divmod(child, len(rows))
        rows = rows[parent]
        x_end, y_end = np.searchsorted(label, [2, 3])
        rows[:x_end] = apply_single_qubit(rows[:x_end], _TO_X_BASIS, k, n)
        rows[x_end:y_end] = apply_single_qubit(rows[x_end:y_end], _TO_Y_BASIS, k, n)
    probs = np.abs(rows) ** 2
    return probs[node[0]] if single else probs[node]


def sample_record(
    setting: PauliSetting, probs: np.ndarray, shots: int, seed
) -> MeasurementRecord:
    """Multinomial draw of `shots` outcomes from a distribution.

    The counts are one rng.multinomial draw, which numpy makes by
    conditional binomials: bin j takes Binomial(shots left, p_j / mass
    left) of the shots not yet placed.  That is O(d) per call whatever the
    shot count, and reproducible per seed, a Generator or an integer >= 0
    (numpy does not promise the same draws across its releases).  The
    distribution is cut after its last bin of nonzero probability and
    divided by its sum there, so that bin takes the roundoff remainder and
    no outcome of probability zero is ever drawn.
    """
    shots = as_shots(shots)
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size != 2**setting.n:
        raise ValueError(f"expected {2**setting.n} probabilities, got shape {probs.shape}")
    if not (probs.min() >= -1e-12 and abs(probs.sum() - 1.0) <= 1e-8):  # NaN fails too
        raise ValueError("probabilities must be nonnegative and sum to 1")
    weights = np.maximum(probs, 0.0)
    weights = weights[: np.flatnonzero(weights)[-1] + 1]
    counts = np.zeros(probs.size, dtype=np.int64)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(as_count(seed, "seed", 0))
    counts[: weights.size] = rng.multinomial(shots, weights / weights.sum())
    return MeasurementRecord(setting=setting, shots=shots, counts=counts)


def expectation_from_distribution(
    setting: PauliSetting, probs: np.ndarray, p: PauliMonomial
) -> float:
    """Parity-weighted sum turning an outcome distribution into <P>.

    Outcome bits at identity positions of the monomial are masked out; the
    remaining bits' parity gives the sign of each outcome's contribution.
    """
    if setting.n != p.n:
        raise ValueError(f"setting covers {setting.n} qubits, monomial {p.n}")
    axes = setting_labels([setting], p.n)[0].tolist()
    if any(label not in (0, axis) for label, axis in zip(p.labels, axes)):
        raise ValueError(f"record setting {setting.axes!r} does not measure monomial {p}")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2**setting.n,):
        raise ValueError(f"expected {2**setting.n} outcome weights, got shape {probs.shape}")
    flips, sign_masks, _ = monomial_actions([p.code], p.n)
    signs = 1.0 - 2.0 * _bit_parity(np.arange(probs.size) & (flips | sign_masks))
    return float(np.dot(signs, probs))


def expectation_from_record(record: MeasurementRecord, p: PauliMonomial) -> float:
    """Estimate <P> from one record's counts.

    The signed count sum is an integer, held exactly in float64; the single
    final division keeps e.g. the all-identity monomial at exactly 1.0.
    """
    return expectation_from_distribution(record.setting, record.counts, p) / record.shots


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of each integer's bit count (vectorized)."""
    out = np.zeros(values.shape, dtype=np.int64)
    v = values.copy()
    while np.any(v):
        out ^= v & 1
        v >>= 1
    return out


def monomial_actions(codes, n: int):
    """Signed-permutation data (flips, sign_masks, nys) of monomial codes.

    Three int64 arrays; bit n-1-k of a mask is qubit k.  A label's two bits
    (hi, lo) are I 00, X 01, Y 10, Z 11: x and y flip the qubit's bit
    (hi ^ lo), y and z add a sign from it (hi), and each y adds a factor i.
    """
    labels = _labels(codes, n)
    bits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    hi, lo = (labels >> 1) @ bits, (labels & 1) @ bits
    return hi ^ lo, hi, np.count_nonzero(labels == 2, axis=1)


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
    flips, sign_masks, nys = monomial_actions([p.code], p.n)
    src = np.arange(d) ^ flips[0]
    phase = (1j ** nys[0]) * (1.0 - 2.0 * _bit_parity(src & sign_masks[0]))
    if v.ndim == 1:
        return phase * v[src]
    return phase[:, None] * v[src, :]


def exact_expectation(state: PureState, p: PauliMonomial) -> float:
    """<psi| P |psi>, matrix-free; real and in [-1, 1] for any pure state."""
    if state.n != p.n:
        raise ValueError(f"state has {state.n} qubits, monomial has {p.n}")
    value = np.vdot(state.amplitudes, apply_monomial(p, state.amplitudes))
    return float(min(1.0, max(-1.0, value.real)))
