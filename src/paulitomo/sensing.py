"""Matrix-free sensing operator over a set of Pauli monomials.

The map sends a factor U (d x r, representing rho = U U^dagger) to the m
real values s * Tr(P_i U U^dagger), where s = d / sqrt(m) when the map is
normalized and 1 otherwise.  The adjoint sends a coefficient vector x to
s * sum_i x_i P_i Z without ever materializing a d x d matrix.  For
uniformly sampled monomials E[A^dagger A] = c I with gain c = s^2 m / d
(d normalized, m / d not); spectral init and the auto step divide c out.
The map holds its monomials as an int64 array of base-4 codes
(measurements.py); monomial objects given at the API edge are encoded
once, on construction.

A monomial acts as a signed index permutation (see
measurements.monomial_actions): (P z)[k] = i^ny (-1)^{popcount((k^f) & s)}
z[k^f], with flip mask f, sign mask s and ny y-factors.  Monomials that
share a flip f differ only in the Walsh-Hadamard character picked by s,
so the map works per flip group:

    Tr(P_i zz*) = i^ny_i WHT(w_f)[s_i],  w_f[j] = sum_c conj(z[j^f, c]) z[j, c]
    A^dagger(x) z = sum_f P_f (WHT(c_f) * z),  c_f[s] = sum_{i: f_i=f, s_i=s} x_i i^ny_i

where WHT is the unnormalized Walsh-Hadamard transform and P_f the index
permutation k -> k^f.  Both directions cost O(G d (log d + r)) for the
G <= min(m, d) distinct flips a call touches.  The map builds its tables
on construction and only reads them after: the (G, d) source indices k^f
plus per-monomial group ids, sign masks and phases, in flip order
(monomials stably sorted by flip mask).  The *_range methods index that
order, so the parallel engine's contiguous ranges touch disjoint runs of
groups; all other methods keep the user order of `codes`.  The full-range
call is the serial path, so a one-worker partition reproduces it exactly.
adjoint_operator fixes x and builds its table once, for the eigensolver;
every path applies a table with the same _apply_table.  Exact simulated
data are the forward map of the state.
"""

from dataclasses import dataclass

import numpy as np

from .measurements import (
    exact_expectation,  # noqa: F401  (module attribute that perfbench/tracing.py wraps)
    expectation_from_record,  # noqa: F401  (likewise)
    born_probabilities,
    code_settings,
    monomial_actions,
    monomial_codes,
    sample_record,
)
from .metrics import as_factor
from .seeding import substream
from .states import PureState

# Complex amplitudes per born_probabilities call in simulate_records: 1024
# rows at n=8, every setting at n <= 6.
_BLOCK_BYTES = 4 << 20


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row of a, in place.

    a[g, s] becomes sum_j a[g, j] (-1)^{popcount(j & s)}; a must be
    C-contiguous with a power-of-two row length.  Radix-4 butterflies
    (one radix-2 pass first when log2 d is odd) halve the passes over a.
    """
    g, d = a.shape
    h = 1
    if (d.bit_length() - 1) % 2:
        pairs = a.reshape(g, d // 2, 2)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        t = lo.copy()
        lo += hi
        np.subtract(t, hi, out=hi)
        h = 2
    while h < d:
        x = a.reshape(g, d // (4 * h), 4, h)
        s01, d01 = x[:, :, 0] + x[:, :, 1], x[:, :, 0] - x[:, :, 1]
        s23, d23 = x[:, :, 2] + x[:, :, 3], x[:, :, 2] - x[:, :, 3]
        np.add(s01, s23, out=x[:, :, 0])
        np.add(d01, d23, out=x[:, :, 1])
        np.subtract(s01, s23, out=x[:, :, 2])
        np.subtract(d01, d23, out=x[:, :, 3])
        h *= 4
    return a


def _apply_table(src: np.ndarray, v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Table (src, v) of SensingMap._adjoint_table times z.  Per column c, row g
    of v * z[:, c] is permuted by k -> k ^ f_g and rows are summed (a (G, d, b)
    product would loop over b innermost, several times slower)."""
    rows = np.arange(len(v))[:, None]
    return np.stack([(v * col)[rows, src].sum(axis=0) for col in z.T], axis=1)


class SensingMap:
    """Ordered Pauli monomials, kept as the code array `codes`, defining A and A^dagger."""

    def __init__(self, n: int, monomials, normalized: bool = True):
        self.n = n
        self.codes = monomial_codes(monomials, n)
        self.normalized = normalized
        self._src = None  # read by perfbench/tracing.py's wrapper of _ensure_cache
        self._ensure_cache()

    @property
    def m(self) -> int:
        return self.codes.size

    @property
    def d(self) -> int:
        return 2**self.n

    @property
    def scale(self) -> float:
        """s, so that E[A^dagger A] = gain * I with gain = s^2 m / d."""
        return self.d / np.sqrt(self.m) if self.normalized else 1.0

    @property
    def gain(self) -> float:
        return self.scale**2 * self.m / self.d

    def _ensure_cache(self):
        """Build the flip-order tables; __init__ calls it once."""
        flips, sign_masks, nys = monomial_actions(self.codes, self.n)
        # Stable, so repeated monomials keep their user order within a group.
        self._order = np.argsort(flips, kind="stable")
        self._rank = np.argsort(self._order)
        flip_values, self._group = np.unique(flips[self._order], return_inverse=True)
        self._sign = sign_masks[self._order].astype(np.int32)
        self._iphase = 1j ** (nys[self._order] % 4)
        self._src = (np.arange(self.d) ^ flip_values[:, None]).astype(np.int32)

    def _groups(self, lo: int, hi: int):
        """The run of flip groups' source rows that positions lo..hi touch, and their rows."""
        if hi <= lo:
            return self._src[:0], self._group[:0]
        g_lo, g_hi = self._group[lo], self._group[hi - 1] + 1
        return self._src[g_lo:g_hi], self._group[lo:hi] - g_lo

    def _flip_ordered(self, x: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Flip-order positions lo..hi of a user-order length-m vector."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.m},)")
        return x[self._order[lo:hi]]

    def forward_range(self, u: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Flip-order entries lo..hi of A(u u^dagger), with the full-map scale."""
        u = as_factor(u, self.d)
        src, row = self._groups(lo, hi)
        w = _fwht(np.einsum("gjc,jc->gj", u[src].conj(), u))
        return self.scale * (self._iphase[lo:hi] * w[row, self._sign[lo:hi]]).real

    def forward_factored(self, u: np.ndarray) -> np.ndarray:
        """Observation vector A(u u^dagger): s * Tr(P_i u u^dagger) per entry."""
        return self.forward_range(u, 0, self.m)[self._rank]

    def _adjoint_table(self, x: np.ndarray, lo: int, hi: int):
        """(src, v) of the partial adjoint M = s * sum_{i in [lo,hi)} x_i P_i.

        lo..hi and x are in flip order.  src holds the (G, d) source rows of
        the flip groups those positions touch and v = WHT(c_f) per group;
        M[src[g, j], j] = v[g, j] and M is zero elsewhere.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (hi - lo,):
            raise ValueError(f"coefficient slice has shape {x.shape}, expected ({hi - lo},)")
        src, row = self._groups(lo, hi)
        d = self.d
        coeffs = np.zeros(src.shape[0] * d, dtype=complex)
        # add.at sums repeated monomials; fancy assignment would keep one.
        np.add.at(coeffs, row * d + self._sign[lo:hi], self.scale * x * self._iphase[lo:hi])
        return src, _fwht(coeffs.reshape(-1, d))

    def adjoint_range(self, x: np.ndarray, z: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Partial adjoint s * sum_{i in [lo,hi)} x_i P_i z; lo..hi and x in flip order."""
        z = as_factor(z, self.d)
        return _apply_table(*self._adjoint_table(x, lo, hi), z)

    def adjoint_times(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """A^dagger(x) @ z = s * sum_i x_i P_i z, column-wise and matrix-free."""
        return self.adjoint_range(self._flip_ordered(x), z, 0, self.m)

    def adjoint_operator(self, x: np.ndarray):
        """The fixed operator Z -> A^dagger(x) Z, its table built once."""
        table = self._adjoint_table(self._flip_ordered(x), 0, self.m)
        return lambda z: _apply_table(*table, as_factor(z, self.d))

    def residual_gradient_range(self, y: np.ndarray, z: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Flip-order positions [lo, hi) of A^dagger(A(zz*)-y) z; y is in user order."""
        residual = self.forward_range(z, lo, hi) - self._flip_ordered(y, lo, hi)
        return self.adjoint_range(residual, z, lo, hi)

    def residual_gradient(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Full gradient of 1/2 ||A(zz*) - y||^2 with respect to rho, times z."""
        return self.residual_gradient_range(y, z, 0, self.m)


@dataclass
class ObservationVector:
    """Measured data aligned with a sensing map's monomial order."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size < 1:
            raise ValueError("observation vector must be nonempty")
        if not np.all(np.isfinite(values)):
            raise ValueError("observation values must be finite")
        self.values = values


def parity_means(records) -> np.ndarray:
    """(S, 2^n) parity means of S records: entry s of row i, the mean of
    (-1)^popcount(outcome & s), is the integer (so exact) Walsh-Hadamard
    transform of record i's counts, divided once by its shots."""
    shots = np.array([r.shots for r in records])
    return _fwht(np.stack([r.counts for r in records])) / shots[:, None]


def observe_with_records(
    state: PureState,
    sensing_map: SensingMap,
    shots: int | None = None,
    seed: int = 0,
):
    """Simulate the data vector y; returns (ObservationVector, records).

    Exact mode (shots None) is the map's forward operator on the state,
    each value clamped to [-s, s] (s the map's scale) as exact_expectation
    clamps <P> to [-1, 1], and returns an empty record list.  Sampled mode
    groups monomials by measurement setting (an identity digit read as z)
    and simulates one record per distinct setting through
    simulate_records, settings in first-occurrence order (so the stream id
    is the setting's index in that order, and a record is shared by every
    monomial mapped to its setting).  Monomial i reads its record's
    parity_means at entry f_i | s_i, the mask of its non-identity qubits,
    exactly as expectation_from_record would, times the map's scale.
    """
    if state.n != sensing_map.n:
        raise ValueError(f"state has {state.n} qubits, map has {sensing_map.n}")
    s = sensing_map.scale
    if shots is None:
        return ObservationVector(np.clip(sensing_map.forward_factored(state.amplitudes), -s, s)), []
    flips, sign_masks, _ = monomial_actions(sensing_map.codes, sensing_map.n)
    # Per qubit, x sets the flip bit and y the flip and sign bits; identity
    # and z set neither once signs are masked by flips.  So two monomials
    # have equal keys exactly when they have equal settings.
    keys = (flips << sensing_map.n) | (flips & sign_masks)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    settings = code_settings(sensing_map.codes[first[order]], sensing_map.n)
    records = simulate_records(state, settings, shots, seed)
    record_of = np.argsort(order)[inverse]
    values = parity_means(records)[record_of, flips | sign_masks]
    return ObservationVector(s * values), records


def observe(
    state: PureState,
    sensing_map: SensingMap,
    shots: int | None = None,
    seed: int = 0,
) -> ObservationVector:
    """Simulate the data vector y for a state under a sensing map."""
    obs, _ = observe_with_records(state, sensing_map, shots=shots, seed=seed)
    return obs


def simulate_records(state: PureState, settings, shots: int, seed: int = 0) -> list:
    """One measurement record per setting, with per-setting seed streams.

    Born distributions are computed in blocks of settings that hold about
    _BLOCK_BYTES of complex amplitudes, one born_probabilities call per
    block.  Blocks are cut from the settings in sorted axes order, so a
    block shares as many rotated prefixes as it can.  Setting i (its
    position in `settings`, and in the returned list) draws its shots from
    substream(seed, "shots", i) whatever the blocking.
    """
    settings = list(settings)
    rows = max(1, _BLOCK_BYTES // (16 * 2**state.n))
    order = sorted(range(len(settings)), key=lambda i: settings[i].axes)
    records = [None] * len(settings)
    for lo in range(0, len(order), rows):
        block = order[lo : lo + rows]
        probs = born_probabilities(state, [settings[i] for i in block])
        for idx, p in zip(block, probs):
            records[idx] = sample_record(settings[idx], p, shots, substream(seed, "shots", idx))
    return records
