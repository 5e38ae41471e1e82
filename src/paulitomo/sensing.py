"""Sensing operator over a set of Pauli monomials.

The map sends a factor U (d x r, representing rho = U U^dagger) to the m
real values s * Tr(P_i U U^dagger), where s = d / sqrt(m) when the map is
normalized and 1 otherwise.  The adjoint sends a coefficient vector x to
s * sum_i x_i P_i Z.  For uniformly sampled monomials E[A^dagger A] = c I
with gain c = s^2 m / d (d normalized, m / d not); spectral init and the
auto step divide c out.  The map holds its monomials as an int64 array of
base-4 codes (measurements.py); monomial objects given at the API edge are
encoded once, on construction.

A monomial acts as a signed index permutation (see
measurements.monomial_actions): (P z)[k] = i^ny (-1)^{popcount((k^f) & s)}
z[k^f], with flip mask f, sign mask s and ny = popcount(f & s) y-factors.
Monomials that share a flip f differ only in the Walsh-Hadamard character
picked by s, so the map works per flip group:

    Tr(P_i zz*) = i^ny_i WHT(w_f)[s_i],  w_f[j] = (conj(z) z^T)[j^f, j]
    A^dagger(x) = sum_f M_f,  M_f[k^f, k] = WHT(c_f)[k],
    c_f[s] = sum_{i: f_i=f, s_i=s} x_i i^ny_i

where WHT is the unnormalized Walsh-Hadamard transform: w_f is the flip-f
diagonal of conj(z) z^T, and M_f is nonzero on the flip-f diagonal only.

Real arithmetic.  conj(z) z^T is Hermitian, so w_f[j^f] = conj(w_f[j]),
and pairing j with j^f gives WHT(w_f)[s] = (-1)^ny conj(WHT(w_f)[s]): the
transform is real where ny is even and imaginary where it is odd.  So
WHT(Im w_f)[s] vanishes for even ny and WHT(Re w_f)[s] for odd ny, and one
real transform of u_f = Re w_f + Im w_f carries both.  With z = a + ib,

    R = Re + Im of conj(z) z^T = [a, b] [a + b, b - a]^T      (one real GEMM)
    Tr(P_i zz*) = sigma_i WHT(u_f)[s_i],  u_f[j] = R[j^f, j]
    sigma = Re(i^ny) - Im(i^ny),  tau = Re(i^ny) + Im(i^ny),

and sigma, tau are +-1.  For the adjoint, each (f, s) cell of c_f is real
or imaginary as ny is even or odd, so the real c'_f[s] = sum x_i tau_i
holds both parts.  Its transform scattered as R[k^f, k] = WHT(c'_f)[k] is
Re M_f + Im M_f, where Re M_f is symmetric and Im M_f antisymmetric under
k -> k^f, so

    A^dagger(x) = s ((R + R^T) + i (R - R^T)) / 2
    A^dagger(x) z = s/2 [R (a - b) + R^T (a + b) + i (R (a + b) - R^T (a - b))]

which is two real GEMMs against the (d, 2r) blocks [a - b, a + b] and
[a + b, b - a].

Tables.  The map builds them on construction and only reads them after,
in the user order of `codes`: per monomial its group id, sign mask and
the signs s * sigma and s/2 * tau (the scale folded in; both products are
exact, and the R the adjoint builds is then s/2 times the R above), and
per group g of the G <= min(m, d) distinct flips its flip f_g and the row
_src[g, j] = (j ^ f_g) d + j, the flat positions of the flip-f_g diagonal
in a d x d matrix.  The masks and y counts are read off the codes' bit
pairs (measurements.monomial_actions), so no table needs a per-qubit
array.  The groups need no sort: flips lie in [0, d), so a d-entry table
of the flips present gives the sorted f_g, and its cumulative sum each
monomial's group, at O(m + d).  Per monomial, _cell = s_i G + g_i is the
flat position of its (sign, group) entry in the transformed (d, G) block,
where the forward reads and the adjoint scatter-adds.  The *_range
methods index positions of the data vector, and every range call
transforms all G groups.

Transform.  H_d is a Kronecker product of Sylvester factors of at most
2^_FACTOR_BITS, and _fwht applies each as one 2-D GEMM, so a row of d
entries costs d times the sum of the factor sizes, at most 32 d log2(d) / 5
multiply-adds, in BLAS.  A transform of integer counts is exact.

Cost of a range call, all in real arithmetic: the forward is R (2 d^2 r),
one gather of G d diagonal entries, a transform of G rows and one read per
monomial; the adjoint is one scatter-add per monomial, a transform, one
scatter of G d entries into a zeroed d x d matrix R, and the two GEMMs
above (4 d^2 r).  adjoint_operator(x) builds the same R once, fills the
complex d x d matrix A^dagger(x) from it and applies that as one matrix
product per Lanczos block of the eigensolver, a GEMV for a single pair.

Workspace and threads.  Calls write into float buffers that each map
holds per thread and reuses across calls: the d x d matrix R and two
blocks of G d entries, 8 d^2 + 16 G d bytes.  A warm gradient allocates
only arrays of length m and d r, and adjoint_operator only the complex
d x d matrix its operator keeps.  Threads that call one map at once each
use their own buffers; the tables are only read, so threads can share a
new map.  Exact simulated data are the forward map of the state.

Sampled data.  The monomials of one measurement setting read parities of
its outcome on their support masks, and those masks span a GF(2) space of
some rank r <= n.  The product of any subset of its basis monomials is
again a monomial on the setting, so its 2^r - 1 expectations E are
entries of the state's Pauli spectrum WHT(u_f)[s] over all flips f and
sign masks s, and parity_means(E, 2^r) is the law of the setting's r
basis parities.  The spectrum is the transformed block of one map of the
d monomials X^f, built once per sampled observe (_pauli_spectrum: R, the
map's (d, d) _src, and two blocks of d^2 floats, 32 d^2 bytes while it is
built and 8 d^2 after).  Every setting draws only its 2^r-pattern law,
one multinomial per rank for all settings of that rank, and its y is read
off parity_means of the pattern counts, the one transform from counts to
parity means (full tomography's too).  Full counts are drawn only when
the records are read, given the pattern counts, from their own stream
substream(seed, "records"); see observe_with_records.
"""

import threading
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .measurements import (
    exact_expectation,  # noqa: F401  (module attribute that perfbench/tracing.py wraps)
    expectation_from_record,  # noqa: F401  (likewise)
    MeasurementRecord,
    _popcount,
    as_shots,
    born_probabilities,
    code_settings,
    monomial_actions,
    monomial_codes,
    sample_record,
    setting_codes,
)
from .metrics import as_data, as_factor
from .seeding import as_count, substream
from .states import PureState

# Complex amplitudes per born_probabilities call in simulate_records and
# in _complete_records' blocks: 1024 rows at n=8, every setting at n <= 6.
_BLOCK_BYTES = 4 << 20
# Largest Kronecker factor of the Walsh-Hadamard transform, in bits.
_FACTOR_BITS = 5
# Pattern-law entries below this are roundoff of exact zeros (at most
# 1.2e-16 on GHZ states up to n=10) and are drawn as 0.
_LAW_ROUNDOFF = 1e-14


def _factor_bits(bits: int) -> list:
    """Bit widths of the fewest near-equal Kronecker factors of at most
    _FACTOR_BITS each, H_d = H_1 x ... x H_k for d = 2^bits."""
    k = -(-bits // _FACTOR_BITS)
    return [bits // k + (i < bits % k) for i in range(k)]


@lru_cache(maxsize=None)
def _sylvester(bits: int, dtype: np.dtype) -> np.ndarray:
    """The read-only 2^bits x 2^bits Sylvester-Hadamard matrix, (-1)^popcount(s & j)."""
    h = np.ones((1, 1), dtype=dtype)
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _fwht(a: np.ndarray, work: np.ndarray, axis: int = 1) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a's rows (axis 1) or columns
    (axis 0), left in a's memory in the transposed layout.

    a is a C-contiguous 2-D float or complex array whose `axis` length d is
    a power of two; work is a C-contiguous array of a's dtype with at least
    a.size entries, overwritten.  Returns the view of a's memory shaped like
    a.T: for axis 1, out[s, g] = sum_j a[g, j] (-1)^popcount(j & s).

    H_d is the Kronecker product of the _factor_bits Sylvester factors, and
    each factor is one 2-D GEMM that contracts the transformed axis's next
    digit and moves it to the other end of the array, so after the last
    factor the digits are back in order on the far side of the g axis.  A
    row costs d * (sum of factor sizes) multiply-adds, <= 32 d log2(d) / 5,
    and integer-valued input gives integer-valued output exactly (every
    product is +-1 times an input).
    """
    d = a.shape[axis]
    flat = a.reshape(-1)
    src, dst = flat, work.reshape(-1)[: a.size]
    for bits in _factor_bits(d.bit_length() - 1):
        h = _sylvester(bits, a.dtype)
        f = len(h)
        if axis:
            np.matmul(h, src.reshape(-1, f).T, out=dst.reshape(f, -1))
        else:
            np.matmul(src.reshape(f, -1).T, h, out=dst.reshape(-1, f))
        src, dst = dst, src
    if src is not flat:
        flat[:] = src
    return flat.reshape(a.shape[::-1])


# sigma = Re(i^ny) - Im(i^ny) and tau = Re(i^ny) + Im(i^ny), by ny mod 4.
_SIGMA = np.array([1.0, -1.0, -1.0, 1.0])
_TAU = np.array([1.0, 1.0, -1.0, -1.0])


class _Workspace(threading.local):
    """One thread's float buffers for a map's calls: a (d, d) matrix and two
    blocks of G x d entries."""

    mat = rows = work = None


class SensingMap:
    """Ordered Pauli monomials, kept as the code array `codes`, defining A and A^dagger."""

    def __init__(self, n: int, monomials, normalized: bool = True):
        self.n = as_count(n, "n")
        self.codes = monomial_codes(monomials, self.n)
        self.normalized = normalized
        self._src = None  # read by perfbench/tracing.py's wrapper of _ensure_cache
        self._ensure_cache()
        self._ws = _Workspace()

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
        """Build the tables; __init__ calls it once."""
        flips, sign_masks, nys = monomial_actions(self.codes, self.n)
        # The distinct flips in order and each monomial's rank among them,
        # as np.unique(flips, return_inverse=True) gives, from a d-entry
        # presence table: flips lie in [0, d).
        present = np.zeros(self.d, dtype=bool)
        present[flips] = True
        self._flips = np.flatnonzero(present)
        self._group = (np.cumsum(present) - 1)[flips]
        self._sign = sign_masks.astype(np.int32)
        # Entry (s_i, g_i) of the transformed (d, G) block, flat.
        self._cell = sign_masks * self._flips.size + self._group
        self._sigma = (self.scale * _SIGMA)[nys % 4]
        self._tau = (self.scale / 2 * _TAU)[nys % 4]
        # intp, so take and fancy assignment use it without a converted copy;
        # built in place, as one G x d array.
        j = np.arange(self.d, dtype=np.intp)
        self._src = j ^ self._flips[:, None]
        self._src *= self.d
        self._src += j

    def _buffers(self):
        """This thread's (d, d) matrix and two flat blocks of G x d entries."""
        ws = self._ws
        if ws.mat is None:
            ws.mat = np.empty((self.d, self.d))
            ws.rows, ws.work = np.empty((2, self._src.size))
        return ws.mat, ws.rows, ws.work

    def _transform(self, u: np.ndarray) -> np.ndarray:
        """The transformed (d, G) block of u u^dagger: entry (s, g) is
        WHT(u_f)[s] for the flip f = f_g, in this thread's workspace."""
        u = as_factor(u, self.d)
        a, b = u.real, u.imag
        r_mat, rows, work = self._buffers()
        np.matmul(np.hstack((a, b)), np.hstack((a + b, b - a)).T, out=r_mat)
        # w[g, j] = R[j ^ f_g, j], the flip diagonals of R.
        w = np.take(r_mat.reshape(-1), self._src, out=rows.reshape(self._src.shape), mode="clip")
        return _fwht(w, work)

    def forward_range(self, u: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Entries lo..hi of A(u u^dagger), with the full-map scale."""
        return self._sigma[lo:hi] * self._transform(u).reshape(-1)[self._cell[lo:hi]]

    def forward_factored(self, u: np.ndarray) -> np.ndarray:
        """Observation vector A(u u^dagger): s * Tr(P_i u u^dagger) per entry."""
        return self.forward_range(u, 0, self.m)

    def _adjoint_matrix(self, x: np.ndarray, lo: int, hi: int, mat, rows, work) -> np.ndarray:
        """mat := R with s * sum_{i in [lo,hi)} x_i P_i = (R + R^T) + i (R - R^T),
        for the slice x of length hi - lo.

        rows and work are flat buffers of G x d entries.  c'_f, already
        times s/2, sits in the columns of rows, the column transform leaves
        v = WHT(c'_f) as rows, and mat[k ^ f_g, k] = v[g, k] is one scatter
        through _src.
        """
        x = as_data(x, hi - lo)
        coeffs = rows.reshape(self.d, len(self._src))
        coeffs.fill(0)
        # add.at sums repeated monomials; fancy assignment would keep one.
        np.add.at(rows, self._cell[lo:hi], self._tau[lo:hi] * x)
        mat.fill(0)
        mat.reshape(-1)[self._src] = _fwht(coeffs, work, axis=0)
        return mat

    def adjoint_range(self, x: np.ndarray, z: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Partial adjoint s * sum_{i in [lo,hi)} x_i P_i z, for the slice x of length hi - lo."""
        z = as_factor(z, self.d)
        plus, minus = z.real + z.imag, z.real - z.imag
        r_mat = self._adjoint_matrix(x, lo, hi, *self._buffers())
        # Interleaved columns, so that parts[k, 2c] + i parts[k, 2c + 1] is
        # entry (k, c) of the result and parts is its float view.
        parts = r_mat @ np.stack((minus, plus), axis=2).reshape(self.d, -1)
        parts += r_mat.T @ np.stack((plus, -minus), axis=2).reshape(self.d, -1)
        return parts.view(complex)

    def adjoint_times(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """A^dagger(x) @ z = s * sum_i x_i P_i z, column-wise."""
        return self.adjoint_range(x, z, 0, self.m)

    def adjoint_operator(self, x: np.ndarray):
        """The fixed operator Z -> A^dagger(x) Z: the d x d matrix, built once."""
        r_mat = self._adjoint_matrix(x, 0, self.m, *self._buffers())
        mat = np.empty((self.d, self.d), dtype=complex)
        np.add(r_mat, r_mat.T, out=mat.real)
        np.subtract(r_mat, r_mat.T, out=mat.imag)
        return lambda z: mat @ as_factor(z, self.d)

    def residual_gradient_range(self, y: np.ndarray, z: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The terms i in [lo, hi) of A^dagger(A(zz*)-y) z; y is the full data vector."""
        residual = self.forward_range(z, lo, hi) - as_data(y, self.m)[lo:hi]
        return self.adjoint_range(residual, z, lo, hi)

    def residual_gradient(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Full gradient of 1/2 ||A(zz*) - y||^2 with respect to rho, times z."""
        return self.residual_gradient_range(y, z, 0, self.m)


def parity_means(counts, shots) -> np.ndarray:
    """Entry s of row i: sum_v counts[i, v] (-1)^popcount(v & s) / shots, for
    an (S, w) table (w a power of two; exact for integer counts up to the one
    division) and shots a number or an (S, 1) array.  _pattern_laws reads
    expectations E as parity_means(E, 2^r).  Copies the table to float once."""
    table = np.array(counts, dtype=float)
    return _fwht(table, np.empty(table.size)).T / shots


def _parity_bases(sensing_map: SensingMap):
    """The parities a sampled observe reads, and a GF(2) basis of each
    setting's parities.

    Returns (codes, setting, mask, basis, rank, coord): the S distinct
    setting codes, sorted (so in axes order); per monomial its setting
    index, its support mask f | s (the qubits whose outcome parity it
    reads) and its coordinates; per setting its r basis masks, first in a
    row of basis (S, n), and r.  A monomial's mask is the XOR of
    basis[setting, k] over the bits k of its coord.

    Elimination runs on the distinct (setting, mask) pairs of every setting
    at once, one bit at a time: the first pair of a setting with that bit
    still set gives the setting's next basis mask, and every pair of the
    setting with the bit set, that one too, is XORed with it and takes its
    basis bit into its coord.  Lower bits are already clear everywhere, so
    every pair ends at 0.
    """
    n, d = sensing_map.n, sensing_map.d
    codes, setting = np.unique(setting_codes(sensing_map.codes, n), return_inverse=True)
    mask = sensing_map._flips[sensing_map._group] | sensing_map._sign
    pairs, pair_of = np.unique(setting * d + mask, return_inverse=True)
    owner, reduced = np.divmod(pairs, d)
    coord = np.zeros_like(reduced)
    basis = np.zeros((codes.size, n), dtype=np.int64)
    rank = np.zeros(codes.size, dtype=np.int64)
    for bit in range(n):
        live = np.flatnonzero((reduced >> bit) & 1)
        if not live.size:
            continue
        first = live[np.r_[True, owner[live[1:]] != owner[live[:-1]]]]
        basis[owner[first], rank[owner[first]]] = reduced[first]
        reduced[live] ^= basis[owner[live], rank[owner[live]]]
        coord[live] |= 1 << rank[owner[live]]
        rank[owner[first]] += 1
    return codes, setting, mask, basis, rank, coord[pair_of]


def _subset_xors(vectors: np.ndarray) -> np.ndarray:
    """(S, 2^r) XORs of every subset t of each row's r entries, bit k of t
    picking entry k; column 0 is 0."""
    rows, r = vectors.shape
    out = np.zeros((rows, 2**r), dtype=np.int64)
    for k in range(r):
        out[:, 2**k : 2 ** (k + 1)] = out[:, : 2**k] ^ vectors[:, k : k + 1]
    return out


def _pauli_spectrum(state: PureState) -> np.ndarray:
    """The (d, d) table WHT(u_f)[s] of the state over every flip f (column)
    and sign mask s (row): the transformed block of one map of the d
    monomials X^f, whose flip groups are f = 0 ... d - 1 in order.  The
    monomial of flip f and sign mask s has <P> = sigma WHT(u_f)[s], sigma
    read from ny = popcount(f & s)."""
    x_codes = _subset_xors(4 ** np.arange(state.n, dtype=np.int64)[None, :])[0]  # mask f -> code of X^f
    return SensingMap(state.n, x_codes, normalized=False)._transform(state.amplitudes)


def _pattern_laws(state: PureState, groups) -> list:
    """The law of each setting's parity pattern, for groups of settings of
    equal rank: each group is (setting codes (S,), basis masks (S, r)), and
    its law is (S, 2^r), entry v the probability that the outcome's parity
    with basis mask k is bit k of v.

    The product of the basis monomials in a subset t, on the setting, is the
    monomial of mask M = XOR(t): on a setting of flip mask F and sign mask
    Z, its flip is M & F and its sign mask M & Z.  Every such expectation
    E_t is one entry of the state's Pauli spectrum (_pauli_spectrum),
    computed once for all groups, with E_0 = 1; the law is
    parity_means(E, 2^r) with entries below _LAW_ROUNDOFF set to 0,
    divided by its sum.
    """
    spectrum = _pauli_spectrum(state)
    laws = []
    for codes, basis in groups:
        flips, sign_masks, _ = monomial_actions(codes, state.n)
        masks = _subset_xors(basis)
        f, s = masks & flips[:, None], masks & sign_masks[:, None]
        expectations = _SIGMA[_popcount(f & s) % 4] * spectrum[s, f]
        expectations[:, 0] = 1.0
        law = parity_means(expectations, masks.shape[1])
        law[law < _LAW_ROUNDOFF] = 0.0
        laws.append(law / law.sum(axis=1, keepdims=True))
    return laws


def _multinomial(rng, shots, pvals: np.ndarray) -> np.ndarray:
    """rng.multinomial(shots, pvals) over pvals' last axis.  numpy gives
    the last bin the roundoff remainder, so a row whose last bin has
    probability zero has its last nonzero bin moved there for the draw:
    as in sample_record, no bin of probability zero is ever drawn."""
    end = pvals.shape[-1] - 1
    last = end - np.argmax(pvals[..., ::-1] > 0, axis=-1)
    rows = np.nonzero(last < end)
    moved = pvals.copy()
    moved[rows + (end,)] = pvals[rows + (last[rows],)]
    moved[rows + (last[rows],)] = 0.0
    counts = rng.multinomial(shots, moved)
    counts[rows + (last[rows],)] = counts[rows + (end,)]
    counts[rows + (end,)] = 0
    return counts


def _class_order(basis: np.ndarray, n: int) -> np.ndarray:
    """(S, 2^n) outcomes of each setting ordered by pattern class: class v,
    the outcomes whose parity with basis mask k is bit k of v, fills
    entries v 2^(n-r) to (v + 1) 2^(n-r) of its row.

    basis (S, r) is in _parity_bases' echelon form: mask k has lowest bit
    p_k, p_0 < p_1 < ..., and no mask after k has bit p_k.  The outcome
    x_k = 2^p_k XOR (x_j for each j < k whose mask has bit p_k) has
    pattern e_k, and for every other bit q, 2^q XOR (x_k for each k whose
    mask has bit q) has pattern 0 (at q = p_k it is 0).  Class v is then
    XOR(x_k for bits k of v) XORed with each subset XOR of the n - r
    nonzero pattern-0 outcomes, which span the outcomes of pattern 0.
    """
    rows, r = basis.shape
    low = basis & -basis
    dual = np.zeros_like(basis)
    for k in range(r):
        earlier = np.where(basis[:, :k] & low[:, k : k + 1], dual[:, :k], 0)
        dual[:, k] = low[:, k] ^ np.bitwise_xor.reduce(earlier, axis=1)
    bits = 1 << np.arange(n, dtype=np.int64)
    kernel = bits ^ np.bitwise_xor.reduce(np.where(basis[:, :, None] & bits, dual[:, :, None], 0), axis=1)
    kernel = np.take_along_axis(kernel, np.argsort(kernel == 0, axis=1, kind="stable"), axis=1)[:, : n - r]
    return (_subset_xors(dual)[:, :, None] ^ _subset_xors(kernel)[:, None, :]).reshape(rows, -1)


def _complete_records(state: PureState, settings: list, draws, shots: int, rng) -> list:
    """Full counts of every setting, drawn given its pattern counts.

    draws holds (setting indices, basis masks (S, r), pattern counts (S,
    2^r)) per rank group.  Within a block of about _BLOCK_BYTES of Born
    amplitudes, each setting's Born row is read in class order
    (_class_order), and one multinomial call draws each class's counts
    over its Born probabilities divided by their sum.  Pattern counts
    drawn over the class masses, then each class's counts drawn over its
    share of the row, are one multinomial draw over the whole Born row.
    Returns the records by setting index.
    """
    n, d = state.n, 2**state.n
    rows = max(1, _BLOCK_BYTES // (16 * d))
    records = [None] * len(settings)
    for sel, basis, counts in draws:
        width = counts.shape[1]
        for lo in range(0, len(sel), rows):
            block = sel[lo : lo + rows]
            order = _class_order(basis[lo : lo + rows], n)
            probs = born_probabilities(state, [settings[i] for i in block])
            classes = np.take_along_axis(probs, order, axis=1).reshape(len(block), width, -1)
            mass = classes.sum(axis=2, keepdims=True)
            # A class of zero Born mass has no drawn count, but needs valid weights.
            classes = np.divide(classes, mass, out=np.full_like(classes, width / d), where=mass > 0)
            full = np.empty((len(block), d), dtype=np.int64)
            drawn = _multinomial(rng, counts[lo : lo + rows], classes)
            np.put_along_axis(full, order, drawn.reshape(len(block), d), axis=1)
            for i, c in zip(block, full):
                records[i] = MeasurementRecord(settings[i], shots, c)
    return records


class _Records(Sequence):
    """A sampled observe's records, built by `complete` on the first read."""

    def __init__(self, complete):
        self._complete, self._records = complete, None

    def _read(self) -> list:
        if self._records is None:
            self._records = self._complete()
        return self._records

    def __getitem__(self, index):
        return self._read()[index]

    def __len__(self) -> int:
        return len(self._read())


def observe_with_records(
    state: PureState,
    sensing_map: SensingMap,
    shots: int | None = None,
    seed: int = 0,
):
    """Simulate the data vector y; returns (y, records), y the float array
    of shape (m,) in the map's monomial order.

    Exact mode (shots None) is the map's forward operator on the state,
    each value clamped to [-s, s] (s the map's scale) as exact_expectation
    clamps <P> to [-1, 1], and returns an empty record list.

    Sampled mode groups monomials by their setting code
    (measurements.setting_codes, identity read as z); monomial i reads the
    parity of its setting's outcome with its support mask f_i | s_i, the
    mask of its non-identity qubits.  Each setting takes a GF(2) basis of
    its r distinct masks (_parity_bases) and draws only the pattern of its
    r basis parities: from its law (_pattern_laws, read off the state's
    Pauli spectrum), by one multinomial call per rank on
    substream(seed, "shots"), r ascending, settings in sorted axes order.
    Monomial i reads the integer transform of its setting's pattern counts
    at its coordinates, divided once by shots, times the map's scale, as
    s * expectation_from_record reads it.

    The records, one per setting in sorted axes order, are a sequence
    built on its first read: each setting's full counts are then drawn
    given its pattern counts (_complete_records) from substream(seed,
    "records"), so they follow the full multinomial law over the Born row
    and reproduce y bit for bit.  A caller that never reads them pays
    nothing for them.
    """
    if state.n != sensing_map.n:
        raise ValueError(f"state has {state.n} qubits, map has {sensing_map.n}")
    s = sensing_map.scale
    if shots is None:
        return np.clip(sensing_map.forward_factored(state.amplitudes), -s, s), []
    shots, rng = as_shots(shots), substream(seed, "shots")
    n = sensing_map.n
    codes, record_of, _, basis, rank, coord = _parity_bases(sensing_map)
    groups = [np.flatnonzero(rank == r) for r in range(n + 1)]
    groups = [(sel, basis[sel, : rank[sel[0]]]) for sel in groups if sel.size]
    laws = _pattern_laws(state, [(codes[sel], b) for sel, b in groups])
    draws = [(sel, b, _multinomial(rng, shots, law)) for (sel, b), law in zip(groups, laws)]
    # Every setting's transformed pattern counts in one flat array, from start[setting].
    start, means, size = np.empty(codes.size, dtype=np.intp), [], 0
    for sel, _, counts in draws:
        start[sel] = size + counts.shape[1] * np.arange(sel.size)
        means.append(parity_means(counts, shots).ravel())
        size += counts.size
    y = s * np.concatenate(means)[start[record_of] + coord]

    def complete():
        return _complete_records(state, code_settings(codes, n), draws, shots, substream(seed, "records"))

    return y, _Records(complete)


def observe(
    state: PureState,
    sensing_map: SensingMap,
    shots: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Simulate the data vector y, a float array of shape (m,), for a state under a sensing map."""
    return observe_with_records(state, sensing_map, shots=shots, seed=seed)[0]


def simulate_records(state: PureState, settings, shots: int, seed: int = 0) -> list:
    """One measurement record per setting, all drawn from one seed stream.

    Born distributions are computed in blocks of settings that hold about
    _BLOCK_BYTES of complex amplitudes, one born_probabilities call per
    block.  Blocks are cut from the settings in sorted axes order (equal
    settings in their given order), so a block shares as many rotated
    prefixes as it can.  Every setting draws its counts, one sample_record
    call each, from the single generator substream(seed, "shots"), in that
    sorted order, so the counts do not depend on the blocking.  Record i
    is for settings[i].
    """
    settings = list(settings)
    rows = max(1, _BLOCK_BYTES // (16 * 2**state.n))
    order = sorted(range(len(settings)), key=lambda i: settings[i].axes)
    rng = substream(seed, "shots")
    records = [None] * len(settings)
    for lo in range(0, len(order), rows):
        block = order[lo : lo + rows]
        probs = born_probabilities(state, [settings[i] for i in block])
        for idx, p in zip(block, probs):
            records[idx] = sample_record(settings[idx], p, shots, rng)
    return records
