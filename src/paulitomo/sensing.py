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
in a d x d matrix.  The *_range methods index positions of the data
vector, and every range call transforms all G groups.

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

Workspace and threads.  Calls write into float buffers reused across calls
and held per thread: the d x d matrix R and two blocks of G d entries,
8 d^2 + 16 G d bytes.  A warm gradient allocates only arrays of length m
and d r, and adjoint_operator only the complex d x d matrix its operator
keeps.  Threads that call one map at once each use their own buffers; the
tables are only read, so threads can share a new map.  Exact simulated
data are the forward map of the state.
"""

import threading
from functools import lru_cache

import numpy as np

from .measurements import (
    exact_expectation,  # noqa: F401  (module attribute that perfbench/tracing.py wraps)
    expectation_from_record,  # noqa: F401  (likewise)
    born_probabilities,
    code_settings,
    monomial_actions,
    monomial_codes,
    sample_record,
    setting_codes,
)
from .metrics import as_data, as_factor
from .seeding import substream
from .states import PureState

# Complex amplitudes per born_probabilities call in simulate_records: 1024
# rows at n=8, every setting at n <= 6.
_BLOCK_BYTES = 4 << 20
# Float counts per parity_means transform block.
_PARITY_BLOCK_BYTES = 1 << 18
# Largest Kronecker factor of the Walsh-Hadamard transform, in bits.
_FACTOR_BITS = 5


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
        self.n = n
        self.codes = monomial_codes(monomials, n)
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
        self._flips, self._group = np.unique(flips, return_inverse=True)
        self._sign = sign_masks.astype(np.int32)
        self._sigma = (self.scale * _SIGMA)[nys % 4]
        self._tau = (self.scale / 2 * _TAU)[nys % 4]
        # intp, so take and fancy assignment use it without a converted copy.
        j = np.arange(self.d, dtype=np.intp)
        self._src = (j ^ self._flips[:, None]) * self.d + j

    def _buffers(self):
        """This thread's (d, d) matrix and two flat blocks of G x d entries."""
        ws = self._ws
        if ws.mat is None:
            ws.mat = np.empty((self.d, self.d))
            ws.rows, ws.work = np.empty((2, self._src.size))
        return ws.mat, ws.rows, ws.work

    def forward_range(self, u: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Entries lo..hi of A(u u^dagger), with the full-map scale."""
        u = as_factor(u, self.d)
        a, b = u.real, u.imag
        r_mat, rows, work = self._buffers()
        np.matmul(np.hstack((a, b)), np.hstack((a + b, b - a)).T, out=r_mat)
        # w[g, j] = R[j ^ f_g, j], the flip diagonals of R.
        w = np.take(r_mat.reshape(-1), self._src, out=rows.reshape(self._src.shape), mode="clip")
        w = _fwht(w, work)
        return self._sigma[lo:hi] * w[self._sign[lo:hi], self._group[lo:hi]]

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
        groups = len(self._src)
        coeffs = rows.reshape(self.d, groups)
        coeffs.fill(0)
        # add.at sums repeated monomials; fancy assignment would keep one.
        np.add.at(rows, self._sign[lo:hi] * groups + self._group[lo:hi], self._tau[lo:hi] * x)
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


def parity_means(records) -> np.ndarray:
    """(S, 2^n) parity means of S records: entry s of row i, the mean of
    (-1)^popcount(outcome & s), is the integer (so exact) Walsh-Hadamard
    transform of record i's counts, divided once by its shots.  Counts are
    transformed in blocks of _PARITY_BLOCK_BYTES, so the result is the only
    full-size array made."""
    d = records[0].counts.size
    rows = max(1, _PARITY_BLOCK_BYTES // (8 * d))
    means = np.empty((len(records), d))
    work = np.empty(min(rows, len(records)) * d)
    for lo in range(0, len(records), rows):
        counts = np.stack([r.counts for r in records[lo : lo + rows]], dtype=float)
        means[lo : lo + len(counts)] = _fwht(counts, work).T
    means /= np.array([r.shots for r in records])[:, None]
    return means


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
    clamps <P> to [-1, 1], and returns an empty record list.  Sampled mode
    groups monomials by their setting code (measurements.setting_codes,
    identity read as z) and simulates one record per distinct setting
    through simulate_records, all from the one stream
    substream(seed, "shots") (a record is shared by every monomial mapped
    to its setting).  Setting codes sort as axes strings do, so the
    records come back in sorted axes order, the order the stream draws
    them in.  Monomial i reads its record's parity_means at entry
    f_i | s_i, the mask of its non-identity qubits, exactly as
    expectation_from_record would, times the map's scale.
    """
    if state.n != sensing_map.n:
        raise ValueError(f"state has {state.n} qubits, map has {sensing_map.n}")
    s = sensing_map.scale
    if shots is None:
        return np.clip(sensing_map.forward_factored(state.amplitudes), -s, s), []
    codes, record_of = np.unique(setting_codes(sensing_map.codes, sensing_map.n), return_inverse=True)
    records = simulate_records(state, code_settings(codes, sensing_map.n), shots, seed)
    masks = sensing_map._flips[sensing_map._group] | sensing_map._sign
    return s * parity_means(records)[record_of, masks], records


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
