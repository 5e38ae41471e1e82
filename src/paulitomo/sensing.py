"""Matrix-free sensing operator over a set of Pauli monomials.

The map sends a factor U (d x r, representing rho = U U^dagger) to the m
real values s * Tr(P_i U U^dagger), where s = d / sqrt(m) when the map is
normalized and 1 otherwise.  The adjoint sends a coefficient vector x to
s * sum_i x_i P_i Z without ever materializing a d x d matrix.

A monomial acts as a signed index permutation (see
measurements.apply_monomial): (P z)[k] = i^ny (-1)^{popcount((k^f) & s)}
z[k^f], with flip mask f, sign mask s and ny y-factors.  Monomials that
share a flip f differ only in the Walsh-Hadamard character picked by s,
so the map works per flip group:

    Tr(P_i zz*) = i^ny_i WHT(w_f)[s_i],  w_f[j] = sum_c conj(z[j^f, c]) z[j, c]
    A^dagger(x) z = sum_f P_f (WHT(c_f) * z),  c_f[s] = sum_{i: f_i=f, s_i=s} x_i i^ny_i

where WHT is the unnormalized Walsh-Hadamard transform and P_f the index
permutation k -> k^f.  Both directions cost O(G d (log d + r)) for the
G <= min(m, d) distinct flips a call touches.  The cache holds the (G, d)
source indices k^f plus per-monomial group ids, sign masks and phases.
Work on monomial subranges is exposed for the parallel engine; the
full-range call is the serial path, so a one-worker partition reproduces
it exactly.
"""

from dataclasses import dataclass

import numpy as np

from .measurements import (
    exact_expectation,  # noqa: F401  (module attribute that perfbench/tracing.py wraps)
    expectation_from_record,
    monomial_actions,
    sample_record,
    setting_of,
    born_probabilities,
)
from .seeding import substream
from .states import PureState


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


class SensingMap:
    """Ordered Pauli monomials defining A and its adjoint."""

    def __init__(self, n: int, monomials, normalized: bool = True):
        monomials = list(monomials)
        if not monomials:
            raise ValueError("sensing map needs at least one monomial")
        if any(p.n != n for p in monomials):
            raise ValueError("all monomials must cover n qubits")
        self.n = n
        self.monomials = monomials
        self.normalized = normalized
        self._src = None
        self._group = None
        self._sign = None
        self._iphase = None

    @property
    def m(self) -> int:
        return len(self.monomials)

    @property
    def d(self) -> int:
        return 2**self.n

    @property
    def scale(self) -> float:
        return self.d / np.sqrt(self.m) if self.normalized else 1.0

    def _ensure_cache(self):
        if self._src is not None:
            return
        flips, sign_masks, nys = monomial_actions(self.monomials)
        flip_values, self._group = np.unique(flips, return_inverse=True)
        self._sign = sign_masks.astype(np.int32)
        self._iphase = 1j ** (nys % 4)
        # Assigned last: concurrent callers gate on _src being present.
        self._src = (np.arange(self.d) ^ flip_values[:, None]).astype(np.int32)

    def _groups(self, lo: int, hi: int):
        """Source rows of the flip groups that monomials lo..hi touch, and
        each of those monomials' row index into them."""
        group = self._group[lo:hi]
        present = np.bincount(group, minlength=self._src.shape[0]) > 0
        if present.all():
            return self._src, group
        return self._src[present], (np.cumsum(present) - 1)[group]

    def _check_factor(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z)
        if z.ndim == 1:
            z = z[:, None]
        if z.ndim != 2 or z.shape[0] != self.d or z.shape[1] < 1:
            raise ValueError(f"factor must be ({self.d}, r >= 1), got shape {z.shape}")
        return z

    def _traces(self, u: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Unscaled Tr(P_i u u^dagger) for monomials lo..hi."""
        u = self._check_factor(u)
        self._ensure_cache()
        src, row = self._groups(lo, hi)
        w = _fwht(np.einsum("gjc,jc->gj", u[src].conj(), u))
        return (self._iphase[lo:hi] * w[row, self._sign[lo:hi]]).real

    def forward_range(self, u: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Entries lo..hi of A(u u^dagger), with the full-map scale."""
        return self.scale * self._traces(u, lo, hi)

    def forward_factored(self, u: np.ndarray) -> np.ndarray:
        """Observation vector A(u u^dagger): s * Tr(P_i u u^dagger) per entry."""
        return self.forward_range(u, 0, self.m)

    def adjoint_range(self, x: np.ndarray, z: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Partial adjoint product s * sum_{i in [lo,hi)} x_i P_i z."""
        z = self._check_factor(z)
        x = np.asarray(x, dtype=float)
        if x.shape != (hi - lo,):
            raise ValueError(f"coefficient slice has shape {x.shape}, expected ({hi - lo},)")
        self._ensure_cache()
        src, row = self._groups(lo, hi)
        d = self.d
        coeffs = np.zeros(src.shape[0] * d, dtype=complex)
        # add.at sums repeated monomials; fancy assignment would keep one.
        np.add.at(coeffs, row * d + self._sign[lo:hi], self.scale * x * self._iphase[lo:hi])
        v = _fwht(coeffs.reshape(-1, d))
        # Row g of the product is permuted by k -> k ^ f_g, then rows are summed.
        return (v[:, :, None] * z)[np.arange(len(v))[:, None], src].sum(axis=0)

    def adjoint_times(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """A^dagger(x) @ z = s * sum_i x_i P_i z, column-wise and matrix-free."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise ValueError(f"coefficient vector has shape {x.shape}, expected ({self.m},)")
        return self.adjoint_range(x, z, 0, self.m)

    def residual_gradient_range(
        self, y: np.ndarray, z: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Gradient contribution of monomials [lo, hi): A^dagger(A(zz*)-y) z."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.m,):
            raise ValueError(f"observation vector has shape {y.shape}, expected ({self.m},)")
        residual = self.forward_range(z, lo, hi) - y[lo:hi]
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
        self.values = values

    def __len__(self) -> int:
        return self.values.size


def observe_with_records(
    state: PureState,
    sensing_map: SensingMap,
    shots: int | None = None,
    seed: int = 0,
):
    """Simulate the data vector y; returns (ObservationVector, records).

    Exact mode (shots None) evaluates every <psi|P_i|psi> with one pass of
    the map's forward operator, clamped to [-1, 1] as exact_expectation
    does, and returns an empty record list.  Sampled mode groups monomials
    by measurement setting, simulates one record per distinct setting
    (stream id = setting index in first-occurrence order, so records are
    shared by every monomial mapped to that setting), and converts counts
    to expectation values.  The map's normalization is applied either way.
    """
    if state.n != sensing_map.n:
        raise ValueError(f"state has {state.n} qubits, map has {sensing_map.n}")
    records = []
    if shots is None:
        values = np.clip(sensing_map._traces(state.amplitudes, 0, sensing_map.m), -1.0, 1.0)
    else:
        values = np.empty(sensing_map.m)
        setting_index = {}
        for p in sensing_map.monomials:
            setting = setting_of(p)
            if setting not in setting_index:
                probs = born_probabilities(state, setting)
                rng = substream(seed, "shots", len(records))
                setting_index[setting] = len(records)
                records.append(sample_record(setting, probs, shots, rng))
        for i, p in enumerate(sensing_map.monomials):
            record = records[setting_index[setting_of(p)]]
            values[i] = expectation_from_record(record, p).value
    return ObservationVector(sensing_map.scale * values), records


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
    """One measurement record per setting, with per-setting seed streams."""
    records = []
    for idx, setting in enumerate(settings):
        probs = born_probabilities(state, setting)
        rng = substream(seed, "shots", idx)
        records.append(sample_record(setting, probs, shots, rng))
    return records
