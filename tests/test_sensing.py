import hashlib
import tracemalloc

import numpy as np
import pytest

from paulitomo import (
    PauliMonomial,
    RandomCircuitSpec,
    SensingMap,
    density_of,
    ghz,
    hadamard_all,
    observe,
    observe_with_records,
    random_state,
    sample_monomials,
)
from paulitomo.measurements import (
    PauliSetting,
    born_probabilities,
    code_settings,
    exact_expectation,
    expectation_from_distribution,
    expectation_from_record,
    monomial_actions,
    monomial_from_code,
    setting_codes,
    setting_labels,
    setting_of,
)
from paulitomo import optimizer, sensing
from paulitomo.cli import all_settings, build_state, monomial_count
from paulitomo.measurements import sample_codes
from paulitomo.seeding import substream
from paulitomo.sensing import simulate_records
from paulitomo.synthetic import GaussianSensingMap

from conftest import (
    code_labels,
    dense_adjoint,
    dense_basis_vector,
    dense_born,
    dense_forward,
    dense_monomial,
    random_factor,
    reference_records,
)


def full_map(n, normalized=False):
    return SensingMap(n, [monomial_from_code(c, n) for c in range(4**n)], normalized=normalized)


def small_random_map(rng, n, m, normalized=False):
    mono = sample_monomials(n, m, rng)
    return SensingMap(n, mono, normalized=normalized)


# -- forward -----------------------------------------------------------------

def test_forward_identity_entry_unit_factor(rng):
    u = random_factor(rng, 8, 1)
    u /= np.linalg.norm(u)
    smap = SensingMap(3, [PauliMonomial((0, 0, 0))], normalized=False)
    assert smap.forward_factored(u)[0] == pytest.approx(1.0, abs=1e-12)


def test_forward_ghz_xxx_unnormalized():
    u = ghz(3).amplitudes[:, None]
    smap = SensingMap(3, [PauliMonomial((1, 1, 1))], normalized=False)
    assert smap.forward_factored(u)[0] == pytest.approx(1.0, abs=1e-12)


def test_forward_zero_factor(rng):
    smap = small_random_map(rng, 3, 10)
    vals = smap.forward_factored(np.zeros((8, 2), dtype=complex))
    assert np.all(vals == 0)


def test_forward_matches_dense(rng):
    for r in (1, 2):
        u = random_factor(rng, 8, r)
        smap = small_random_map(rng, 3, 20)
        rho = u @ u.conj().T
        assert np.allclose(smap.forward_factored(u), dense_forward(smap.codes, smap.n, rho), atol=1e-10)


def test_forward_normalization_scale(rng):
    mono = sample_monomials(3, 16, rng)
    u = random_factor(rng, 8, 1)
    raw = SensingMap(3, mono, normalized=False).forward_factored(u)
    scaled = SensingMap(3, mono, normalized=True).forward_factored(u)
    assert np.allclose(scaled, (8 / np.sqrt(16)) * raw, atol=1e-12)


# -- adjoint -----------------------------------------------------------------

def test_adjoint_zero_vector(rng):
    smap = small_random_map(rng, 3, 12)
    z = random_factor(rng, 8, 2)
    out = smap.adjoint_times(np.zeros(12), z)
    assert np.all(out == 0)


def test_adjoint_identity_monomial(rng):
    smap = SensingMap(3, [PauliMonomial((0, 0, 0))], normalized=False)
    z = random_factor(rng, 8, 2)
    assert np.allclose(smap.adjoint_times(np.array([1.0]), z), z, atol=1e-12)


def test_adjoint_matches_dense(rng):
    for r in (1, 2):
        smap = small_random_map(rng, 3, 25)
        z = random_factor(rng, 8, r)
        x = rng.standard_normal(25)
        expected = dense_adjoint(smap.codes, smap.n, x) @ z
        assert np.allclose(smap.adjoint_times(x, z), expected, atol=1e-10)


def test_adjointness_identity(rng):
    # <A(uu*), x> == Re <uu*, A^dagger(x)>_F over random instances.
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4**n + 1))
        r = int(rng.integers(1, 3))
        smap = small_random_map(rng, n, m, normalized=bool(rng.integers(2)))
        u = random_factor(rng, 2**n, r)
        x = rng.standard_normal(m)
        lhs = float(np.dot(smap.forward_factored(u), x))
        rho = u @ u.conj().T
        adjoint_mat = dense_adjoint(smap.codes, smap.n, x, scale=smap.scale)
        rhs = float(np.trace(rho.conj().T @ adjoint_mat).real)
        assert lhs == pytest.approx(rhs, abs=1e-8)


# -- residual gradient -------------------------------------------------------

def test_residual_gradient_zero_at_consistent_data(rng):
    smap = small_random_map(rng, 3, 30, normalized=True)
    z = random_factor(rng, 8, 1)
    y = smap.forward_factored(z)
    assert np.allclose(smap.residual_gradient(y, z), 0, atol=1e-12)


def test_residual_gradient_single_identity(rng):
    smap = SensingMap(3, [PauliMonomial((0, 0, 0))], normalized=False)
    z = random_factor(rng, 8, 1)
    z /= np.linalg.norm(z)
    grad = smap.residual_gradient(np.zeros(1), z)
    assert np.allclose(grad, z, atol=1e-12)


def test_residual_gradient_matches_dense_pipeline(rng):
    smap = small_random_map(rng, 3, 20, normalized=True)
    z = random_factor(rng, 8, 2)
    y = rng.standard_normal(20)
    residual = dense_forward(smap.codes, smap.n, z @ z.conj().T, scale=smap.scale) - y
    expected = dense_adjoint(smap.codes, smap.n, residual, scale=smap.scale) @ z
    assert np.allclose(smap.residual_gradient(y, z), expected, atol=1e-10)


def test_range_calls_compose_to_full(rng):
    smap = small_random_map(rng, 3, 17, normalized=True)
    z = random_factor(rng, 8, 2)
    y = rng.standard_normal(17)
    full = smap.residual_gradient(y, z)
    forward = smap.forward_factored(z)
    # Uneven cuts, down to ranges of one entry.
    for cuts in ((0, 6, 12, 17), (0, 1, 2, 9, 17), (0, 16, 17)):
        ranges = list(zip(cuts[:-1], cuts[1:]))
        parts = sum(smap.residual_gradient_range(y, z, lo, hi) for lo, hi in ranges)
        assert np.allclose(full, parts, atol=1e-12)
        # Ranges index positions of the data vector, as forward_factored does.
        pieces = np.concatenate([smap.forward_range(z, lo, hi) for lo, hi in ranges])
        assert np.allclose(pieces, forward, atol=1e-12)


def test_empty_range_contributes_nothing(rng):
    smap = small_random_map(rng, 3, 17, normalized=True)
    z = random_factor(rng, 8, 2)
    y = rng.standard_normal(17)
    for at in (0, 9, 17):
        assert smap.forward_range(z, at, at).shape == (0,)
        assert np.array_equal(smap.residual_gradient_range(y, z, at, at), np.zeros((8, 2)))


# -- flip-group operator against the dense oracle ----------------------------

def assert_matches_dense(smap, rng, r, kind="complex"):
    """Forward, adjoint and residual gradient agree with dense matrices, for
    a real, purely imaginary or general complex factor."""
    z = random_factor(rng, smap.d, r, real=kind != "complex")
    if kind == "imaginary":
        z = 1j * z
    x = rng.standard_normal(smap.m)
    forward = dense_forward(smap.codes, smap.n, z @ z.conj().T, scale=smap.scale)
    assert np.allclose(smap.forward_factored(z), forward, atol=1e-10)
    adjoint = dense_adjoint(smap.codes, smap.n, x, scale=smap.scale)
    assert np.allclose(smap.adjoint_times(x, z), adjoint @ z, atol=1e-10)
    residual_adjoint = dense_adjoint(smap.codes, smap.n, forward - x, scale=smap.scale)
    assert np.allclose(smap.residual_gradient(x, z), residual_adjoint @ z, atol=1e-10)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_full_map_matches_dense(rng, r):
    # Every flip group and every ny mod 4 appears, so every sign of the
    # real-arithmetic tables is checked.
    for kind in ("real", "imaginary", "complex"):
        assert_matches_dense(full_map(3, normalized=True), rng, r, kind)


def test_shared_flip_groups_match_dense(rng):
    # 40 distinct monomials on 4 qubits over only two X/Y flip masks.
    n = 4
    codes = []
    for flip in (0b0000, 0b1011):
        for sign in range(16):
            # Per qubit (flip, sign) bits: (0,0)=I, (1,0)=X, (1,1)=Y, (0,1)=Z.
            codes.append(tuple(
                (0, 3, 1, 2)[2 * ((flip >> (n - 1 - k)) & 1) + ((sign >> (n - 1 - k)) & 1)]
                for k in range(n)
            ))
    chosen = rng.choice(len(codes), size=20, replace=False)
    smap = SensingMap(n, [PauliMonomial(codes[i]) for i in chosen], normalized=True)
    for r in (1, 2):
        assert_matches_dense(smap, rng, r)


def test_single_qubit_map_matches_dense(rng):
    for r in (1, 2):
        assert_matches_dense(full_map(1, normalized=True), rng, r)


def test_repeated_monomial_accumulates(rng):
    mono = sample_monomials(3, 6, rng)
    smap = SensingMap(3, mono + [mono[2], mono[2]], normalized=True)
    assert_matches_dense(smap, rng, 2)


def test_shuffled_order_permutes_outputs(rng):
    mono = sample_monomials(3, 30, rng)
    order = rng.permutation(30)
    smap = SensingMap(3, mono, normalized=True)
    shuffled = SensingMap(3, [mono[i] for i in order], normalized=True)
    z = random_factor(rng, 8, 2)
    x = rng.standard_normal(30)
    assert np.allclose(
        shuffled.forward_factored(z), smap.forward_factored(z)[order], atol=1e-12
    )
    assert np.allclose(shuffled.adjoint_times(x[order], z), smap.adjoint_times(x, z), atol=1e-12)
    assert np.allclose(
        shuffled.residual_gradient(x[order], z), smap.residual_gradient(x, z), atol=1e-12
    )


def test_shuffled_map_matches_dense_and_exact_expectation(rng):
    # A deliberately shuffled list: flip groups interleave in user order.
    n = 4
    mono = [monomial_from_code(int(c), n) for c in rng.permutation(4**n)[:90]]
    smap = SensingMap(n, mono, normalized=True)
    assert np.any(np.diff(smap._group) < 0)
    for r in (1, 2):
        assert_matches_dense(smap, rng, r)
    state = random_state(RandomCircuitSpec(n=n, depth=12, seed=3))
    expected = [smap.scale * exact_expectation(state, p) for p in mono]
    assert np.allclose(observe(state, smap), expected, atol=1e-12)


@pytest.mark.parametrize("n, m", [(6, 40), (8, monomial_count(20, 8))], ids=["G<d", "G=d"])
def test_flip_groups_equal_np_unique(n, m):
    # The presence table gives the sorted distinct flips and each
    # monomial's group as np.unique does, with repeated monomials too.
    codes = sample_codes(n, m, seed=n)
    smap = SensingMap(n, np.concatenate([codes, codes[:5]]))
    flips, group = np.unique(monomial_actions(smap.codes, n)[0], return_inverse=True)
    assert (flips.size < smap.d) == (n == 6)
    assert np.array_equal(smap._flips, flips) and np.array_equal(smap._group, group)


def test_shuffled_map_gradient_equals_sorted_map(rng):
    # The gradient does not depend on the order the monomials were given
    # in, bit for bit: a flip-sorted copy of the map gives the same array,
    # since each (group, sign) cell sums at most two terms.
    n = 5
    mono = sample_monomials(n, 300, rng)
    mono = mono + mono[:7]
    shuffled = SensingMap(n, mono, normalized=True)
    flips, _, _ = monomial_actions(shuffled.codes, n)
    order = np.argsort(flips, kind="stable")
    ordered = SensingMap(n, [mono[i] for i in order], normalized=True)
    z = random_factor(rng, 2**n, 2)
    y = rng.standard_normal(len(mono))
    assert np.array_equal(shuffled.residual_gradient(y, z), ordered.residual_gradient(y[order], z))


# -- kernels -----------------------------------------------------------------

def sylvester_oracle(d):
    """H_d as an explicit matrix, a Kronecker power of [[1, 1], [1, -1]]."""
    h = np.ones((1, 1), dtype=np.int64)
    while len(h) < d:
        h = np.kron(h, [[1, 1], [1, -1]])
    return h


def transform_both_axes(rows):
    """_fwht of rows along axis 1, and of their transpose along axis 0, each
    read back as rows; both must leave the result in the array they got."""
    out = []
    for axis, a in ((1, rows.copy()), (0, np.ascontiguousarray(rows.T))):
        got = sensing._fwht(a, np.empty_like(a), axis=axis)
        assert np.shares_memory(got, a)
        out.append(got.T if axis else got)
    return out


@pytest.mark.parametrize("bits", range(12))
def test_fwht_matches_sylvester_matrix(rng, bits):
    d = 2**bits
    h = sylvester_oracle(d)
    rows = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    expected = rows.real @ h + 1j * (rows.imag @ h)
    for got in transform_both_axes(rows):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    # Integer counts, as parity_means transforms them: exact.
    counts = rng.integers(0, 2049, size=(3, d))
    for got in transform_both_axes(counts.astype(float)):
        assert np.array_equal(got, counts @ h)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_parity_means_of_a_count_table_match_the_distribution_reference(rng, n):
    # Entry s of row i is the mean of the parity on mask s under row i's
    # setting: the monomial with the setting's axis on the qubits of s
    # (qubit k is outcome bit n - 1 - k) and identity elsewhere.  Each row
    # has its own shots; the table is not written.
    d, rows = 2**n, 5
    settings = [PauliSetting("".join(rng.choice(list("xyz"), n))) for _ in range(rows)]
    shots = rng.integers(1, 5000, size=(rows, 1))
    counts = rng.multinomial(shots[:, 0], rng.dirichlet(np.ones(d)))
    floats = counts.astype(float)
    means = sensing.parity_means(counts, shots)
    assert np.array_equal(sensing.parity_means(floats, shots), means)
    assert np.array_equal(floats, counts)
    assert means.shape == (rows, d)
    for i, axes in enumerate(setting_labels(settings, n).tolist()):
        for s in range(d):
            p = PauliMonomial(tuple(a if (s >> (n - 1 - k)) & 1 else 0 for k, a in enumerate(axes)))
            assert means[i, s] == expectation_from_distribution(settings[i], counts[i], p) / shots[i, 0]


@pytest.mark.parametrize("n", range(1, 7))
def test_adjoint_operator_matches_dense(rng, n):
    d = 2**n
    mono = sample_monomials(n, min(3 * d, 4**n), rng)
    smap = SensingMap(n, mono + mono[:3], normalized=True)  # repeated monomials add up
    x = rng.standard_normal(smap.m)
    apply = smap.adjoint_operator(x)
    dense = dense_adjoint(smap.codes, n, x, scale=smap.scale)
    for z in (random_factor(rng, d, 3), 1j * random_factor(rng, d, 3, real=True)):
        expected = dense @ z
        assert np.abs(apply(z) - expected).max() <= 1e-12 * np.abs(expected).max()


def traced_peak(fn) -> int:
    """Bytes of the largest traced allocation total while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_kernels_allocate_no_operator_sized_arrays(rng):
    # n = 8 at measpc 20: G = d = 256 flip groups.  This thread's workspace
    # is one float d x d matrix and two float G x d blocks.  Once it exists,
    # a gradient allocates only length-m and d x r arrays, an operator
    # build only the complex d x d matrix its operator keeps, and an
    # eigensolver apply only its d x 3 result.
    n, d = 8, 256
    smap = SensingMap(n, sample_monomials(n, monomial_count(20, n), 0), normalized=True)
    groups = smap._src.shape[0]
    z = random_factor(rng, d, 1)
    y = rng.standard_normal(smap.m)
    smap.residual_gradient(y, z)
    ws = smap._ws
    assert ws.mat.nbytes + ws.rows.nbytes + ws.work.nbytes == 8 * d * d + 16 * groups * d
    assert traced_peak(lambda: smap.residual_gradient(y, z)) <= 1.5 * groups * d * 8
    assert traced_peak(lambda: smap.adjoint_operator(y)) <= 1.5 * d * d * 16
    apply = smap.adjoint_operator(y)
    block = random_factor(rng, d, 3)
    apply(block)
    assert traced_peak(lambda: apply(block)) <= 64 * 1024


# -- observe -----------------------------------------------------------------

def test_observe_exact_full_map_matches_dense():
    state = ghz(3)
    smap = full_map(3, normalized=False)
    obs = observe(state, smap)
    assert np.allclose(obs, dense_forward(smap.codes, smap.n, density_of(state)), atol=1e-10)


def test_observe_identity_entry_sampled_exact_value(rng):
    state = hadamard_all(2)
    mono = [PauliMonomial((0, 0)), PauliMonomial((1, 1))]
    smap = SensingMap(2, mono, normalized=False)
    obs = observe(state, smap, shots=64, seed=3)
    assert obs[0] == 1.0  # parity-0 identity row is exact


def test_observe_sampled_converges_to_exact(rng):
    state = ghz(3)
    mono = sample_monomials(3, 20, rng)
    smap = SensingMap(3, mono, normalized=False)
    exact = observe(state, smap)
    sampled = observe(state, smap, shots=1_000_000, seed=5)
    assert np.max(np.abs(sampled - exact)) < 0.01


@pytest.mark.parametrize("n, m", [(3, 64), (4, 100)])
def test_observe_sampled_matches_record_reference(rng, n, m):
    # Sampled values come from one transform per record; the per-monomial
    # parity sum expectation_from_record is the reference, bit for bit.
    state = random_state(RandomCircuitSpec(n=n, depth=12, seed=n))
    mono = [monomial_from_code(int(c), n) for c in rng.permutation(4**n)[:m]]
    smap = SensingMap(n, mono, normalized=True)
    obs, records = observe_with_records(state, smap, shots=300, seed=9)
    settings = sorted(set(setting_of(p) for p in mono), key=lambda setting: setting.axes)
    assert [r.setting for r in records] == settings
    by_setting = {r.setting: r for r in records}
    expected = [
        smap.scale * expectation_from_record(by_setting[setting_of(p)], p) for p in mono
    ]
    assert obs.tolist() == expected


def simulation_states(n):
    states = [hadamard_all(n), random_state(RandomCircuitSpec(n=n, depth=12, seed=n))]
    return states + ([ghz(n)] if n > 2 else [])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simulate_records_matches_per_setting_reference(monkeypatch, n):
    # Batched Born rows and multinomial counts on the one "shots" stream
    # equal the one-setting rotation loop with the test's own binomial
    # chain, count for count, at the default blocking and at one setting
    # per block.
    settings = all_settings(n)
    settings = [settings[i] for i in np.random.default_rng(n).permutation(len(settings))]
    for rows in (None, 1):
        if rows:
            monkeypatch.setattr(sensing, "_BLOCK_BYTES", rows * 16 * 2**n)
        for state in simulation_states(n):
            for shots in (1, 7, 2048):
                for seed in (0, 5, 123):
                    records = simulate_records(state, settings, shots, seed=seed)
                    assert [r.setting for r in records] == settings
                    expected = reference_records(state, settings, shots, seed)
                    for record, counts in zip(records, expected):
                        assert np.array_equal(record.counts, counts)


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_simulate_records_block_boundaries(monkeypatch, rows):
    n = 4
    settings = all_settings(n)
    settings = [settings[i] for i in np.random.default_rng(7).permutation(len(settings))]
    settings += settings[:5]  # repeated settings take their own draws, in the order given
    monkeypatch.setattr(sensing, "_BLOCK_BYTES", rows * 16 * 2**n)
    calls = []
    born = sensing.born_probabilities
    monkeypatch.setattr(sensing, "born_probabilities", lambda s, b: calls.append(len(b)) or born(s, b))
    for state in simulation_states(n):
        records = simulate_records(state, settings, 64, seed=3)
        for record, counts in zip(records, reference_records(state, settings, 64, 3)):
            assert np.array_equal(record.counts, counts)
    assert max(calls) == rows and sum(calls) == 3 * len(settings)


def _chi_square_quantile(df: int, z: float) -> float:
    """Wilson-Hilferty approximation to the chi-square quantile at normal score z."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * np.sqrt(c)) ** 3


@pytest.mark.parametrize("n", [3, 4])
def test_simulate_records_counts_fit_born_probabilities(n):
    # Pearson's statistic of every setting's counts against the test's own
    # dense Born probabilities, outcome bins of expected count below 5
    # pooled into one, lies inside the central 1 - 2e-4 of its chi-square
    # law: too large is a biased draw, too small an under-dispersed one.
    # No outcome of probability zero is drawn.
    shots = 4096
    settings = all_settings(n)
    stat, df = 0.0, 0
    for state in (ghz(n), random_state(RandomCircuitSpec(n=n, depth=12, seed=40 + n))):
        for setting, record in zip(settings, simulate_records(state, settings, shots, seed=11)):
            probs = np.array([
                abs(np.vdot(dense_basis_vector(setting.axes, j), state.amplitudes)) ** 2
                for j in range(2**n)
            ])
            assert not record.counts[probs < 1e-14].any()
            expected = shots * probs
            small = (expected < 5) & (probs >= 1e-14)
            observed = np.append(record.counts[expected >= 5], record.counts[small].sum())
            expected = np.append(expected[expected >= 5], expected[small].sum())
            if expected[-1] < 5:  # fold a thin pooled bin into the smallest kept one
                smallest = np.argmin(expected[:-1])
                observed[smallest] += observed[-1]
                expected[smallest] += expected[-1]
                observed, expected = observed[:-1], expected[:-1]
            stat += float(np.sum((observed - expected) ** 2 / expected))
            df += expected.size - 1
    assert df > 100
    assert _chi_square_quantile(df, -3.719) < stat < _chi_square_quantile(df, 3.719), (stat, df)


def test_sampled_data_pinned_digest():
    # Seeded counts and sampled observations of the fidelity-table setting
    # at n=8, pinned as SHA-256 digests.  The Born probabilities behind the
    # counts carry rounding, and a binomial draw can turn on the last bit
    # of its probability, so a kernel that reorders their arithmetic could
    # move a count.  The pattern laws' transforms are float GEMMs, whose
    # last bits can depend on the BLAS thread count: at n=10 (random(10),
    # measpc 5, seed 1) y differs between OPENBLAS_NUM_THREADS=1 and 2.
    # These pins hold at both; CI also runs this test on one BLAS thread.
    # The pins were made with numpy 2.4.6; numpy does not promise the same
    # Generator draws across releases, and they are unverified on the CI's
    # numpy 1.24 leg.  Counts are stacked in sorted setting order, whatever
    # order the records come back in.
    state = build_state("random", 8, seed=3)
    smap = SensingMap(8, sample_codes(8, monomial_count(20, 8), substream(3, "monomials")))
    obs, records = observe_with_records(state, smap, shots=2048, seed=3)
    counts = np.stack([r.counts for r in sorted(records, key=lambda r: r.setting.axes)]).astype("<i8")
    assert len(records) == 4659
    assert hashlib.sha256(counts.tobytes()).hexdigest() == (
        "d934eb9145723d4a7b7128f60be0b02d8aab1f0b1699b5a60900430f74fd7880"
    )
    assert hashlib.sha256(obs.astype("<f8").tobytes()).hexdigest() == (
        "7e0c2edaa46f8c2d5742f0a6b5810f90bd104d7dda0e64658bd85f3c291f7126"
    )


def test_sampled_observe_allocates_no_per_qubit_arrays():
    # The codec reads masks from code bits, and every pattern law reads one
    # Pauli spectrum of the state, a (d, d) table built once: the observe's
    # traced peak is 3.4 MB at n = 8, measpc 20 and 38.4 MB at n = 10,
    # measpc 5 (3.9 and 49.8 MB with one law map per rank group).  The
    # codec allocates less than one (m, n) int64 array.
    for n, measpc, bound in ((8, 20, 6e6), (10, 5, 44e6)):
        state = build_state("random", n, seed=5)
        smap = SensingMap(n, sample_codes(n, monomial_count(measpc, n), substream(5, "monomials")))
        assert traced_peak(lambda: observe_with_records(state, smap, shots=2048, seed=5)) <= bound
        for codec in (monomial_actions, setting_codes):
            assert traced_peak(lambda: codec(smap.codes, n)) < smap.m * n * 8


def test_sampled_observe_builds_one_map_besides_the_callers(monkeypatch):
    # The pattern laws of every rank group come from one spectrum map, not
    # from one map per rank group (8 at this setting).
    n = 8
    state = build_state("random", n, seed=5)
    smap = SensingMap(n, sample_codes(n, monomial_count(20, n), substream(5, "monomials")))
    ensure_cache = SensingMap._ensure_cache
    built = []
    monkeypatch.setattr(SensingMap, "_ensure_cache", lambda self: built.append(self) or ensure_cache(self))
    observe_with_records(state, smap, shots=2048, seed=5)
    assert len(built) == 1 and built[0] is not smap


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_spectrum_reads_every_expectation(n):
    # Entry (s, f) of the spectrum, times sigma of ny = popcount(f & s), is
    # <P> of the monomial with flip f and sign mask s: per qubit, flip and
    # sign bits (1, 0) are x, (1, 1) y, (0, 1) z.
    d = 2**n
    for state in simulation_states(n):
        spectrum = sensing._pauli_spectrum(state)
        assert spectrum.shape == (d, d)
        for f in range(d):
            for s in range(d):
                bits = [(f >> (n - 1 - k) & 1, s >> (n - 1 - k) & 1) for k in range(n)]
                p = PauliMonomial([{(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}[b] for b in bits])
                sign = sensing._SIGMA[bin(f & s).count("1") % 4]
                assert abs(sign * spectrum[s, f] - exact_expectation(state, p)) <= 1e-12, (f, s)


# -- sampled observe: parity-pattern laws and records completed on read -------

def _gf2_rank(masks) -> int:
    pivots = {}
    for v in masks:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def _law_map(n):
    # Sampled monomials, GHZ's z-parities Z_i Z_j (dependent for n >= 3)
    # and the single Z_i that make z...z of full rank, repeats of some codes
    # and the all-identity code.
    sampled = sample_codes(n, min(4**n, 40), substream(n, "monomials"))
    z = [3 * 4 ** (n - 1 - i) for i in range(n)]
    zz = [z[i] + z[j] for i in range(n) for j in range(i + 1, n)]
    return SensingMap(n, np.concatenate([sampled, zz, z, sampled[:5], [0]]).astype(np.int64), normalized=False)


def _patterns(basis_row, d: int) -> np.ndarray:
    """Pattern of each outcome: bit k is its parity with basis mask k."""
    return np.array([sum((bin(j & int(b)).count("1") & 1) << k for k, b in enumerate(basis_row)) for j in range(d)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pattern_law_equals_dense_born_marginal(n):
    # Each setting's basis spans its distinct masks with every monomial's
    # coordinates, and the law from one forward map equals the marginal of
    # the test's dense Born probabilities on the basis parities.
    smap = _law_map(n)
    codes, setting, mask, basis, rank, coord = sensing._parity_bases(smap)
    assert codes.tolist() == sorted(set(setting_codes(smap.codes, n).tolist()))
    for i in range(smap.m):
        assert mask[i] == np.bitwise_xor.reduce([basis[setting[i], k] for k in range(n) if coord[i] >> k & 1] + [0])
    for s in range(codes.size):
        assert rank[s] == _gf2_rank(set(mask[setting == s].tolist()))
    assert rank.max() == n
    axes = [p.axes for p in code_settings(codes, n)]
    groups = [np.flatnonzero(rank == r) for r in range(n + 1)]
    groups = [sel for sel in groups if sel.size]
    for state in simulation_states(n):
        laws = sensing._pattern_laws(state, [(codes[sel], basis[sel, : rank[sel[0]]]) for sel in groups])
        for sel, law in zip(groups, laws):
            for s, row in zip(sel, law):
                born = dense_born(state.amplitudes, axes[s])
                marginal = np.bincount(_patterns(basis[s, : rank[s]], 2**n), born, minlength=2 ** rank[s])
                assert np.max(np.abs(row - marginal)) <= 1e-12, (axes[s], row, marginal)


def _pearson(observed, probs, shots):
    """Pearson's statistic and its degrees of freedom, bins of expected count
    below 5 pooled into one and a thin pooled bin folded into the smallest
    kept one; asserts that no bin of probability below 1e-14 was drawn."""
    assert not observed[probs < 1e-14].any()
    expected = shots * probs
    small = (expected < 5) & (probs >= 1e-14)
    observed = np.append(observed[expected >= 5], observed[small].sum())
    expected = np.append(expected[expected >= 5], expected[small].sum())
    if expected[-1] < 5:
        smallest = np.argmin(expected[:-1])
        observed[smallest] += observed[-1]
        expected[smallest] += expected[-1]
        observed, expected = observed[:-1], expected[:-1]
    return float(np.sum((observed - expected) ** 2 / expected)), expected.size - 1


def _assert_chi_square(stat, df):
    # Inside the central 1 - 2e-4 of the chi-square law: too large is a
    # biased draw, too small an under-dispersed one.
    assert df > 100
    assert _chi_square_quantile(df, -3.719) < stat < _chi_square_quantile(df, 3.719), (stat, df)


def _every_parity_observe(n, state, shots, seed):
    smap = full_map(n)
    return smap, observe_with_records(state, smap, shots=shots, seed=seed)[1]


@pytest.mark.parametrize("n", [3, 4])
def test_pattern_counts_fit_their_law(n):
    # Every setting of the full monomial set draws from its pattern law; the
    # pattern counts are the class sums of the completed counts.
    shots, stat, df = 4096, 0.0, 0
    for state in (ghz(n), random_state(RandomCircuitSpec(n=n, depth=12, seed=50 + n))):
        smap, records = _every_parity_observe(n, state, shots, seed=13)
        codes, _, _, basis, rank, _ = sensing._parity_bases(smap)
        for s, record in enumerate(records):
            law = sensing._pattern_laws(state, [(codes[s : s + 1], basis[s : s + 1, : rank[s]])])[0][0]
            patterns = np.bincount(_patterns(basis[s, : rank[s]], 2**n), record.counts, minlength=law.size)
            part = _pearson(patterns, law, shots)
            stat, df = stat + part[0], df + part[1]
    _assert_chi_square(stat, df)


@pytest.mark.parametrize("n", [3, 4])
def test_completed_counts_fit_born_probabilities(n):
    # Counts completed given the pattern counts follow the full multinomial
    # law of the test's dense Born probabilities.
    shots, stat, df = 4096, 0.0, 0
    for state in (ghz(n), random_state(RandomCircuitSpec(n=n, depth=12, seed=40 + n))):
        _, records = _every_parity_observe(n, state, shots, seed=11)
        for record in records:
            part = _pearson(record.counts, dense_born(state.amplitudes, record.setting.axes), shots)
            stat, df = stat + part[0], df + part[1]
    _assert_chi_square(stat, df)


def test_completed_records_reproduce_observations():
    # s * expectation_from_record on each setting's completed record is y,
    # bit for bit; records come one per setting, sorted.
    n = 5
    state = random_state(RandomCircuitSpec(n=n, depth=12, seed=8))
    mono = sample_monomials(n, monomial_count(60, n), 4)
    smap = SensingMap(n, mono, normalized=True)
    y, records = observe_with_records(state, smap, shots=300, seed=2)
    assert [r.setting.axes for r in records] == sorted({setting_of(p).axes for p in mono})
    by_setting = {r.setting: r for r in records}
    assert [smap.scale * expectation_from_record(by_setting[setting_of(p)], p) for p in mono] == y.tolist()


def test_identity_only_setting_reads_every_shot():
    # A setting whose only monomial is the identity has rank 0: its one
    # pattern takes every shot, and its completed counts follow Born.
    state = hadamard_all(2)
    smap = SensingMap(2, [0, 0, 5], normalized=False)  # II twice, XX
    y, records = observe_with_records(state, smap, shots=64, seed=3)
    assert y.tolist() == [1.0, 1.0, 1.0]
    assert [r.setting.axes for r in records] == ["xx", "zz"]
    assert records[0].counts.tolist() == [64, 0, 0, 0] and records[1].counts.sum() == 64


def test_records_are_completed_only_when_read(monkeypatch):
    # y does not depend on whether records are read; reading completes them
    # once, and a second observe of the same seed completes the same counts.
    state = random_state(RandomCircuitSpec(n=6, depth=12, seed=3))
    smap = small_random_map(np.random.default_rng(5), 6, 600)
    complete = sensing._complete_records
    calls = []
    monkeypatch.setattr(sensing, "_complete_records", lambda *a: calls.append(1) or complete(*a))
    unread, _ = observe_with_records(state, smap, shots=512, seed=4)
    y, records = observe_with_records(state, smap, shots=512, seed=4)
    assert not calls
    first = [r.counts for r in records]
    assert len(calls) == 1 and len(records) == len(first)
    assert all(a is r.counts for a, r in zip(first, records)) and len(calls) == 1
    again = observe_with_records(state, smap, shots=512, seed=4)[1]
    assert all(np.array_equal(a, b.counts) for a, b in zip(first, again))
    assert np.array_equal(unread, y)


def test_class_order_lists_each_pattern_class():
    # Every setting's row is a permutation of its outcomes, and entries
    # v 2^(n-r) to (v + 1) 2^(n-r) are the outcomes of pattern v.
    for n in range(1, 7):
        _, _, _, basis, rank, _ = sensing._parity_bases(_law_map(n))
        for r in range(n + 1):
            sel = np.flatnonzero(rank == r)
            if not sel.size:
                continue
            order = sensing._class_order(basis[sel, :r], n)
            assert order.shape == (sel.size, 2**n)
            for s, row in zip(sel, order):
                assert sorted(row.tolist()) == list(range(2**n))
                assert _patterns(basis[s, :r], 2**n)[row].tolist() == np.repeat(np.arange(2**r), 2 ** (n - r)).tolist()


class _RecordingGenerator(np.random.Generator):
    """Generator that keeps the probabilities of each multinomial call."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.pvals = []

    def multinomial(self, n, pvals, size=None):
        self.pvals.append(np.array(pvals))
        return super().multinomial(n, pvals, size)


def test_ghz_draws_no_outcome_of_probability_zero(monkeypatch):
    # GHZ laws come from transforms whose exact zeros read up to 1e-16: they
    # are drawn as 0, and every row handed to numpy, which gives its last
    # bin the roundoff remainder, ends in a nonzero bin.  No pattern of
    # zero Born mass and no outcome of zero Born probability is counted.
    generators = []
    monkeypatch.setattr(sensing, "substream", lambda *a: generators.append(_RecordingGenerator(len(generators))) or generators[-1])
    for n in (3, 6, 8):
        smap = _law_map(n)
        _, _, _, basis, rank, _ = sensing._parity_bases(smap)
        records = observe_with_records(ghz(n), smap, shots=4096, seed=0)[1]
        for s, record in enumerate(records):
            born = born_probabilities(ghz(n), record.setting)
            assert not record.counts[born == 0].any()
            marginal = np.bincount(_patterns(basis[s, : rank[s]], 2**n), born, minlength=2 ** rank[s])
            patterns = np.bincount(_patterns(basis[s, : rank[s]], 2**n), record.counts, minlength=2 ** rank[s])
            assert not patterns[marginal == 0].any()
    pvals = [p.reshape(-1, p.shape[-1]) for g in generators for p in g.pvals]
    assert len(pvals) > 6 and any((p == 0).any() for p in pvals)
    for p in pvals:
        assert (p[:, -1] > 0).all() and not ((p > 0) & (p < 1e-14)).any()


def test_observe_dimension_mismatch(rng):
    smap = small_random_map(rng, 3, 5)
    with pytest.raises(ValueError):
        observe(hadamard_all(2), smap)


# -- empirical near-isometry sanity ------------------------------------------

def test_near_isometry_band_on_rank1(rng):
    # With m = d^2/2 sampled monomials and the d/sqrt(m) scale, the exact
    # Parseval identity gives E ||A(X)||^2 = d ||X||_F^2; check the sampled
    # operator stays within +-50% of that level on random rank-1 inputs.
    n = 3
    d = 2**n
    m = d * d // 2
    smap = SensingMap(n, sample_monomials(n, m, 123), normalized=True)
    ratios = []
    for _ in range(50):
        u = random_factor(rng, d, 1)
        u /= np.linalg.norm(u)  # unit Frobenius norm rank-1 X = uu*
        ratios.append(np.linalg.norm(smap.forward_factored(u)) ** 2 / d)
    ratios = np.array(ratios)
    assert np.all(ratios >= 0.5) and np.all(ratios <= 1.5)


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("copies", [1, 2])
def test_gain_complete_set_dense(normalized, copies):
    # Paulis / sqrt(d) are an orthonormal basis, so for the complete set
    # (taken `copies` times) A^dagger A = s^2 m / d I exactly: d normalized,
    # m / d unnormalized.
    n, d = 3, 8
    codes = np.tile(np.arange(4**n), copies)
    smap = SensingMap(n, codes, normalized=normalized)
    assert smap.gain == pytest.approx(d if normalized else codes.size / d, rel=1e-12)
    rows = np.array([smap.scale * dense_monomial(code_labels(c, n)).T.ravel() for c in codes])
    assert np.allclose(rows.conj().T @ rows, smap.gain * np.eye(d * d), rtol=0, atol=1e-10)


@pytest.mark.parametrize("shots", [None, 64], ids=["exact", "sampled"])
def test_observe_returns_float_vector(shots):
    state, smap = ghz(3), SensingMap(3, sample_monomials(3, 20, 2), normalized=True)
    y, _ = observe_with_records(state, smap, shots=shots, seed=1)
    assert type(y) is np.ndarray and y.dtype == np.float64 and y.shape == (20,)
    assert np.array_equal(observe(state, smap, shots=shots, seed=1), y)


def test_map_validation():
    with pytest.raises(ValueError):
        SensingMap(3, [])
    with pytest.raises(ValueError):
        SensingMap(3, [PauliMonomial((1, 2))])
    for codes in (np.array([64]), np.array([-1]), np.array([1.0]), np.zeros((2, 2), dtype=int)):
        with pytest.raises(ValueError):
            SensingMap(3, codes)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            SensingMap(n, np.array([0]))


def test_map_keeps_base4_codes():
    # Qubit 0 is the most significant digit: "XZ" is 1 * 4 + 3.
    assert SensingMap(2, [PauliMonomial.from_string("XZ")]).codes.tolist() == [7]
    mono = [monomial_from_code(c, 2) for c in (5, 0, 15, 5)]
    codes = SensingMap(2, mono).codes
    assert codes.dtype == np.int64 and codes.tolist() == [5, 0, 15, 5]
    assert np.array_equal(SensingMap(2, [5, 0, 15, 5]).codes, codes)


def test_adjoint_range_rejects_wrong_slice_length():
    smap = SensingMap(2, np.arange(16))
    with pytest.raises(ValueError, match=r"vector has shape \(2,\), expected \(3,\)"):
        smap.adjoint_range(np.ones(2), np.ones((4, 1)), 0, 3)


@pytest.mark.parametrize("length", [1, 19, 21, 40])
def test_wrong_length_data_is_refused(rng, length):
    # Neither map truncates or broadcasts a data vector of another length.
    n, m = 3, 20
    smap = small_random_map(rng, n, m, normalized=True)
    gmap = GaussianSensingMap(8, rng.standard_normal((m, 36)))
    y = rng.standard_normal(length)
    z = random_factor(rng, 8, 1)
    message = rf"vector has shape \({length},\), expected \({m},\)"
    config = optimizer.OptimizerConfig(eta=0.05, init="random", maxiters=5)
    for sensing_map in (smap, gmap):
        with pytest.raises(ValueError, match=message):
            sensing_map.residual_gradient(y, z)
        with pytest.raises(ValueError, match=message):
            sensing_map.residual_gradient_range(y, z, 0, 1)
        with pytest.raises(ValueError, match=message):
            sensing_map.adjoint_operator(y)
        with pytest.raises(ValueError, match=message):
            optimizer.run(sensing_map, y, config)
