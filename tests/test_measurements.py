import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulitomo import (
    PauliMonomial,
    PauliSetting,
    MeasurementRecord,
    apply_monomial,
    born_probabilities,
    density_of,
    exact_expectation,
    expectation_from_distribution,
    expectation_from_record,
    ghz,
    hadamard_all,
    random_state,
    RandomCircuitSpec,
    sample_monomials,
    sample_record,
    setting_of,
)
from paulitomo.measurements import (
    _codes,
    _labels,
    _letters,
    _text_labels,
    code_settings,
    monomial_actions,
    monomial_codes,
    monomial_from_code,
    sample_codes,
    setting_codes,
    setting_labels,
)

from conftest import (
    dense_basis_vector,
    dense_monomial,
    monomial_action,
    random_pure_state_vector,
    reference_counts,
)


def all_monomials(n):
    return [monomial_from_code(code, n) for code in range(4**n)]


# -- monomial sampling -------------------------------------------------------

def test_sample_monomials_exhaustive():
    mono = sample_monomials(3, 64, seed=0)
    assert len(mono) == 64
    assert len({p.labels for p in mono}) == 64


def test_sample_monomials_deterministic():
    a = sample_monomials(4, 40, seed=7)
    b = sample_monomials(4, 40, seed=7)
    assert [p.labels for p in a] == [p.labels for p in b]


def test_sample_monomials_distinct():
    for seed in range(4):
        mono = sample_monomials(2, 5, seed=seed)
        assert len(mono) == 5
        assert len({p.labels for p in mono}) == 5
        assert all(p.n == 2 for p in mono)


@pytest.mark.parametrize(
    "n, m, seed, expected",
    [
        # m >= 4^n / 2: the permutation branch.
        (2, 10, 3, [11, 15, 9, 1, 12, 2, 14, 10, 0, 4]),
        # m < 4^n / 2: the rejection branch, in one batch of draws and in three.
        (3, 12, 7, [60, 40, 43, 57, 37, 49, 53, 14, 3, 19, 18, 55]),
        (2, 7, 45, [14, 9, 11, 8, 12, 6, 4]),
        (8, 12, 5, [43960, 52756, 1484, 52949, 30726, 33772, 41303, 18730, 64194, 3534, 18214, 25124]),
    ],
)
def test_sample_codes_pinned_draws(n, m, seed, expected):
    # Literal draws, so a change to the sampler that changes every seeded
    # data set fails here rather than passing as "still deterministic".
    codes = sample_codes(n, m, seed)
    assert codes.dtype == np.int64
    assert codes.tolist() == expected
    assert sample_monomials(n, m, seed) == [monomial_from_code(c, n) for c in expected]


def test_sample_codes_pinned_long_rejection_batch():
    # The largest rejection draw at n=8: 65534 draws, about a third of them
    # repeats, cut at m.  (The expected number of distinct codes in 2m draws
    # exceeds m for every m < 4^n / 2, so at n=8 the first batch always
    # suffices; the n=2 case above covers later batches.)  Pinned by the
    # sampler's output before it was vectorized.
    codes = sample_codes(8, 32767, 2)
    assert codes.tolist()[:6] == [54891, 17145, 7163, 19561, 27119, 53361]
    assert codes.tolist()[-3:] == [2432, 62842, 5931]
    digest = hashlib.sha256(codes.astype("<i8").tobytes()).hexdigest()
    assert digest == "ff198d28f4090bcdf554b82e4d0183a7cf6c6260f28065fd9fda036b318c2502"


def test_sample_monomials_bounds():
    with pytest.raises(ValueError):
        sample_monomials(2, 17, seed=0)
    with pytest.raises(ValueError):
        sample_monomials(2, 0, seed=0)


# -- settings ----------------------------------------------------------------

def test_setting_of_examples():
    assert setting_of(PauliMonomial((0, 1, 1))).axes == "zxx"
    assert setting_of(PauliMonomial((0, 0, 0, 0))).axes == "zzzz"
    assert setting_of(PauliMonomial((2, 3))).axes == "yz"


def test_monomial_string_round_trip():
    p = PauliMonomial.from_string("IXYZ")
    assert p.labels == (0, 1, 2, 3)
    assert str(p) == "IXYZ"
    assert PauliMonomial.from_string("ixyZ") == p
    with pytest.raises(ValueError, match="must be over IXYZ"):
        PauliMonomial.from_string("IXQ")
    with pytest.raises(ValueError, match="must be over IXYZ"):
        PauliMonomial.from_string("")
    with pytest.raises(ValueError, match="labels must be in"):
        PauliMonomial((0, 4))


# -- the code <-> labels <-> object <-> string codec ---------------------------

def codec_codes(n):
    """Every code for n <= 4; else both ends of [0, 4^n) and a seeded sample
    between them."""
    if n <= 4:
        return np.arange(4**n)
    return np.concatenate([[0, 4**n - 1], sample_codes(n, 200, seed=n)])


@pytest.mark.parametrize("n", [*range(1, 13), 16, 30])
def test_codec_round_trips(n):
    codes = codec_codes(n)
    assert np.array_equal(_codes(_labels(codes, n)), codes)
    texts = _letters(_labels(codes, n))
    assert all(len(t) == n and set(t) <= set("IXYZ") for t in texts)
    assert np.array_equal(_codes(_text_labels(texts, n)), codes)
    assert np.array_equal(_codes(_text_labels([t.lower() for t in texts], n)), codes)
    monomials = [monomial_from_code(c, n) for c in codes]
    assert np.array_equal(monomial_codes(monomials, n), codes)
    assert [str(p) for p in monomials] == texts
    assert [PauliMonomial.from_string(t).code for t in texts] == codes.tolist()
    # Strings, settings and label-built monomials agree with references
    # spelled from the test's own tables.
    rows = [[(c >> 2 * (n - 1 - k)) & 3 for k in range(n)] for c in codes.tolist()]
    assert texts == ["".join("IXYZ"[l] for l in row) for row in rows]
    settings = code_settings(codes, n)
    assert [s.axes for s in settings] == ["".join("zxyz"[l] for l in row) for row in rows]
    assert setting_labels(settings, n).tolist() == [[l or 3 for l in row] for row in rows]
    by_labels = [PauliMonomial(tuple(row)) for row in rows]
    assert by_labels == monomials and [p.code for p in by_labels] == codes.tolist()
    mixed = [(by_labels if i % 3 else monomials)[i] for i in range(len(codes))]
    assert np.array_equal(monomial_codes(mixed, n), codes)


@pytest.mark.parametrize("n", [*range(1, 13), 16, 31])
def test_setting_codes_read_identity_as_z_and_sort_as_axes(n):
    # The setting code is the monomial's digits with each 0 read as 3, the
    # code of the setting code_settings spells, and the codes' numeric
    # order is the axes strings' order.
    codes = codec_codes(n)
    rows = [[(c >> 2 * (n - 1 - k)) & 3 for k in range(n)] for c in codes.tolist()]
    expected = [sum((l or 3) << 2 * (n - 1 - k) for k, l in enumerate(row)) for row in rows]
    got = setting_codes(codes, n)
    assert got.dtype == np.int64 and got.tolist() == expected
    settings = code_settings(codes, n)
    assert _codes(setting_labels(settings, n)).tolist() == expected
    by_axes = sorted(range(len(codes)), key=lambda i: (settings[i].axes, i))
    assert np.argsort(got, kind="stable").tolist() == by_axes


def test_codec_reaches_past_int32():
    n = 16
    assert monomial_from_code(4**n - 1, n).labels == (3,) * n
    assert PauliMonomial.from_string("Z" * n).code == 4**n - 1 > 2**31
    assert _letters(_labels([2**31 + 5], n)) == ["YIIIIIIIIIIIIIXX"]


@pytest.mark.parametrize("n", [1, 3, 7])
def test_objects_from_codes_equal_validated_ones(n):
    decoded = sample_monomials(n, min(4**n, 60), seed=n)
    validated = [PauliMonomial(tuple(p.labels)) for p in decoded]
    assert decoded == validated
    assert [hash(p) for p in decoded] == [hash(p) for p in validated]
    assert [repr(p) for p in decoded] == [repr(p) for p in validated]
    assert [p.code for p in decoded] == [p.code for p in validated]
    assert all(type(l) is int for p in decoded for l in p.labels)
    unpickled = pickle.loads(pickle.dumps(decoded))
    assert unpickled == decoded and [p.code for p in unpickled] == [p.code for p in decoded]


def test_monomial_codes_mixes_carried_and_computed_codes():
    codes = sample_codes(5, 40, seed=1)
    monomials = [monomial_from_code(c, 5) for c in codes]
    monomials[3::7] = [PauliMonomial(tuple(p.labels)) for p in monomials[3::7]]
    assert np.array_equal(monomial_codes(monomials, 5), codes)


def test_text_labels_refuses_bad_strings():
    assert _text_labels(["IXY", "ZZZ"], 3).tolist() == [[0, 1, 2], [3, 3, 3]]
    for bad in (["IXY", "ZZ"], ["IXY", "IXQ"], ["IXY", "IXÉ"], ["IXY", "IX?"], ["ıXY"]):
        assert _text_labels(bad, 3) is None


def test_codes_refuse_out_of_range_codes_and_qubit_counts():
    for code in (-1, 4**3):
        with pytest.raises(ValueError, match="must lie in"):
            monomial_from_code(code, 3)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        monomial_from_code(0, 0)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        sample_monomials(0, 1, seed=0)


# -- Born probabilities ------------------------------------------------------

def born_oracle(state, setting):
    """|<v_l|psi>|^2 from dense projector basis vectors."""
    d = 2**state.n
    return np.array(
        [
            abs(np.vdot(dense_basis_vector(setting.axes, out), state.amplitudes)) ** 2
            for out in range(d)
        ]
    )


def test_born_ghz_zzz():
    probs = born_probabilities(ghz(3), PauliSetting("zzz"))
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    assert np.allclose(probs, expected, atol=1e-12)
    assert np.allclose(probs, born_oracle(ghz(3), PauliSetting("zzz")), atol=1e-10)


def test_born_hadamard_xxx():
    probs = born_probabilities(hadamard_all(3), PauliSetting("xxx"))
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(probs, expected, atol=1e-12)


def test_born_matches_dense_oracle_random_settings(rng):
    state = random_state(RandomCircuitSpec(n=3, depth=15, seed=3))
    for axes in ("xyz", "yyx", "zxy", "xxx", "zzz", "yyy"):
        setting = PauliSetting(axes)
        assert np.allclose(
            born_probabilities(state, setting), born_oracle(state, setting), atol=1e-10
        )


def test_born_sums_to_one():
    state = random_state(RandomCircuitSpec(n=4, depth=25, seed=11))
    for axes in ("xyzx", "yxzy", "zzzz"):
        probs = born_probabilities(state, PauliSetting(axes))
        assert probs.min() >= 0
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_born_dimension_mismatch():
    with pytest.raises(ValueError):
        born_probabilities(ghz(3), PauliSetting("zz"))


def test_born_batch_rows_equal_single_calls():
    # Prefix-shared rows are bit-identical to rotating each setting alone,
    # repeated settings included.
    for state in (ghz(4), hadamard_all(4), random_state(RandomCircuitSpec(n=4, depth=20, seed=5))):
        settings = [
            PauliSetting("".join(axes))
            for axes in ("xyzx", "xyzy", "zzzz", "yxxz", "xyzx", "yyyy", "zxyz", "xxxx")
        ]
        batch = born_probabilities(state, settings)
        assert batch.shape == (len(settings), 16)
        for row, setting in zip(batch, settings):
            single = born_probabilities(state, setting)
            assert single.shape == (16,)
            assert np.array_equal(row, single)


def test_born_batch_dimension_mismatch():
    with pytest.raises(ValueError):
        born_probabilities(ghz(3), [PauliSetting("zzz"), PauliSetting("zz")])


# -- shot sampling -----------------------------------------------------------

def test_sample_record_degenerate():
    setting = PauliSetting("zz")
    probs = np.array([0.0, 0.0, 1.0, 0.0])
    record = sample_record(setting, probs, shots=50, seed=4)
    assert record.counts.tolist() == [0, 0, 50, 0]


def test_sample_record_support():
    probs = born_probabilities(ghz(3), PauliSetting("zzz"))
    record = sample_record(PauliSetting("zzz"), probs, shots=2048, seed=0)
    assert set(np.flatnonzero(record.counts)) <= {0b000, 0b111}
    assert record.counts.sum() == 2048


def test_sample_record_deterministic():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    a = sample_record(PauliSetting("xy"), probs, shots=500, seed=9)
    b = sample_record(PauliSetting("xy"), probs, shots=500, seed=9)
    assert np.array_equal(a.counts, b.counts)


def test_sample_record_invalid_distribution():
    with pytest.raises(ValueError):
        sample_record(PauliSetting("z"), np.array([0.7, 0.6]), shots=10, seed=0)


class RecordingGenerator(np.random.Generator):
    """Generator that keeps the arguments of each multinomial call."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = []

    def multinomial(self, n, pvals, size=None):
        self.calls.append((n, np.array(pvals)))
        return super().multinomial(n, pvals, size)


@pytest.mark.parametrize(
    "probs",
    [
        np.array([0.0, 0.3, 0.0, 0.0, 0.45, 0.25, 0.0, 0.0]),  # exact zero bins
        np.array([0.0, 0.0, 0.0, 1.0]),  # point mass on the last bin
        np.array([0.152, 0.452, 0.187, 0.209]),  # cumulative sum 1 - 2^-53
        np.random.default_rng(8).dirichlet(np.full(256, 0.3)),  # n=8, many tiny bins
    ],
)
def test_sample_record_matches_binomial_chain(probs):
    # Counts equal the test's own conditional-binomial chain, count for
    # count, and leave the generator where the chain leaves it.
    setting = PauliSetting("z" * (probs.size.bit_length() - 1))
    for seed in range(120):
        for shots in (1, 33, 2048):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            record = sample_record(setting, probs, shots, rng)
            assert np.array_equal(record.counts, reference_counts(probs, shots, oracle))
            assert record.counts.dtype == np.int64
            assert rng.random() == oracle.random()


@pytest.mark.parametrize(
    "probs",
    [
        np.array([0.152, 0.452, 0.187, 0.209]),  # cumulative sum 1 - 2^-53
        np.array([0.5, 0.5 - 5e-9]),  # a deficit inside the 1e-8 sum tolerance
        np.array([0.1] * 10 + [0.0] * 6),  # sum 1 - 2^-53, then a zero tail
        np.array([0.0, 0.3, 0.0, 0.0, 0.45, 0.25, 0.0, 0.0]),
    ],
)
def test_sample_record_last_nonzero_bin_takes_remainder(probs):
    # The draw sees the distribution up to its last bin of nonzero
    # probability, summing to 1 within rounding, so that bin is the one
    # numpy's multinomial gives the shots left after the others.
    last = np.flatnonzero(probs)[-1]
    for seed in range(20):
        rng = RecordingGenerator(seed)
        record = sample_record(PauliSetting("z" * (probs.size.bit_length() - 1)), probs, 64, rng)
        [(shots, pvals)] = rng.calls
        assert shots == 64 and pvals.size == last + 1
        assert abs(pvals.sum() - 1.0) <= 4e-16
        assert np.allclose(pvals, probs[: last + 1] / probs[: last + 1].sum(), rtol=1e-15, atol=0)
        assert not record.counts[last + 1 :].any()


def test_sample_record_roundoff_skips_zero_probability_tail():
    # Ten weights of 0.1 sum to 1 - 2^-53, and roundoff may leave a tail
    # slightly negative.  No outcome of probability zero is ever drawn, in
    # the tail or between nonzero bins.
    tail = np.array([0.1] * 10 + [0.0] * 6)
    assert np.cumsum(tail)[-1] == np.nextafter(1.0, 0.0)
    inner = np.array([0.0, 0.3, 0.0, -1e-13, 0.45, 0.25, -1e-13, 0.0])
    for probs in (tail, inner):
        setting = PauliSetting("z" * (probs.size.bit_length() - 1))
        drawn = np.zeros(probs.size, dtype=np.int64)
        for seed in range(200):
            for shots in (1, 3, 2048):
                record = sample_record(setting, probs, shots, np.random.default_rng(seed))
                assert np.array_equal(
                    record.counts, reference_counts(probs, shots, np.random.default_rng(seed))
                )
                drawn += record.counts
        assert np.array_equal(np.flatnonzero(drawn), np.flatnonzero(probs > 0))


@pytest.mark.parametrize(
    "shots",
    [2.5, 3.0, True, np.float64(3.0), np.True_, "3", None],
    ids=["2.5", "3.0", "True", "float64", "numpy-bool", "str", "None"],
)
def test_sample_record_refuses_non_integer_shots(shots):
    # sample_record and MeasurementRecord read shots through one check, so a
    # record takes no count that sample_record refuses.
    with pytest.raises(ValueError, match="shots must be an integer"):
        sample_record(PauliSetting("z"), np.array([0.5, 0.5]), shots, 0)
    counts = np.array([int(shots or 0), 0])  # summing to the count where it has a value
    with pytest.raises(ValueError, match="shots must be an integer"):
        MeasurementRecord(PauliSetting("z"), shots, counts)


def test_sample_record_takes_numpy_integer_shots():
    for shots in (3, np.int64(3), np.uint8(3)):
        record = sample_record(PauliSetting("z"), np.array([0.5, 0.5]), shots, 0)
        assert record.counts.sum() == 3


def test_measurement_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(PauliSetting("zz"), shots=5, counts=np.array([4, 0, 0, 0]))
    with pytest.raises(ValueError):
        MeasurementRecord(PauliSetting("zz"), shots=4, counts=np.array([4, 0]))


# -- counts -> expectation ---------------------------------------------------

def test_identity_monomial_expectation_is_one():
    record = MeasurementRecord(
        PauliSetting("zzz"), shots=10, counts=np.array([0, 0, 3, 0, 0, 0, 0, 7])
    )
    assert expectation_from_record(record, PauliMonomial((0, 0, 0))) == 1.0


def test_infinite_shot_ghz_distribution():
    setting = PauliSetting("zzz")
    probs = np.zeros(8)
    probs[0] = probs[7] = 0.5
    assert expectation_from_distribution(setting, probs, PauliMonomial((3, 3, 3))) == pytest.approx(0.0)
    assert expectation_from_distribution(setting, probs, PauliMonomial((0, 3, 3))) == pytest.approx(1.0)


def test_expectation_setting_mismatch():
    record = MeasurementRecord(
        PauliSetting("zzz"), shots=1, counts=np.array([1, 0, 0, 0, 0, 0, 0, 0])
    )
    with pytest.raises(ValueError):
        expectation_from_record(record, PauliMonomial((1, 3, 3)))


def test_shared_record_consistency():
    # All monomials mapping to one setting reuse the same counts.
    state = random_state(RandomCircuitSpec(n=3, depth=12, seed=6))
    setting = PauliSetting("xyz")
    probs = born_probabilities(state, setting)
    record = sample_record(setting, probs, shots=4096, seed=1)
    freq = record.counts / record.shots
    for labels in [(1, 2, 3), (0, 2, 3), (1, 0, 3), (1, 2, 0), (0, 0, 3)]:
        est = expectation_from_record(record, PauliMonomial(labels))
        direct = expectation_from_distribution(setting, freq, PauliMonomial(labels))
        assert est == pytest.approx(direct, abs=1e-12)


# -- the end-to-end conversion identity --------------------------------------

@pytest.mark.parametrize(
    "state_fn",
    [
        lambda: ghz(3),
        lambda: hadamard_all(3),
        lambda: random_state(RandomCircuitSpec(n=3, depth=10, seed=7)),
        lambda: hadamard_all(2),
        lambda: random_state(RandomCircuitSpec(n=2, depth=8, seed=3)),
        lambda: hadamard_all(1),
        lambda: random_state(RandomCircuitSpec(n=1, depth=6, seed=1)),
    ],
)
def test_record_exact_dense_agree_on_all_monomials(state_fn):
    state = state_fn()
    rho = density_of(state)
    for p in all_monomials(state.n):
        setting = setting_of(p)
        probs = born_probabilities(state, setting)
        from_dist = expectation_from_distribution(setting, probs, p)
        from_apply = exact_expectation(state, p)
        dense = np.trace(dense_monomial(p.labels) @ rho).real
        assert from_dist == pytest.approx(dense, abs=1e-10)
        assert from_apply == pytest.approx(dense, abs=1e-10)


def test_exact_expectation_range_and_identity(rng):
    state = random_state(RandomCircuitSpec(n=3, depth=18, seed=2))
    assert exact_expectation(state, PauliMonomial((0, 0, 0))) == pytest.approx(1.0, abs=1e-12)
    for p in all_monomials(3):
        v = exact_expectation(state, p)
        assert -1.0 <= v <= 1.0


# -- matrix-free monomial action ---------------------------------------------

def test_apply_monomial_identity_and_sigma_x():
    v = np.array([1.0, 0.0], dtype=complex)
    assert np.array_equal(apply_monomial(PauliMonomial((0,)), v), v)
    assert np.allclose(apply_monomial(PauliMonomial((1,)), v), [0.0, 1.0])


@given(st.integers(0, 4**3 - 1), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_apply_monomial_involution(code, seed):
    p = monomial_from_code(code, 3)
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    assert np.allclose(apply_monomial(p, apply_monomial(p, v)), v, atol=1e-12)


@given(st.integers(0, 4**3 - 1), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_apply_monomial_matches_dense(code, seed):
    p = monomial_from_code(code, 3)
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    assert np.allclose(apply_monomial(p, v), dense_monomial(p.labels) @ v, atol=1e-12)


def test_apply_monomial_on_columns(rng):
    p = PauliMonomial((2, 1, 3))
    u = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    stacked = apply_monomial(p, u)
    for c in range(3):
        assert np.allclose(stacked[:, c], apply_monomial(p, u[:, c]))


def test_monomial_actions_match_per_monomial_loop():
    mono = all_monomials(3)
    flips, sign_masks, nys = monomial_actions(np.arange(64), 3)
    assert [tuple(map(int, t)) for t in zip(flips, sign_masks, nys)] == [
        monomial_action(p.labels) for p in mono
    ]


@pytest.mark.parametrize("n", [*range(1, 13), 31])
def test_monomial_actions_of_random_codes_match_per_monomial_loop(n):
    # Every code for n <= 4, else random ones; at n = 31 codes reach 2^62
    # and the masks 2^31.
    codes = codec_codes(n)
    actions = monomial_actions(codes, n)
    assert all(a.dtype == np.int64 for a in actions)
    rows = [tuple((c >> 2 * (n - 1 - k)) & 3 for k in range(n)) for c in codes.tolist()]
    assert [tuple(map(int, t)) for t in zip(*actions)] == [monomial_action(row) for row in rows]


def test_sample_record_rejects_nan_probability():
    # NaN passes both "< 0" and "sum off by more than the tolerance" as False.
    with pytest.raises(ValueError):
        sample_record(PauliSetting("z"), np.array([np.nan, 1.0]), shots=10, seed=0)


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(lambda: PauliMonomial(()), "at least one qubit", id="monomial-empty"),
        pytest.param(lambda: PauliMonomial((4,)), "labels must be in", id="monomial-label-4"),
        pytest.param(lambda: PauliMonomial((1, 2.7)), "labels must be in", id="monomial-label-float"),
        pytest.param(lambda: PauliMonomial((0.5, 3)), "labels must be in", id="monomial-label-half"),
        pytest.param(lambda: PauliMonomial(("1", "2")), "labels must be in", id="monomial-label-str"),
        pytest.param(lambda: PauliMonomial((True, 3)), "labels must be in", id="monomial-label-bool"),
        pytest.param(lambda: PauliSetting("xq"), "axes must be", id="setting-bad-axis"),
        pytest.param(lambda: MeasurementRecord(PauliSetting("z"), 0, np.array([0, 0])), "shots must be >= 1",
                     id="record-zero-shots"),
        pytest.param(lambda: MeasurementRecord(PauliSetting("z"), 1, np.array([2, -1])), "nonnegative",
                     id="record-negative-count"),
        pytest.param(lambda: MeasurementRecord(PauliSetting("z"), 1, np.array([1.0, 0.0])),
                     "counts must be an integer array", id="record-float-counts"),
        pytest.param(lambda: MeasurementRecord(PauliSetting("z"), 1, np.array([True, False])),
                     "counts must be an integer array", id="record-bool-counts"),
        pytest.param(lambda: MeasurementRecord(PauliSetting("z"), 1, np.array([1, 0], dtype=object)),
                     "counts must be an integer array", id="record-object-counts"),
        pytest.param(lambda: sample_record(PauliSetting("z"), [1.0, 0.0], 0, 0), "shots must be >= 1",
                     id="sample-zero-shots"),
        pytest.param(lambda: sample_record(PauliSetting("z"), [0.5, 0.25, 0.25], 10, 0),
                     "expected 2 probabilities", id="sample-wrong-size"),
        pytest.param(lambda: expectation_from_distribution(PauliSetting("zz"), [1.0, 0, 0, 0],
                                                           PauliMonomial((3,))),
                     "setting covers 2 qubits, monomial 1", id="distribution-qubit-mismatch"),
        pytest.param(lambda: expectation_from_distribution(PauliSetting("z"), np.eye(2), PauliMonomial((3,))),
                     "expected 2 outcome weights", id="distribution-wrong-shape"),
        pytest.param(lambda: apply_monomial(PauliMonomial((1,)), np.ones(3)), "leading dimension 3, expected 2",
                     id="apply-wrong-dimension"),
        pytest.param(lambda: exact_expectation(ghz(3), PauliMonomial((3,))), "state has 3 qubits, monomial has 1",
                     id="exact-qubit-mismatch"),
        pytest.param(lambda: born_probabilities(ghz(3), [PauliSetting(a) for a in ("zzz", "xy", "yyy", "z")]),
                     "setting 'xy' covers 2 qubits, expected 3", id="born-names-first-odd-setting"),
    ],
)
def test_measurements_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_sample_record_refuses_shots_past_int64():
    # numpy's multinomial takes an int64 count: 2^63 - 1 shots draw, and
    # 2^63 is refused with a ValueError rather than numpy's OverflowError.
    record = sample_record(PauliSetting("z"), [0.5, 0.5], 2**63 - 1, 0)
    assert record.counts.sum() == record.shots == 2**63 - 1
    for shots in (2**63, 10**20):
        with pytest.raises(ValueError, match=rf"shots must be below 2\^63, got {shots}"):
            sample_record(PauliSetting("z"), [0.5, 0.5], shots, 0)
