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
from paulitomo.measurements import monomial_action, monomial_actions, monomial_from_code

from conftest import dense_basis_vector, dense_monomial, random_pure_state_vector


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
    with pytest.raises(ValueError):
        PauliMonomial.from_string("IXQ")


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


# -- shot sampling -----------------------------------------------------------

def test_sample_record_degenerate():
    setting = PauliSetting("zz")
    probs = np.array([0.0, 0.0, 1.0, 0.0])
    record = sample_record(setting, probs, shots=50, seed=4)
    assert record.counts == {"10": 50}


def test_sample_record_support():
    probs = born_probabilities(ghz(3), PauliSetting("zzz"))
    record = sample_record(PauliSetting("zzz"), probs, shots=2048, seed=0)
    assert set(record.counts) <= {"000", "111"}
    assert sum(record.counts.values()) == 2048


def test_sample_record_deterministic():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    a = sample_record(PauliSetting("xy"), probs, shots=500, seed=9)
    b = sample_record(PauliSetting("xy"), probs, shots=500, seed=9)
    assert a.counts == b.counts


def test_sample_record_invalid_distribution():
    with pytest.raises(ValueError):
        sample_record(PauliSetting("z"), np.array([0.7, 0.6]), shots=10, seed=0)


def test_measurement_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(PauliSetting("zz"), shots=5, counts={"00": 4})
    with pytest.raises(ValueError):
        MeasurementRecord(PauliSetting("zz"), shots=4, counts={"0": 4})


# -- counts -> expectation ---------------------------------------------------

def test_identity_monomial_expectation_is_one():
    record = MeasurementRecord(
        PauliSetting("zzz"), shots=10, counts={"010": 3, "111": 7}
    )
    sample = expectation_from_record(record, PauliMonomial((0, 0, 0)))
    assert sample.value == 1.0


def test_infinite_shot_ghz_distribution():
    setting = PauliSetting("zzz")
    probs = np.zeros(8)
    probs[0] = probs[7] = 0.5
    assert expectation_from_distribution(setting, probs, PauliMonomial((3, 3, 3))) == pytest.approx(0.0)
    assert expectation_from_distribution(setting, probs, PauliMonomial((0, 3, 3))) == pytest.approx(1.0)


def test_expectation_setting_mismatch():
    record = MeasurementRecord(PauliSetting("zzz"), shots=1, counts={"000": 1})
    with pytest.raises(ValueError):
        expectation_from_record(record, PauliMonomial((1, 3, 3)))


def test_shared_record_consistency():
    # All monomials mapping to one setting reuse the same counts.
    state = random_state(RandomCircuitSpec(n=3, depth=12, seed=6))
    setting = PauliSetting("xyz")
    probs = born_probabilities(state, setting)
    record = sample_record(setting, probs, shots=4096, seed=1)
    freq = np.zeros(8)
    for key, c in record.counts.items():
        freq[int(key, 2)] = c / record.shots
    for labels in [(1, 2, 3), (0, 2, 3), (1, 0, 3), (1, 2, 0), (0, 0, 3)]:
        est = expectation_from_record(record, PauliMonomial(labels)).value
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
    flips, sign_masks, nys = monomial_actions(mono)
    assert [tuple(map(int, t)) for t in zip(flips, sign_masks, nys)] == [
        monomial_action(p) for p in mono
    ]
