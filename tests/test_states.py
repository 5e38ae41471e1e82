import itertools

import numpy as np
import pytest

from paulitomo import (
    PureState,
    RandomCircuitSpec,
    density_of,
    ghz,
    ghz_minus,
    hadamard_all,
    random_state,
)
from paulitomo.measurements import _TO_Y_BASIS
from paulitomo.states import _HADAMARD, apply_cx, apply_single_qubit, euler_rotation

from conftest import dense_monomial, random_pure_state_vector

SQ2 = 1 / np.sqrt(2)


def test_ghz3_amplitudes():
    state = ghz(3)
    assert state.amplitudes[0] == pytest.approx(SQ2)
    assert state.amplitudes[7] == pytest.approx(SQ2)
    assert np.all(state.amplitudes[1:7] == 0)


def test_ghz_norm_and_support():
    for n in (3, 4, 5, 6):
        state = ghz(n)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)
        assert np.count_nonzero(state.amplitudes) == 2


def test_ghz_rejects_small_n():
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            ghz(n)
        with pytest.raises(ValueError):
            ghz_minus(n)


def test_ghz_minus_amplitudes_and_orthogonality():
    state = ghz_minus(3)
    assert state.amplitudes[0] == pytest.approx(SQ2)
    assert state.amplitudes[7] == pytest.approx(-SQ2)
    assert np.vdot(ghz(3).amplitudes, state.amplitudes) == pytest.approx(0.0)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_hadamard_all_uniform():
    state = hadamard_all(2)
    assert np.allclose(state.amplitudes, 0.5)
    state1 = hadamard_all(1)
    assert np.allclose(state1.amplitudes, [SQ2, SQ2])
    for n in (1, 3, 5):
        assert np.linalg.norm(hadamard_all(n).amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_random_state_depth_zero_is_ground_state():
    state = random_state(RandomCircuitSpec(n=3, depth=0, seed=5))
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(state.amplitudes, expected)


def test_random_state_deterministic_per_seed():
    spec = RandomCircuitSpec(n=4, depth=25, seed=123)
    a = random_state(spec).amplitudes
    b = random_state(spec).amplitudes
    assert np.array_equal(a, b)
    other = random_state(RandomCircuitSpec(n=4, depth=25, seed=124)).amplitudes
    assert not np.allclose(a, other)


def test_random_state_unit_norm():
    for seed in range(5):
        state = random_state(RandomCircuitSpec(n=3, depth=30, seed=seed))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_random_state_single_qubit():
    state = random_state(RandomCircuitSpec(n=1, depth=10, seed=2))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_density_of_ghz3():
    rho = density_of(ghz(3))
    expected = np.zeros((8, 8), dtype=complex)
    for i in (0, 7):
        for j in (0, 7):
            expected[i, j] = 0.5
    assert np.allclose(rho, expected)


def test_density_is_rank1_projector():
    state = random_state(RandomCircuitSpec(n=3, depth=20, seed=9))
    rho = density_of(state)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)
    assert np.allclose(rho @ rho, rho, atol=1e-10)
    assert np.allclose(rho, np.outer(state.amplitudes, state.amplitudes.conj()))


def test_purestate_validation():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        RandomCircuitSpec(n=2, depth=-1, seed=0)


def test_purestate_rejects_nan_amplitudes():
    # |psi| is NaN, and NaN compares False with the norm tolerance.
    with pytest.raises(ValueError):
        PureState(1, np.array([np.nan, 0.0]))


def test_apply_single_qubit_batch_equals_row_calls():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        rows = rng.standard_normal((7, 2**n)) + 1j * rng.standard_normal((7, 2**n))
        gate = euler_rotation(*rng.random(3))
        for qubit in range(n):
            batch = apply_single_qubit(rows, gate, qubit, n)
            one_by_one = np.stack([apply_single_qubit(row, gate, qubit, n) for row in rows])
            assert batch.shape == rows.shape
            assert np.array_equal(batch, one_by_one), (n, qubit)


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_single_qubit_matches_kron_oracle(n):
    # The butterfly against the dense I_{2^q} (x) G (x) I_{2^(n-q-1)} product,
    # qubit 0 the most significant factor, on one vector and on a batch.
    rng = np.random.default_rng(n)
    vector = random_pure_state_vector(rng, n)
    rows = np.stack([random_pure_state_vector(rng, n) for _ in range(4)])
    for gate in (_HADAMARD, _TO_Y_BASIS, euler_rotation(*rng.random(3))):
        for qubit in range(n):
            dense = np.kron(np.kron(np.eye(2**qubit), gate), np.eye(2 ** (n - qubit - 1)))
            got = apply_single_qubit(vector, gate, qubit, n)
            assert got.shape == vector.shape
            assert np.max(np.abs(got - dense @ vector)) <= 1e-15, (qubit, gate)
            got = apply_single_qubit(rows, gate, qubit, n)
            assert got.shape == rows.shape
            assert np.max(np.abs(got - rows @ dense.T)) <= 1e-15, (qubit, gate)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda a: apply_single_qubit(a, _HADAMARD, 5, 3), "qubit 5 is outside the 3-qubit",
                     id="single-past-register"),
        pytest.param(lambda a: apply_single_qubit(a, _HADAMARD, 3, 3), "qubit 3 is outside the 3-qubit",
                     id="single-at-n"),
        pytest.param(lambda a: apply_single_qubit(a, _HADAMARD, -1, 3), "qubit -1 is outside the 3-qubit",
                     id="single-negative"),
        pytest.param(lambda a: apply_cx(a, 1, 1, 3), "control and target must differ, both are qubit 1",
                     id="cx-same-wire"),
        pytest.param(lambda a: apply_cx(a, 0, 3, 3), "qubit 3 is outside the 3-qubit", id="cx-target-past"),
        pytest.param(lambda a: apply_cx(a, 3, 0, 3), "qubit 3 is outside the 3-qubit", id="cx-control-past"),
        pytest.param(lambda a: apply_cx(a, -1, 0, 3), "qubit -1 is outside the 3-qubit",
                     id="cx-control-negative"),
    ],
)
def test_gates_refuse_wires_outside_the_register(call, match):
    with pytest.raises(ValueError, match=match):
        call(np.arange(8, dtype=complex))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: PureState(0, [1]), id="pure-state"),
        pytest.param(lambda: RandomCircuitSpec(0, 1, 0), id="random-spec"),
        pytest.param(lambda: hadamard_all(0), id="hadamard-all"),
    ],
)
def test_states_reject_zero_qubits(call):
    with pytest.raises(ValueError, match="qubit count must be positive, got 0"):
        call()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_apply_cx_matches_dense_matrix(rng, n):
    # CX = (I + Z_c + X_t - Z_c X_t) / 2, built from Kronecker products.
    psi = random_pure_state_vector(rng, n)
    for control, target in itertools.permutations(range(n), 2):
        z_c, x_t, zx = [0] * n, [0] * n, [0] * n
        z_c[control], x_t[target] = 3, 1
        zx[control], zx[target] = 3, 1
        dense = (np.eye(2**n) + dense_monomial(z_c) + dense_monomial(x_t) - dense_monomial(zx)) / 2
        assert np.array_equal(apply_cx(psi, control, target, n), dense @ psi), (control, target)
