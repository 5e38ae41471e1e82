import numpy as np
import pytest

from paulitomo import (
    ObservationVector,
    PauliMonomial,
    SensingMap,
    density_of,
    ghz,
    hadamard_all,
    observe,
    sample_monomials,
)
from paulitomo.measurements import monomial_from_code

from conftest import dense_adjoint, dense_forward, random_factor


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
        assert np.allclose(smap.forward_factored(u), dense_forward(smap.monomials, rho), atol=1e-10)


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
        expected = dense_adjoint(smap.monomials, x) @ z
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
        adjoint_mat = dense_adjoint(smap.monomials, x, scale=smap.scale)
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
    residual = dense_forward(smap.monomials, z @ z.conj().T, scale=smap.scale) - y
    expected = dense_adjoint(smap.monomials, residual, scale=smap.scale) @ z
    assert np.allclose(smap.residual_gradient(y, z), expected, atol=1e-10)


def test_range_calls_compose_to_full(rng):
    smap = small_random_map(rng, 3, 17, normalized=True)
    z = random_factor(rng, 8, 2)
    y = rng.standard_normal(17)
    full = smap.residual_gradient(y, z)
    # Uneven cuts, so some ranges touch only a few of the flip groups.
    for cuts in ((0, 6, 12, 17), (0, 1, 2, 9, 17), (0, 16, 17)):
        ranges = list(zip(cuts[:-1], cuts[1:]))
        parts = sum(smap.residual_gradient_range(y, z, lo, hi) for lo, hi in ranges)
        assert np.allclose(full, parts, atol=1e-12)
        pieces = np.concatenate([smap.forward_range(z, lo, hi) for lo, hi in ranges])
        assert np.allclose(pieces, smap.forward_factored(z), atol=1e-12)


# -- flip-group operator against the dense oracle ----------------------------

def assert_matches_dense(smap, rng, r):
    """Forward, adjoint and residual gradient agree with dense matrices."""
    z = random_factor(rng, smap.d, r)
    x = rng.standard_normal(smap.m)
    forward = dense_forward(smap.monomials, z @ z.conj().T, scale=smap.scale)
    assert np.allclose(smap.forward_factored(z), forward, atol=1e-10)
    adjoint = dense_adjoint(smap.monomials, x, scale=smap.scale)
    assert np.allclose(smap.adjoint_times(x, z), adjoint @ z, atol=1e-10)
    residual_adjoint = dense_adjoint(smap.monomials, forward - x, scale=smap.scale)
    assert np.allclose(smap.residual_gradient(x, z), residual_adjoint @ z, atol=1e-10)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_full_map_matches_dense(rng, r):
    assert_matches_dense(full_map(3, normalized=True), rng, r)


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


# -- observe -----------------------------------------------------------------

def test_observe_exact_full_map_matches_dense():
    state = ghz(3)
    smap = full_map(3, normalized=False)
    obs = observe(state, smap)
    assert np.allclose(obs.values, dense_forward(smap.monomials, density_of(state)), atol=1e-10)


def test_observe_identity_entry_sampled_exact_value(rng):
    state = hadamard_all(2)
    mono = [PauliMonomial((0, 0)), PauliMonomial((1, 1))]
    smap = SensingMap(2, mono, normalized=False)
    obs = observe(state, smap, shots=64, seed=3)
    assert obs.values[0] == 1.0  # parity-0 identity row is exact


def test_observe_sampled_converges_to_exact(rng):
    state = ghz(3)
    mono = sample_monomials(3, 20, rng)
    smap = SensingMap(3, mono, normalized=False)
    exact = observe(state, smap).values
    sampled = observe(state, smap, shots=1_000_000, seed=5).values
    assert np.max(np.abs(sampled - exact)) < 0.01


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


def test_observation_vector_validation():
    with pytest.raises(ValueError):
        ObservationVector(np.array([]))


def test_map_validation():
    with pytest.raises(ValueError):
        SensingMap(3, [])
    with pytest.raises(ValueError):
        SensingMap(3, [PauliMonomial((1, 2))])
