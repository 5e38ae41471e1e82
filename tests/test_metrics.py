import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulitomo import (
    SensingMap,
    SyntheticProblem,
    compute_step_size,
    density_of,
    fidelity_density,
    fidelity_rank1,
    frobenius_error,
    ghz,
    generate_synthetic,
    procrustes_distance,
    sample_monomials,
)
from paulitomo import serialize

from conftest import random_factor, random_pure_state_vector


def random_unitary(rng, r):
    a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, _ = np.linalg.qr(a)
    return q


# -- procrustes --------------------------------------------------------------

def test_procrustes_self_is_zero(rng):
    u = random_factor(rng, 8, 2)
    assert procrustes_distance(u, u) == pytest.approx(0.0, abs=1e-8)


def test_procrustes_phase_invariance_rank1(rng):
    u = random_factor(rng, 8, 1)
    for theta in (0.3, 1.2, 2.9):
        v = np.exp(1j * theta) * u
        assert procrustes_distance(u, v) == pytest.approx(0.0, abs=1e-8)


def test_procrustes_rank1_closed_form(rng):
    for _ in range(20):
        u = random_factor(rng, 6, 1)
        v = random_factor(rng, 6, 1)
        expected = np.sqrt(
            np.linalg.norm(u) ** 2
            + np.linalg.norm(v) ** 2
            - 2 * abs(np.vdot(u, v))
        )
        assert procrustes_distance(u, v) == pytest.approx(expected, abs=1e-10)


def test_procrustes_pseudometric(rng):
    for _ in range(30):
        u = random_factor(rng, 5, 2)
        v = random_factor(rng, 5, 2)
        w = random_factor(rng, 5, 2)
        duv = procrustes_distance(u, v)
        dvu = procrustes_distance(v, u)
        assert duv == pytest.approx(dvu, abs=1e-8)
        assert duv <= procrustes_distance(u, w) + procrustes_distance(w, v) + 1e-8
        rot = random_unitary(rng, 2)
        assert procrustes_distance(u, u @ rot) == pytest.approx(0.0, abs=1e-8)


def test_procrustes_shape_mismatch(rng):
    with pytest.raises(ValueError):
        procrustes_distance(random_factor(rng, 4, 1), random_factor(rng, 4, 2))


# -- frobenius error ---------------------------------------------------------

def test_frobenius_error_self(rng):
    u = random_factor(rng, 8, 2)
    assert frobenius_error(u, u) == pytest.approx(0.0, abs=1e-8)


def test_frobenius_error_orthogonal_rank1():
    u = np.zeros((4, 1), dtype=complex)
    v = np.zeros((4, 1), dtype=complex)
    u[0, 0] = 1.0
    v[1, 0] = 1.0
    assert frobenius_error(u, v) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_frobenius_error_matches_dense(rng):
    for ru, rv in ((1, 1), (2, 2), (1, 3)):
        u = random_factor(rng, 6, ru)
        v = random_factor(rng, 6, rv)
        dense = np.linalg.norm(u @ u.conj().T - v @ v.conj().T)
        assert frobenius_error(u, v) == pytest.approx(dense, abs=1e-10)


def test_frobenius_error_unitary_invariance(rng):
    for _ in range(20):
        u = random_factor(rng, 6, 2)
        v = random_factor(rng, 6, 2)
        base = frobenius_error(u, v)
        assert frobenius_error(u @ random_unitary(rng, 2), v) == pytest.approx(base, abs=1e-10)
        assert frobenius_error(u, v @ random_unitary(rng, 2)) == pytest.approx(base, abs=1e-10)


def test_frobenius_error_row_mismatch(rng):
    with pytest.raises(ValueError):
        frobenius_error(random_factor(rng, 4, 1), random_factor(rng, 8, 1))


# -- fidelity ----------------------------------------------------------------

def test_fidelity_rank1_exact_match():
    state = ghz(3)
    u = state.amplitudes[:, None]
    assert fidelity_rank1(u, state) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rank1_orthogonal():
    state = ghz(3)
    u = np.zeros((8, 1), dtype=complex)
    u[1, 0] = 1.0
    assert fidelity_rank1(u, state) == 0.0


def test_fidelity_matches_dense_trace(rng):
    for _ in range(10):
        psi = random_pure_state_vector(rng, 3)
        u = random_factor(rng, 8, 2)
        rho = u @ u.conj().T
        dense = np.trace(np.outer(psi, psi.conj()) @ (rho / np.trace(rho))).real
        assert fidelity_rank1(u, psi) == pytest.approx(dense, abs=1e-10)


def test_fidelity_normalizes_the_factor():
    state = ghz(3)
    assert fidelity_rank1(1.2 * state.amplitudes[:, None], state) == 1.0
    assert fidelity_rank1(np.zeros((8, 2)), state) == 0.0


def test_fidelity_density_consistency(rng):
    state = ghz(3)
    rho = density_of(state)
    assert fidelity_density(rho, state) == pytest.approx(1.0, abs=1e-12)
    psi = random_pure_state_vector(rng, 3)
    assert fidelity_density(rho, psi) == pytest.approx(
        fidelity_rank1(state.amplitudes[:, None], psi), abs=1e-10
    )


def test_fidelity_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        fidelity_rank1(random_factor(rng, 4, 1), ghz(3))


# -- the factor contract -----------------------------------------------------
# Every entry point that takes a factor reads it through metrics.as_factor:
# a length-d vector is one column, and anything that is not (d, r >= 1)
# is a ValueError.  d = 8 throughout.

def _factor_entry_points():
    rng = np.random.default_rng(7)
    smap = SensingMap(3, sample_monomials(3, 20, 0))
    gmap, gy, _ = generate_synthetic(SyntheticProblem(d=8, r=1, c=2))
    x, y = rng.standard_normal(20), rng.standard_normal(20)
    return {
        "SensingMap.forward_factored": smap.forward_factored,
        "SensingMap.adjoint_times": lambda z: smap.adjoint_times(x, z),
        "SensingMap.adjoint_operator": lambda z: smap.adjoint_operator(x)(z),
        "SensingMap.residual_gradient": lambda z: smap.residual_gradient(y, z),
        "GaussianSensingMap.forward_factored": gmap.forward_factored,
        "GaussianSensingMap.residual_gradient": lambda z: gmap.residual_gradient(gy, z),
        "compute_step_size": lambda z: compute_step_size(smap, y, z),
        "frobenius_error": lambda z: frobenius_error(z, ghz(3).amplitudes),
        "fidelity_rank1": lambda z: fidelity_rank1(z, ghz(3)),
        "factor_to_json": serialize.factor_to_json,
    }


ENTRY_POINTS = list(_factor_entry_points())
BAD_SHAPES = [(9, 1), (8, 0), (8, 1, 1)]
# factor_to_json has no d to hold a row count against.
BAD_CASES = [
    (name, shape)
    for name in ENTRY_POINTS
    for shape in BAD_SHAPES
    if (name, shape) != ("factor_to_json", (9, 1))
]
BAD_IDS = [f"{name}-{'x'.join(map(str, shape))}" for name, shape in BAD_CASES]


@pytest.mark.parametrize("name,shape", BAD_CASES, ids=BAD_IDS)
def test_factor_contract_rejects_bad_shapes(name, shape):
    entry = _factor_entry_points()[name]
    with pytest.raises(ValueError):
        entry(np.ones(shape))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_factor_contract_vector_is_one_column(name):
    entry = _factor_entry_points()[name]
    vec = np.random.default_rng(3).standard_normal(8)
    as_vector, as_column = entry(vec), entry(vec[:, None])
    if isinstance(as_vector, np.ndarray):
        assert np.array_equal(as_vector, as_column)
    else:
        assert as_vector == as_column


def test_fidelity_density_shape_mismatch():
    with pytest.raises(ValueError, match="does not match state"):
        fidelity_density(np.eye(4), ghz(3))
