import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulitomo import (
    align_factor,
    density_of,
    fidelity_density,
    fidelity_rank1,
    frobenius_error,
    ghz,
    procrustes_distance,
)

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


def test_align_factor_reaches_distance(rng):
    u = random_factor(rng, 6, 2)
    v = random_factor(rng, 6, 2)
    aligned = align_factor(u, v)
    assert np.linalg.norm(aligned - v) == pytest.approx(procrustes_distance(u, v), abs=1e-8)


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
