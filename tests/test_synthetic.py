import numpy as np
import pytest

from paulitomo import (
    GaussianSensingMap,
    SyntheticProblem,
    generate_synthetic,
    run_synthetic_comparison,
)
from paulitomo.linalg import operator_norm
from paulitomo.optimizer import compute_step_size, random_init
from paulitomo.synthetic import theory_step_interval


def small_problem(**kwargs):
    defaults = dict(d=32, r=2, c=3, noise_norm=0.0, seed=1)
    defaults.update(kwargs)
    return SyntheticProblem(**defaults)


def test_ground_truth_unit_frobenius():
    _, _, u_star = generate_synthetic(small_problem())
    rho = u_star @ u_star.T
    assert np.linalg.norm(rho) == pytest.approx(1.0, abs=1e-12)


def test_noiseless_observations_exact():
    smap, y, u_star = generate_synthetic(small_problem())
    assert np.array_equal(y, smap.forward_factored(u_star))


def test_seed_reproducibility():
    a = generate_synthetic(small_problem(noise_norm=0.01))
    b = generate_synthetic(small_problem(noise_norm=0.01))
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])
    assert np.array_equal(a[0].rows, b[0].rows)


def test_noise_norm_exact():
    smap, y, u_star = generate_synthetic(small_problem(noise_norm=0.05))
    w = y - smap.forward_factored(u_star)
    assert np.linalg.norm(w) == pytest.approx(0.05, rel=1e-12)


def test_row_entry_variance():
    # Entries of the sensing functionals carry variance ~1/m (diagonal
    # coordinates) and 2/m (scaled off-diagonal coordinates).
    problem = small_problem(seed=3)
    smap, _, _ = generate_synthetic(problem)
    m, d = problem.m, problem.d
    diag_var = smap.rows[:, :d].var()
    off_var = smap.rows[:, d:].var()
    assert diag_var == pytest.approx(1.0 / m, rel=0.15)
    assert off_var == pytest.approx(2.0 / m, rel=0.05)


def test_m_exceeding_d2_rejected():
    with pytest.raises(ValueError):
        SyntheticProblem(d=8, r=4, c=3, noise_norm=0.0, seed=0)


def test_forward_matches_dense_functionals(rng):
    smap, _, u_star = generate_synthetic(small_problem())
    # Rebuild functionals as dense symmetric matrices and compare.
    d = smap.d
    iu = np.triu_indices(d, k=1)
    u = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    rho = (u @ u.conj().T).real
    expected = []
    for row in smap.rows[:20]:
        mat = np.zeros((d, d))
        np.fill_diagonal(mat, row[:d])
        mat[iu] = row[d:] / np.sqrt(2)
        mat[(iu[1], iu[0])] = row[d:] / np.sqrt(2)
        expected.append(np.trace(mat @ rho))
    assert np.allclose(smap.forward_factored(u)[:20], expected, atol=1e-10)


def test_adjoint_consistency(rng):
    smap, _, _ = generate_synthetic(small_problem())
    x = rng.standard_normal(smap.m)
    z = rng.standard_normal((smap.d, 2))
    dense = smap.adjoint_operator(x)(np.eye(smap.d))
    assert np.allclose(dense, dense.T, atol=1e-12)
    assert np.allclose(smap.residual_gradient(smap.forward_factored(z) - x, z), dense @ z, atol=1e-10)


def test_adjointness_inner_product(rng):
    smap, _, _ = generate_synthetic(small_problem())
    u = rng.standard_normal((smap.d, 2))
    x = rng.standard_normal(smap.m)
    lhs = float(np.dot(smap.forward_factored(u), x))
    rhs = float(np.trace((u @ u.T).T @ smap.adjoint_operator(x)(np.eye(smap.d))))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_gaussian_gain_keeps_the_step_rule():
    # E[A^dagger A] = I for the Gaussian ensemble, so the auto step is the
    # unscaled 1 / (4 (L_hat sigma_1^2 + ||A^dagger(A(Z0 Z0*) - y)||)), to the bit.
    smap, y, _ = generate_synthetic(small_problem(noise_norm=0.01))
    assert GaussianSensingMap.gain == smap.gain == 1.0
    z0 = random_init(smap.d, 2, seed=3, real=True)
    top_sq = float(np.linalg.eigvalsh(z0.T @ z0).max())
    residual = smap.forward_factored(z0) - y
    g = operator_norm(smap.adjoint_operator(residual), smap.d, tol=1e-8)
    assert compute_step_size(smap, y, z0, 1.1) == 1.0 / (4.0 * (1.1 * top_sq + g))


def test_theory_interval_ordering():
    lo, hi = theory_step_interval(sigma_r=0.1)
    assert 0 < lo < hi


def test_momentum_beats_plain_at_small_scale():
    problem = small_problem(seed=2)
    report = run_synthetic_comparison(problem, (0.0, 2.0 / 3.0), tol=1e-3, maxiters=4000)
    plain, accel = report["runs"]
    assert plain["converged"] and accel["converged"]
    assert accel["iterations"] < plain["iterations"]
    assert plain["final_relative_error"] < 0.1


def test_theory_momentum_entry():
    problem = small_problem(seed=4)
    report = run_synthetic_comparison(problem, ("theory",), tol=1e-2, maxiters=2000)
    run = report["runs"][0]
    assert 0 < run["mu"] < 1e-3  # tiny but positive for tau >= 1
    assert run["mu_spec"] == "theory"


def test_noisy_error_floor_small_scale():
    problem = small_problem(noise_norm=0.01, seed=5)
    report = run_synthetic_comparison(problem, (2.0 / 3.0,), tol=1e-4, maxiters=4000)
    err = report["runs"][0]["final_relative_error"]
    assert 1e-4 < err < 1e-1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_noise_norm_must_be_finite(bad):
    with pytest.raises(ValueError, match="^noise_norm must be a finite number"):
        small_problem(noise_norm=bad)


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(lambda: SyntheticProblem(d=0), "d must be >= 1, got 0", id="problem-d-0"),
        pytest.param(lambda: GaussianSensingMap(4, np.zeros((3, 5))), r"rows must have shape \(m, 10\)",
                     id="map-row-width"),
    ],
)
def test_synthetic_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
