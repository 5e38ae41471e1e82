import dataclasses
import re

import numpy as np
import pytest

from paulitomo import (
    DivergenceError,
    OptimizerConfig,
    SensingMap,
    compute_step_size,
    density_of,
    ghz,
    observe,
    parallel_gradient,
    random_init,
    run,
    sample_monomials,
    spectral_init,
    theoretical_mu,
)
from paulitomo.cli import build_state, cli_main, monomial_count
from paulitomo.measurements import monomial_from_code, sample_codes
from paulitomo.metrics import fidelity_rank1, frobenius_error
from paulitomo.optimizer import parse_mu, resolve_mu
from paulitomo.seeding import substream

from conftest import code_labels, dense_adjoint, dense_forward, dense_monomial, random_factor


def full_exact_problem(state, normalized=True):
    n = state.n
    smap = SensingMap(n, [monomial_from_code(c, n) for c in range(4**n)], normalized=normalized)
    return smap, observe(state, smap)


def log_linear_r2(errors):
    errors = np.asarray([e for e in errors if e > 1e-13])
    x = np.arange(errors.size)
    y = np.log10(errors)
    coeffs = np.polyfit(x, y, 1)
    fit = np.polyval(coeffs, x)
    ss_res = np.sum((y - fit) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    return 1.0 - ss_res / ss_tot


# -- spectral initialization -------------------------------------------------

def test_spectral_init_complete_ghz3():
    state = ghz(3)
    smap, y = full_exact_problem(state, normalized=False)
    u0 = spectral_init(smap, y, r=1, L_hat=1.1)
    # Oracle: eigen-decompose the explicitly built sum of y_i P_i, divided
    # by the unnormalized gain m / d = 64 / 8.
    mat = dense_adjoint(smap.codes, smap.n, y)
    vals, vecs = np.linalg.eigh(mat)
    expected = vecs[:, -1] * np.sqrt(vals[-1] / 8.0 / 1.1)
    phase = np.vdot(u0[:, 0], expected)
    phase /= abs(phase)
    assert np.allclose(u0[:, 0] * phase, expected, atol=1e-6)
    overlap = abs(np.vdot(u0[:, 0] / np.linalg.norm(u0), state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-6)


def test_spectral_init_zero_data(rng):
    smap = SensingMap(3, sample_monomials(3, 10, rng))
    u0 = spectral_init(smap, np.zeros(10), r=2)
    assert np.all(u0 == 0)


def test_spectral_init_constructed_eigenpair(rng):
    # Single identity monomial: M = s * y_0 * I, dominant eigenpair (s*y_0, any v);
    # the unnormalized gain is m / d = 1 / 4.
    smap = SensingMap(2, [monomial_from_code(0, 2)], normalized=False)
    u0 = spectral_init(smap, np.array([2.0]), r=1, L_hat=1.1)
    assert np.linalg.norm(u0) ** 2 == pytest.approx(2.0 * 4.0 / 1.1, rel=1e-8)


def test_spectral_init_matches_dense_top_r(rng):
    smap = SensingMap(3, sample_monomials(3, 30, rng), normalized=True)
    y = rng.standard_normal(30)
    u0 = spectral_init(smap, y, r=2, L_hat=1.05)
    mat = dense_adjoint(smap.codes, smap.n, y, scale=smap.scale)
    vals, vecs = np.linalg.eigh(mat)
    rho0 = u0 @ u0.conj().T
    expected = np.zeros_like(mat)
    for j in (-1, -2):
        if vals[j] > 0:  # divided by the normalized gain d = 8
            expected += (vals[j] / 8.0 / 1.05) * np.outer(vecs[:, j], vecs[:, j].conj())
    assert np.allclose(rho0, expected, atol=1e-6)


@pytest.mark.parametrize("circuit,seed", [("ghz", 0), ("ghz", 1), ("hadamard", 3), ("hadamard", 7)])
def test_spectral_init_small_eigengap_data(tmp_path, circuit, seed):
    # A^dagger(y) here has a top relative eigengap of 0.2-1.5% and
    # |lambda_min| ~ |lambda_max|, which stalls power iteration on the
    # squared operator.
    args = ["reconstruct", "--circuit", circuit, "--n", "6", "--measpc", "5", "--shots", "4096"]
    assert cli_main(args + ["--seed", str(seed), "--out", str(tmp_path / "r.json")]) == 0
    state = build_state(circuit, 6, 20, seed)
    smap = SensingMap(6, sample_monomials(6, monomial_count(5, 6), substream(seed, "monomials")))
    y = observe(state, smap, shots=4096, seed=seed)
    u0 = spectral_init(smap, y, r=1, L_hat=1.1, seed=seed)
    top = np.linalg.eigvalsh(smap.adjoint_operator(y)(np.eye(64)))[-1]
    # Divided by the normalized gain d = 64.
    assert np.linalg.norm(u0[:, 0]) ** 2 * 1.1 == pytest.approx(top / 64.0, rel=1e-9)


# -- step size ----------------------------------------------------------------

def test_step_size_zero_residual(rng):
    smap = SensingMap(3, sample_monomials(3, 12, rng), normalized=True)
    z0 = random_factor(rng, 8, 1)
    y = smap.forward_factored(z0)
    sigma1_sq = np.linalg.norm(z0) ** 2  # rank-1: top eigenvalue of the Gram
    # Zero residual leaves 1 / (4 c L_hat sigma1^2), with normalized gain c = d = 8.
    assert compute_step_size(smap, y, z0, L_hat=1.1) == pytest.approx(
        1.0 / (4 * 8.0 * 1.1 * sigma1_sq), rel=1e-6
    )


def test_step_size_scaling_with_factor_norm(rng):
    smap = SensingMap(3, sample_monomials(3, 12, rng), normalized=True)
    z0 = random_factor(rng, 8, 1)
    for c in (2.0, 3.5):
        eta1 = compute_step_size(smap, smap.forward_factored(z0), z0)
        eta2 = compute_step_size(smap, smap.forward_factored(c * z0), c * z0)
        assert eta2 == pytest.approx(eta1 / c**2, rel=1e-6)


def test_step_size_matches_dense(rng):
    smap = SensingMap(3, sample_monomials(3, 25, rng), normalized=True)
    z0 = random_factor(rng, 8, 2)
    y = rng.standard_normal(25)
    rho0 = z0 @ z0.conj().T
    znorm = np.linalg.norm(np.linalg.eigvalsh(rho0)).max()
    znorm = float(np.abs(np.linalg.eigvalsh(rho0)).max())
    residual = dense_forward(smap.codes, smap.n, rho0, scale=smap.scale) - y
    gnorm = float(np.abs(np.linalg.eigvalsh(dense_adjoint(smap.codes, smap.n, residual, scale=smap.scale))).max())
    c = 8.0  # normalized gain d
    expected = 1.0 / (4 * c * (1.1 * znorm + gnorm / c))
    assert compute_step_size(smap, y, z0, 1.1) == pytest.approx(expected, rel=1e-6)


def test_step_size_rejects_zero_factor(rng):
    smap = SensingMap(2, sample_monomials(2, 4, rng))
    with pytest.raises(ValueError):
        compute_step_size(smap, np.zeros(4), np.zeros((4, 1)))


# -- momentum value ------------------------------------------------------------

def test_theoretical_mu_reference_value():
    mu = theoretical_mu(r=1, tau=1.0, epsilon=1.0)
    assert mu == pytest.approx(1.0 / (2000.0 * np.sqrt(1.223)), rel=1e-12)
    assert mu == pytest.approx(4.5e-4, rel=0.01)


def test_theoretical_mu_scalings():
    base = theoretical_mu(r=1, tau=1.0, epsilon=1.0)
    half_eps = theoretical_mu(r=1, tau=1.0, epsilon=0.5)
    double_r = theoretical_mu(r=2, tau=1.0, epsilon=1.0)
    assert half_eps == pytest.approx(base / 2, rel=1e-12)
    assert double_r == pytest.approx(base / 2, rel=1e-12)


def test_resolve_mu_theory_string():
    config = OptimizerConfig(rank=1, mu="theory:1")
    assert resolve_mu(config) == pytest.approx(4.5e-4, rel=0.01)
    with pytest.raises(ValueError):
        OptimizerConfig(rank=1, mu="theory:2")
    with pytest.raises(ValueError):
        OptimizerConfig(rank=1, mu=1.0)


def test_parse_mu_grammar():
    assert parse_mu(0.25) == (0.25, None)
    assert parse_mu("0.25") == (0.25, None)
    assert parse_mu("theory") == ("theory", 1.0)
    assert parse_mu("theory:0.5") == ("theory:0.5", 0.5)
    bare, explicit = (resolve_mu(OptimizerConfig(rank=2, mu=m)) for m in ("theory", "theory:1"))
    assert bare == explicit == theoretical_mu(r=2)
    for bad in (1.0, -0.1, "nan", "1e400", "theory:0", "theory:1.5", "theory:x", "theoryx", "", None):
        with pytest.raises(ValueError):
            parse_mu(bad)


# -- the iteration -------------------------------------------------------------

def test_fgd_equivalence_dense_recursion(rng):
    # mu = 0 must reproduce the plain factored recursion implemented
    # independently on dense matrices.
    state = ghz(3)
    smap, y = full_exact_problem(state)
    eta = 2e-3
    config = OptimizerConfig(rank=1, eta=eta, mu=0.0, maxiters=20, reltol=1e-300, init="random", seed=3)
    factor, trace = run(smap, y, config)

    u = random_init(8, 1, seed=3)
    dense_ps = [dense_monomial(code_labels(c, smap.n)) for c in smap.codes]
    s = smap.scale
    for _ in range(20):
        rho = u @ u.conj().T
        forward = np.array([s * np.trace(pmat @ rho).real for pmat in dense_ps])
        grad = np.zeros((8, 8), dtype=complex)
        for coeff, pmat in zip(forward - y, dense_ps):
            grad += s * coeff * pmat
        u = u - eta * grad @ u
    assert trace.iterations == 20
    assert np.allclose(factor, u, atol=1e-12)


def test_run_single_iteration_is_one_step(rng):
    state = ghz(3)
    smap, y = full_exact_problem(state)
    config = OptimizerConfig(rank=1, eta=1e-3, mu=0.0, maxiters=1, reltol=1e-12, init="random", seed=8)
    factor, trace = run(smap, y, config)
    u0 = random_init(8, 1, seed=8)
    expected = u0 - 1e-3 * smap.residual_gradient(y, u0)
    assert trace.iterations == 1
    assert np.allclose(factor, expected, atol=1e-14)


def test_stop_reason_tells_maxiters_from_reltol():
    smap, y = full_exact_problem(ghz(3))
    config = OptimizerConfig(
        rank=1, eta=None, mu="theory:1", maxiters=1000, reltol=1e-6, init="spectral"
    )
    factor, trace = run(smap, y, config)
    k = trace.iterations
    assert trace.stop_reason == "reltol" and k < 1000
    # A cap at the iteration that meets reltol still stops on reltol.
    capped, capped_trace = run(smap, y, dataclasses.replace(config, maxiters=k))
    assert capped_trace.stop_reason == "reltol"
    assert np.array_equal(capped, factor)
    _, short_trace = run(smap, y, dataclasses.replace(config, maxiters=k - 1))
    assert short_trace.stop_reason == "maxiters"
    assert short_trace.iterations == k - 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_n7_spectral_auto_step_converges_fast(seed):
    # Random circuit, depth 20, measpc 30, exact data, spectral init, auto
    # step, mu theory:1: with the gain divided out, reltol stops the run in
    # tens of iterations.
    state = build_state("random", 7, 20, seed)
    smap = SensingMap(7, sample_codes(7, monomial_count(30, 7), substream(seed, "monomials")))
    y = observe(state, smap, seed=seed)
    config = OptimizerConfig(rank=1, eta=None, mu="theory:1", init="spectral", seed=seed)
    factor, trace = run(smap, y, config)
    assert trace.stop_reason == "reltol" and trace.iterations <= 50
    assert frobenius_error(factor, state.amplitudes[:, None]) <= 0.01


def test_maxiters_zero_forbidden():
    with pytest.raises(ValueError):
        OptimizerConfig(rank=1, maxiters=0)


def test_noiseless_ghz4_recovery():
    state = ghz(4)
    smap, y = full_exact_problem(state)
    config = OptimizerConfig(
        rank=1, eta=None, mu="theory:1", maxiters=1000, reltol=1e-7, init="spectral"
    )
    factor, trace = run(smap, y, config, target=state)
    assert trace.final().fidelity >= 0.9999
    assert trace.final().error <= 1e-4
    errors = [rec.error for rec in trace]
    # Monotone decrease after the first few iterations.
    tail = errors[5:]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))
    assert log_linear_r2(errors) >= 0.95


def test_momentum_accelerates_on_complete_ghz6():
    state = ghz(6)
    smap, y = full_exact_problem(state)
    wins = []
    for seed in range(5):
        iters = {}
        for mu in (0.0, 0.75):
            config = OptimizerConfig(
                rank=1, eta=1e-3, mu=mu, maxiters=1000, reltol=5e-4, init="random", seed=seed
            )
            _, trace = run(smap, y, config)
            iters[mu] = trace.iterations
        wins.append(iters[0.75] < iters[0.0])
        del iters
    assert np.median([1 if w else 0 for w in wins]) == 1


def test_divergence_raises():
    # Raised at the first overflow, before numpy warns about it.
    state = ghz(3)
    smap, y = full_exact_problem(state)
    config = OptimizerConfig(rank=1, eta=1e6, mu=0.0, maxiters=500, reltol=1e-12, init="random")
    with pytest.raises(DivergenceError):
        run(smap, y, config)


def test_trace_time_monotone(rng):
    state = ghz(3)
    smap, y = full_exact_problem(state)
    config = OptimizerConfig(rank=1, eta=1e-3, mu=0.5, maxiters=30, reltol=1e-300, init="random")
    _, trace = run(smap, y, config, target=state)
    times = [rec.time_s for rec in trace]
    assert all(b >= a for a, b in zip(times, times[1:]))
    iters = [rec.iteration for rec in trace]
    assert iters == list(range(1, len(iters) + 1))


def test_target_only_feeds_metrics(rng):
    # Identical factors with and without a target: no information leakage.
    state = ghz(3)
    smap, y = full_exact_problem(state)
    config = OptimizerConfig(rank=1, eta=1e-3, mu=0.3, maxiters=25, reltol=1e-300, init="random", seed=4)
    with_target, _ = run(smap, y, config, target=state)
    without_target, _ = run(smap, y, config)
    assert np.array_equal(with_target, without_target)


def test_config_validation_bounds():
    with pytest.raises(ValueError):
        OptimizerConfig(rank=1, L_hat=1.0)  # open interval at 1
    with pytest.raises(ValueError):
        OptimizerConfig(rank=1, L_hat=1.2)
    with pytest.raises(ValueError):
        OptimizerConfig(rank=0)
    with pytest.raises(ValueError):
        OptimizerConfig(rank=1, reltol=0.0)
    with pytest.raises(ValueError):
        theoretical_mu(r=1, tau=0.5)
    with pytest.raises(ValueError):
        theoretical_mu(r=1, epsilon=0.0)


def test_rank2_target_metrics(rng):
    # Factor targets of matching rank give error but no fidelity.
    state = ghz(3)
    smap, y = full_exact_problem(state)
    config = OptimizerConfig(rank=2, eta=1e-3, mu=0.0, maxiters=5, reltol=1e-300, init="random")
    target = random_factor(rng, 8, 2)
    _, trace = run(smap, y, config, target=target)
    assert trace.final().error is not None
    assert trace.final().fidelity is None


@pytest.mark.parametrize("field", ["reltol", "eta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_config_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(rank=1, **{field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_theoretical_mu_rejects_non_finite_tau(bad):
    with pytest.raises(ValueError, match="tau"):
        theoretical_mu(r=1, tau=bad)


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(lambda: OptimizerConfig(init="x"), "init must be", id="config-init"),
        pytest.param(lambda: theoretical_mu(0), "rank must be >= 1", id="theoretical-mu-rank-0"),
    ],
)
def test_optimizer_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("shape", ["short", "column"])
@pytest.mark.parametrize("entry", ["run", "spectral_init", "compute_step_size", "parallel_gradient"])
def test_data_vector_shape_checked_up_front(entry, shape):
    # y is the (m,) float vector of metrics.as_data; an (m, 1) column is not raveled.
    smap, y = full_exact_problem(ghz(3))
    bad = y[:-1] if shape == "short" else y[:, None]
    z = random_factor(np.random.default_rng(0), smap.d, 1)
    calls = {
        "run": lambda: run(smap, bad, OptimizerConfig(maxiters=2)),
        "spectral_init": lambda: spectral_init(smap, bad, 1),
        "compute_step_size": lambda: compute_step_size(smap, bad, z),
        "parallel_gradient": lambda: parallel_gradient(smap, bad, z, 2),
    }
    with pytest.raises(ValueError, match=re.escape(f"vector has shape {bad.shape}, expected ({smap.m},)")):
        calls[entry]()
