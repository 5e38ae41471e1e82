"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Every tolerance is pinned here, not configurable.
"""

import itertools
import time

import numpy as np
import pytest

import paulitomo as pt
from paulitomo.baselines import complete_expectations
from paulitomo.cli import all_settings, monomial_count
from paulitomo.measurements import monomial_from_code
from paulitomo.seeding import substream
from paulitomo.sensing import simulate_records

from conftest import dense_monomial, inversion_shot_noise, random_factor


def _report(num, label, problems, elapsed, limit):
    if elapsed > limit:
        problems = problems + [f"runtime {elapsed:.1f}s exceeds {limit:.0f}s"]
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num:2d} [{label}]: {status} ({elapsed:.1f}s)")
    assert not problems, f"criterion {num} ({label}): " + "; ".join(problems)


def _median_fidelity(state, n, measpc, shots, seeds, eta, mu, reltol):
    fids = []
    for seed in seeds:
        m = monomial_count(measpc, n)
        monomials = pt.sample_monomials(n, m, substream(seed, "monomials"))
        smap = pt.SensingMap(n, monomials, normalized=True)
        y = pt.observe(state, smap, shots=shots, seed=seed)
        config = pt.OptimizerConfig(
            rank=1, eta=eta, mu=mu, maxiters=1000, reltol=reltol, init="random", seed=seed
        )
        _, trace = pt.run(smap, y, config, target=state)
        fids.append(trace.final().fidelity)
    return float(np.median(fids))


def test_criterion_01_measurement_pipeline_oracle():
    start = time.perf_counter()
    problems = []
    states = {
        "ghz3": pt.ghz(3),
        "hadamard3": pt.hadamard_all(3),
        "random3": pt.random_state(pt.RandomCircuitSpec(n=3, depth=10, seed=7)),
    }
    for name, state in states.items():
        rho = pt.density_of(state)
        for code in range(64):
            p = monomial_from_code(code, 3)
            setting = pt.setting_of(p)
            probs = pt.born_probabilities(state, setting)
            v_record = pt.expectation_from_distribution(setting, probs, p)
            v_exact = pt.exact_expectation(state, p)
            v_dense = float(np.trace(dense_monomial(p.labels) @ rho).real)
            if abs(v_record - v_dense) > 1e-10 or abs(v_exact - v_dense) > 1e-10:
                problems.append(f"{name}/{p}: {v_record} vs {v_exact} vs {v_dense}")
    _report(1, "measurement-pipeline oracle equivalence", problems, time.perf_counter() - start, 5.0)


def test_criterion_02_noiseless_exact_recovery():
    start = time.perf_counter()
    problems = []
    state = pt.ghz(4)
    smap = pt.SensingMap(4, [monomial_from_code(c, 4) for c in range(256)], normalized=True)
    y = pt.observe(state, smap)
    config = pt.OptimizerConfig(
        rank=1, eta=None, mu="theory:1", maxiters=1000, reltol=1e-7, init="spectral", L_hat=1.1
    )
    _, trace = pt.run(smap, y, config, target=state)
    final = trace.final()
    if trace.iterations > 1000:
        problems.append(f"{trace.iterations} iterations")
    if final.fidelity < 0.9999:
        problems.append(f"fidelity {final.fidelity:.6f} < 0.9999")
    if final.error > 1e-4:
        problems.append(f"error {final.error:.2e} > 1e-4")
    errors = np.array([rec.error for rec in trace])
    errors = errors[errors > 1e-13]
    x = np.arange(errors.size)
    logs = np.log10(errors)
    fit = np.polyval(np.polyfit(x, logs, 1), x)
    r2 = 1.0 - np.sum((logs - fit) ** 2) / np.sum((logs - logs.mean()) ** 2)
    if r2 < 0.95:
        problems.append(f"log-error linear fit R^2 = {r2:.3f} < 0.95")
    _report(2, "noiseless exact recovery", problems, time.perf_counter() - start, 30.0)


def test_criterion_03_fidelity_table_desk_scale():
    start = time.perf_counter()
    problems = []
    cases = [
        ("GHZ(3)", pt.ghz(3), 3, 0.985),
        ("Hadamard(4)", pt.hadamard_all(4), 4, 0.985),
        ("GHZ(6)", pt.ghz(6), 6, 0.97),
    ]
    for label, state, n, threshold in cases:
        median = _median_fidelity(
            state, n, measpc=50.0, shots=2048, seeds=range(5), eta=1e-3, mu=0.75, reltol=1e-5
        )
        if median < threshold:
            problems.append(f"{label} median fidelity {median:.6f} < {threshold}")
    _report(3, "fidelity table at desk scale", problems, time.perf_counter() - start, 180.0)


def test_criterion_04_momentum_acceleration():
    start = time.perf_counter()
    problems = []
    state = pt.ghz(6)
    iterations = {0.0: [], 0.75: []}
    for seed in range(5):
        m = monomial_count(20.0, 6)
        monomials = pt.sample_monomials(6, m, substream(seed, "monomials"))
        smap = pt.SensingMap(6, monomials, normalized=True)
        y = pt.observe(state, smap)  # noiseless
        for mu in iterations:
            config = pt.OptimizerConfig(
                rank=1, eta=1e-3, mu=mu, maxiters=1000, reltol=5e-4, init="random", seed=seed
            )
            _, trace = pt.run(smap, y, config)
            iterations[mu].append(trace.iterations)
    accel = float(np.median(iterations[0.75]))
    plain = float(np.median(iterations[0.0]))
    if not accel < plain:
        problems.append(f"median iterations {accel} (mu=3/4) !< {plain} (mu=0)")
    _report(4, "momentum acceleration", problems, time.perf_counter() - start, 120.0)


def _full_tomography(state, shots):
    records = simulate_records(state, all_settings(state.n), shots=shots, seed=0)
    raw = pt.pauli_linear_inversion(complete_expectations(records))
    return raw, pt.project_to_density(raw)


def test_criterion_05_baseline_agreement():
    # Linear inversion is unbiased with a known shot-noise error E, and the
    # Frobenius-nearest density matrix is no further from any density matrix;
    # fidelity 0.99 is reached at 8192 shots, not at the paper's 2048.
    start = time.perf_counter()
    problems = []
    fidelities = []
    for label, state in (("GHZ(3)", pt.ghz(3)), ("GHZ(4)", pt.ghz(4))):
        target = pt.density_of(state)
        raw, rho = _full_tomography(state, shots=2048)
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            problems.append(f"{label} estimate not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            problems.append(f"{label} trace {np.trace(rho).real:.12f} != 1")
        min_eig = float(np.linalg.eigvalsh(rho).min())
        if min_eig < -1e-10:
            problems.append(f"{label} min eigenvalue {min_eig:.2e} < -1e-10")
        raw_err = float(np.linalg.norm(raw - target))
        err = float(np.linalg.norm(rho - target))
        if err > raw_err + 1e-12:
            problems.append(f"{label} projection moved away: {err:.6f} > raw {raw_err:.6f}")
        ratio = raw_err**2 / inversion_shot_noise(state.amplitudes, shots=2048)
        if ratio > 2.0:
            problems.append(f"{label} raw squared error {ratio:.2f} x shot noise > 2")
        fidelities.append(f"{label} F={pt.fidelity_density(rho, state):.4f}")
        _, rho_large = _full_tomography(state, shots=8192)
        fidelity = pt.fidelity_density(rho_large, state)
        if fidelity < 0.99:
            problems.append(f"{label} fidelity {fidelity:.6f} < 0.99 at 8192 shots")
    label = "full-tomography baseline agreement; 2048 shots: " + ", ".join(fidelities)
    _report(5, label, problems, time.perf_counter() - start, 30.0)


def test_criterion_06_adjointness_and_dense_equality():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(606)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        d = 2**n
        m = int(rng.integers(1, 4**n + 1))
        r = int(rng.integers(1, 3))
        monomials = pt.sample_monomials(n, m, rng)
        smap = pt.SensingMap(n, monomials, normalized=bool(rng.integers(2)))
        u = random_factor(rng, d, r)
        x = rng.standard_normal(m)
        dense_ps = [smap.scale * dense_monomial(p.labels) for p in monomials]
        rho = u @ u.conj().T
        forward = smap.forward_factored(u)
        dense_forward_vals = np.array([np.trace(pm @ rho).real for pm in dense_ps])
        adjoint_mat = sum(xi * pm for xi, pm in zip(x, dense_ps))
        adjoint = smap.adjoint_times(x, u)
        if np.max(np.abs(forward - dense_forward_vals)) > 1e-8:
            problems.append(f"trial {trial}: forward mismatch")
        if np.max(np.abs(adjoint - adjoint_mat @ u)) > 1e-8:
            problems.append(f"trial {trial}: adjoint mismatch")
        lhs = float(np.dot(forward, x))
        rhs = float(np.trace(rho.conj().T @ adjoint_mat).real)
        if abs(lhs - rhs) > 1e-8 * max(1.0, abs(lhs)):
            problems.append(f"trial {trial}: adjoint identity off by {abs(lhs - rhs):.2e}")
    _report(6, "adjointness and matrix-free correctness", problems, time.perf_counter() - start, 10.0)


def test_criterion_07_parallel_determinism():
    start = time.perf_counter()
    problems = []
    state = pt.hadamard_all(6)
    monomials = [monomial_from_code(c, 6) for c in range(4**6)]
    smap = pt.SensingMap(6, monomials, normalized=True)
    y = pt.observe(state, smap)
    z = pt.random_init(64, 1, seed=7)
    serial_grad = smap.residual_gradient(y, z)
    for p in (1, 2, 4, 8):
        par = pt.parallel_gradient(smap, y, z, p)
        gap = float(np.max(np.abs(par - serial_grad)))
        if gap > 1e-10:
            problems.append(f"p={p}: gradient entry gap {gap:.2e} > 1e-10")
    config = pt.OptimizerConfig(
        rank=1, eta=1e-3, mu=0.75, maxiters=300, reltol=1e-5, init="random", seed=7
    )
    _, serial_trace = pt.run(smap, y, config, target=state)
    serial_wall = serial_trace.final().time_s
    for p in (1, 2, 4, 8):
        _, par_trace = pt.parallel_run(smap, y, config, p, target=state)
        gap = abs(par_trace.final().fidelity - serial_trace.final().fidelity)
        if gap > 1e-6:
            problems.append(f"p={p}: fidelity gap {gap:.2e} > 1e-6")
        print(f"  [info] parallel_run p={p}: grad wall {sum(r.grad_time_s for r in par_trace):.2f}s "
              f"vs serial {serial_wall:.2f}s total")
    _report(7, "parallel determinism", problems, time.perf_counter() - start, 120.0)


def test_criterion_08_synthetic_benchmark():
    start = time.perf_counter()
    problems = []
    problem = pt.SyntheticProblem(d=256, r=5, c=5, noise_norm=0.0, seed=0)
    report = pt.run_synthetic_comparison(problem, (0.0, 2.0 / 3.0), tol=1e-3, maxiters=4000)
    plain, accel = report["runs"]
    if not plain["converged"]:
        problems.append("plain run did not converge")
    if not accel["converged"]:
        problems.append("momentum run did not converge")
    if not accel["iterations"] < plain["iterations"]:
        problems.append(
            f"iterations {accel['iterations']} (mu=2/3) !< {plain['iterations']} (mu=0)"
        )
    noisy_problem = pt.SyntheticProblem(d=256, r=5, c=5, noise_norm=0.01, seed=0)
    noisy = pt.run_synthetic_comparison(noisy_problem, (2.0 / 3.0,), tol=1e-3, maxiters=4000)
    err = noisy["runs"][0]["final_relative_error"]
    if not 1e-3 <= err <= 1e-1:
        problems.append(f"noisy final relative error {err:.2e} outside [1e-3, 1e-1]")
    _report(8, "synthetic matrix-sensing benchmark", problems, time.perf_counter() - start, 300.0)


def test_criterion_09_mitigation_correctness():
    start = time.perf_counter()
    problems = []
    # Oracle example 1: identity calibration fixes simplex vectors.
    cal = pt.CalibrationMatrix(np.eye(4))
    v = np.array([0.1, 0.2, 0.3, 0.4])
    if not np.allclose(pt.readout_mitigate(cal, v), v, atol=1e-8):
        problems.append("identity calibration does not fix a simplex vector")
    # Oracle example 2: identity calibration projects arbitrary vectors.
    v2 = np.array([0.9, 0.4, -0.1, 0.05])
    if not np.allclose(
        pt.readout_mitigate(pt.CalibrationMatrix(np.eye(4)), v2), pt.simplex_project(v2), atol=1e-8
    ):
        problems.append("identity calibration does not reduce to simplex projection")
    # Oracle example 3: 2x2 instance against exhaustive line search.
    c2 = np.array([[0.9, 0.2], [0.1, 0.8]])
    v_meas = np.array([0.7, 0.3])
    ts = np.linspace(0.0, 1.0, 200001)
    cands = np.stack([ts, 1 - ts], axis=1)
    objs = np.linalg.norm(cands @ c2.T - v_meas, axis=1) ** 2
    v_cal = pt.readout_mitigate(pt.CalibrationMatrix(c2), v_meas)
    if np.linalg.norm(v_cal - cands[objs.argmin()]) > 1e-4:
        problems.append("2x2 instance deviates from line-search oracle")
    # 50 random 4-dimensional instances against a fine simplex grid.
    rng = np.random.default_rng(909)
    step = 1.0 / 60.0
    grid = []
    for i, j, k in itertools.product(range(61), repeat=3):
        if i + j + k <= 60:
            grid.append((i * step, j * step, k * step, 1.0 - (i + j + k) * step))
    grid = np.array(grid)
    for trial in range(50):
        raw = rng.uniform(0.05, 1.0, size=(4, 4))
        c = raw / raw.sum(axis=0, keepdims=True)
        v_meas = rng.uniform(-0.2, 1.2, size=4)
        v_cal = pt.readout_mitigate(pt.CalibrationMatrix(c), v_meas)
        obj = np.linalg.norm(c @ v_cal - v_meas) ** 2
        grid_best = float((np.linalg.norm(grid @ c.T - v_meas, axis=1) ** 2).min())
        if obj > grid_best + 1e-3:
            problems.append(f"trial {trial}: objective {obj:.6f} > grid best {grid_best:.6f} + 1e-3")
    _report(9, "readout mitigation correctness", problems, time.perf_counter() - start, 30.0)


def test_criterion_10_property_suites():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1010)

    def unitary(r):
        q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        return q

    for trial in range(100):
        u = random_factor(rng, 6, 2)
        v = random_factor(rng, 6, 2)
        w = random_factor(rng, 6, 2)
        duv, dvu = pt.procrustes_distance(u, v), pt.procrustes_distance(v, u)
        if abs(duv - dvu) > 1e-8:
            problems.append(f"procrustes symmetry trial {trial}")
        if pt.procrustes_distance(u, u @ unitary(2)) > 1e-8:
            problems.append(f"procrustes rotation-orbit zero trial {trial}")
        if duv > pt.procrustes_distance(u, w) + pt.procrustes_distance(w, v) + 1e-8:
            problems.append(f"procrustes triangle trial {trial}")
    for trial in range(100):
        u = random_factor(rng, 6, 2)
        v = random_factor(rng, 6, 2)
        base = pt.frobenius_error(u, v)
        if abs(pt.frobenius_error(u @ unitary(2), v) - base) > 1e-10:
            problems.append(f"frobenius invariance (left) trial {trial}")
        if abs(pt.frobenius_error(u, v @ unitary(2)) - base) > 1e-10:
            problems.append(f"frobenius invariance (right) trial {trial}")
    for trial in range(100):
        vec = rng.uniform(-3, 3, size=int(rng.integers(1, 9)))
        proj = pt.simplex_project(vec)
        if proj.min() < 0 or abs(proj.sum() - 1.0) > 1e-9:
            problems.append(f"simplex feasibility trial {trial}")
            continue
        support = proj > 1e-12
        shift = vec[support] - proj[support]
        theta = shift.mean()
        if not np.allclose(shift, theta, atol=1e-9) or np.any(vec[~support] > theta + 1e-9):
            problems.append(f"simplex KKT trial {trial}")
    for trial in range(100):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (a + a.conj().T) / 2
        rho = pt.project_to_density(h)
        again = pt.project_to_density(rho)
        if np.max(np.abs(again - rho)) > 1e-10:
            problems.append(f"projection idempotence trial {trial}")
    _report(10, "metric and projection property suites", problems, time.perf_counter() - start, 120.0)
