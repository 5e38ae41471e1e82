import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulitomo import (
    CalibrationMatrix,
    MitigationError,
    density_of,
    ghz,
    hadamard_all,
    pauli_linear_inversion,
    project_to_density,
    random_state,
    readout_mitigate,
    simplex_project,
    RandomCircuitSpec,
)
from paulitomo.baselines import complete_expectations
from paulitomo.cli import all_settings
from paulitomo.measurements import MeasurementRecord, PauliSetting, exact_expectation, monomial_from_code
from paulitomo.sensing import simulate_records

from conftest import dense_monomial, inversion_shot_noise


def exact_samples(state):
    n = state.n
    return np.array([exact_expectation(state, monomial_from_code(c, n)) for c in range(4**n)])


# -- simplex projection --------------------------------------------------------

def test_simplex_fixed_point():
    v = np.array([0.2, 0.5, 0.3])
    assert np.allclose(simplex_project(v), v, atol=1e-12)


def test_simplex_two_dim_kkt():
    # By hand: argmin over the segment (t, 1-t) of ||w - (2, 0)|| is (1, 0).
    assert np.allclose(simplex_project(np.array([2.0, 0.0])), [1.0, 0.0])


def test_simplex_with_negative_entry_grid_oracle():
    v = np.array([0.5, 0.5, -1.0])
    best, best_val = None, np.inf
    ts = np.linspace(0, 1, 401)
    for a in ts:
        for b in ts[ts <= 1 - a + 1e-12]:
            w = np.array([a, b, 1 - a - b])
            if w[2] < -1e-12:
                continue
            val = np.linalg.norm(w - v)
            if val < best_val:
                best, best_val = w, val
    assert np.linalg.norm(simplex_project(v) - best) < 1e-2  # grid pitch
    assert np.linalg.norm(v - simplex_project(v)) <= best_val + 1e-6


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_simplex_kkt_conditions(values):
    v = np.array(values)
    w = simplex_project(v)
    assert w.min() >= 0
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    # KKT: on the support, v - w is a constant shift; off it, v <= shift.
    support = w > 1e-12
    shifts = v[support] - w[support]
    theta = shifts.mean()
    assert np.allclose(shifts, theta, atol=1e-9)
    assert np.all(v[~support] <= theta + 1e-9)


# -- density projection ---------------------------------------------------------

def test_project_density_fixed_point():
    rho = density_of(ghz(3))
    assert np.allclose(project_to_density(rho), rho, atol=1e-10)


def test_project_density_diag_example():
    out = project_to_density(np.diag([2.0, 0.0]).astype(complex))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_project_density_against_grid(rng):
    # Eigenvalue-space grid search certifies near-optimality in Frobenius norm.
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    out = project_to_density(h)
    dist = np.linalg.norm(out - h)
    vals, vecs = np.linalg.eigh(h)
    grid = np.linspace(0, 1, 25)
    best = np.inf
    for probs in itertools.product(grid, repeat=3):
        if sum(probs) > 1 + 1e-12:
            continue
        w = np.array([*probs, 1 - sum(probs)])
        cand = (vecs * w[None, :]) @ vecs.conj().T
        best = min(best, np.linalg.norm(cand - h))
    assert dist <= best + 1e-3


def test_project_density_idempotent_and_valid(rng):
    for _ in range(10):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (a + a.conj().T) / 2
        rho = project_to_density(h)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(project_to_density(rho), rho, atol=1e-10)


def test_project_density_rejects_non_hermitian(rng):
    with pytest.raises(ValueError):
        project_to_density(rng.standard_normal((3, 3)) + np.triu(np.ones((3, 3)), 1))


# -- linear inversion ------------------------------------------------------------

def test_linear_inversion_recovers_pure_states():
    for state in (ghz(3), hadamard_all(3), random_state(RandomCircuitSpec(3, 12, 4)), ghz(4)):
        rho = pauli_linear_inversion(exact_samples(state))
        assert np.allclose(rho, density_of(state), atol=1e-10)


def test_linear_inversion_identity_only():
    n = 2
    values = np.zeros(4**n)
    values[0] = 1.0
    rho = pauli_linear_inversion(values)
    assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)


def test_linear_inversion_trace_is_identity_value(rng):
    n = 2
    values = rng.uniform(-1, 1, size=16)
    rho = pauli_linear_inversion(values)
    identity_value = values[0]
    assert np.trace(rho).real == pytest.approx(identity_value, abs=1e-12)


def test_linear_inversion_matches_kron_oracle(rng):
    n = 2
    values = rng.uniform(-1, 1, size=16)
    rho = pauli_linear_inversion(values)
    expected = sum(
        v * dense_monomial(monomial_from_code(c, n).labels) for c, v in enumerate(values)
    ) / 4
    assert np.allclose(rho, expected, atol=1e-12)


def test_linear_inversion_requires_complete_set():
    values = exact_samples(ghz(3))
    out_of_range, not_finite = values.copy(), values.copy()
    out_of_range[5], not_finite[5] = 1.5, np.nan
    for bad in (values[:-1], np.append(values, 0.0), values[:15], values.reshape(8, 8),
                out_of_range, not_finite, np.ones(1), np.zeros(4**9)):
        with pytest.raises(ValueError):
            pauli_linear_inversion(bad)


# -- full-tomography estimation ---------------------------------------------------

def test_complete_expectations_order_and_coverage():
    state = hadamard_all(2)
    records = simulate_records(state, all_settings(2), shots=512, seed=0)
    values = complete_expectations(records)
    assert isinstance(values, np.ndarray) and values.shape == (16,)
    assert values[0] == 1.0  # identity estimate is exact


def test_complete_expectations_large_shot_convergence():
    state = random_state(RandomCircuitSpec(2, 10, 3))
    records = simulate_records(state, all_settings(2), shots=400_000, seed=1)
    values = complete_expectations(records)
    for code, value in enumerate(values):
        expected = exact_expectation(state, monomial_from_code(code, 2))
        assert value == pytest.approx(expected, abs=0.02)


def test_complete_expectations_averages_compatible_settings():
    # A monomial P is shared by the 3^(n-|P|) settings that measure it; its
    # estimate must be the mean of those per-record estimates.
    from paulitomo.measurements import expectation_from_record

    for n in (2, 3):
        state = random_state(RandomCircuitSpec(n, 8, 5))
        records = simulate_records(state, all_settings(n), shots=256, seed=2)
        values = complete_expectations(records)
        for code in range(4**n):
            p = monomial_from_code(code, n)
            measured_by = [
                r for r in records
                if all(l == 0 or a == "xyz"[l - 1] for a, l in zip(r.setting.axes, p.labels))
            ]
            per_record = [expectation_from_record(r, p) for r in measured_by]
            assert len(per_record) == 3 ** p.labels.count(0)
            assert values[code] == pytest.approx(np.mean(per_record), abs=1e-12)


def test_complete_expectations_requires_all_settings():
    state = hadamard_all(2)
    records = simulate_records(state, all_settings(2)[:-1], shots=64, seed=0)
    with pytest.raises(ValueError):
        complete_expectations(records)


def test_complete_expectations_names_a_setting_of_another_qubit_count():
    # n is read from the first record; zz is refused by name before the
    # counts are stacked.
    records = [
        MeasurementRecord(PauliSetting(axes), 4, np.eye(2 ** len(axes), dtype=np.int64)[0] * 4)
        for axes in ("x", "y", "zz")
    ]
    with pytest.raises(ValueError, match="'zz'"):
        complete_expectations(records)


def test_baseline_pipeline_fidelity_at_large_shots():
    state = ghz(3)
    records = simulate_records(state, all_settings(3), shots=8192, seed=0)
    rho = project_to_density(pauli_linear_inversion(complete_expectations(records)))
    fid = np.vdot(state.amplitudes, rho @ state.amplitudes).real
    assert fid >= 0.99


@pytest.mark.parametrize(
    "state", [ghz(3), random_state(RandomCircuitSpec(n=3, depth=10, seed=7))], ids=["ghz3", "random3"]
)
def test_linear_inversion_error_matches_shot_noise(state):
    # Calibrates E, the bound acceptance criterion 05 rests on: the mean of
    # ||rho_raw - rho||_F^2 / E over seeds is 1 for a correct estimator.
    target = density_of(state)
    expected = inversion_shot_noise(state.amplitudes, shots=2048)
    ratios = []
    for seed in range(50):
        records = simulate_records(state, all_settings(3), shots=2048, seed=seed)
        raw = pauli_linear_inversion(complete_expectations(records))
        ratios.append(np.linalg.norm(raw - target) ** 2 / expected)
    assert 0.85 <= np.mean(ratios) <= 1.15


# -- readout mitigation ------------------------------------------------------------

def test_mitigate_identity_calibration_on_simplex():
    cal = CalibrationMatrix(np.eye(4))
    v = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(readout_mitigate(cal, v), v, atol=1e-9)


def test_mitigate_identity_projects():
    cal = CalibrationMatrix(np.eye(3))
    v = np.array([0.9, 0.4, -0.1])
    assert np.allclose(readout_mitigate(cal, v), simplex_project(v), atol=1e-9)


def line_search_oracle_2d(c, v_meas, grid=200001):
    ts = np.linspace(0.0, 1.0, grid)
    candidates = np.stack([ts, 1.0 - ts], axis=1)
    objectives = np.linalg.norm(candidates @ c.T - v_meas, axis=1) ** 2
    best = objectives.argmin()
    return candidates[best], objectives[best]


def test_mitigate_2x2_against_line_search():
    c = np.array([[0.9, 0.2], [0.1, 0.8]])
    v_meas = np.array([0.7, 0.3])
    cal = CalibrationMatrix(c)
    v_cal = readout_mitigate(cal, v_meas)
    oracle_v, oracle_obj = line_search_oracle_2d(c, v_meas)
    assert np.linalg.norm(v_cal - oracle_v) < 1e-4
    assert np.linalg.norm(c @ v_cal - v_meas) ** 2 <= oracle_obj + 1e-8


def test_mitigate_near_singular_calibration_inside_the_simplex():
    # A near-singular C (condition number 500): the exact answer lies in the
    # simplex, so solving C v = v_meas gives the minimizer outright, where the
    # constant-step projected gradient would crawl past its iteration cap.
    c = np.array([[0.501, 0.499], [0.499, 0.501]])
    v_meas = c @ np.array([0.6, 0.4])
    v = readout_mitigate(CalibrationMatrix(c), v_meas)
    assert np.allclose(v, [0.6, 0.4], rtol=0.0, atol=1e-12)


def test_mitigate_singular_calibration_falls_back_to_projected_gradient():
    c = np.array([[0.5, 0.5], [0.5, 0.5]])
    v = readout_mitigate(CalibrationMatrix(c), np.array([0.5, 0.5]))
    assert np.allclose(v, [0.5, 0.5], atol=1e-12)


def test_mitigate_raises_at_the_iteration_cap():
    # The same C with an answer outside the simplex: the projected gradient
    # runs and, with the condition number 500, is still falling by more than
    # the 1e-10 relative tolerance per step at the 100,000-iteration cap
    # (objective about 1.1e-6).
    c = np.array([[0.501, 0.499], [0.499, 0.501]])
    v_meas = c @ np.array([1.05, -0.05])
    with pytest.raises(MitigationError, match="did not converge") as info:
        readout_mitigate(CalibrationMatrix(c), v_meas)
    assert info.value.objective > 0


def test_mitigate_feasible_and_no_worse_than_projection(rng):
    for _ in range(25):
        raw = rng.uniform(0.05, 1.0, size=(4, 4))
        cal = CalibrationMatrix(raw / raw.sum(axis=0, keepdims=True))
        v_meas = rng.uniform(-0.2, 1.0, size=4)
        v_cal = readout_mitigate(cal, v_meas)
        assert v_cal.min() >= -1e-12
        assert v_cal.sum() == pytest.approx(1.0, abs=1e-8)
        start = simplex_project(v_meas)
        assert (
            np.linalg.norm(cal.entries @ v_cal - v_meas) ** 2
            <= np.linalg.norm(cal.entries @ start - v_meas) ** 2 + 1e-12
        )


def test_calibration_validation():
    with pytest.raises(ValueError):
        CalibrationMatrix(np.array([[0.5, 0.2], [0.4, 0.8]]))  # column sum != 1
    with pytest.raises(ValueError):
        CalibrationMatrix(np.array([[1.1, 0.0], [-0.1, 1.0]]))  # negative entry


def test_calibration_rejects_nan_entry():
    with pytest.raises(ValueError):
        CalibrationMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simplex_project_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        simplex_project(np.array([bad, 1.0]))


def _nine_qubit_record():
    return MeasurementRecord(PauliSetting("z" * 9), 1, np.eye(1, 512, dtype=int)[0])


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(lambda: CalibrationMatrix(np.ones((2, 3)) / 2), "must be square",
                     id="calibration-non-square"),
        pytest.param(lambda: simplex_project([]), "empty vector", id="simplex-empty"),
        pytest.param(lambda: project_to_density(np.eye(2, 3)), "square matrix", id="density-non-square"),
        pytest.param(lambda: project_to_density(np.eye(512)), "capped at n <= 8", id="density-9-qubits"),
        pytest.param(lambda: complete_expectations([]), "no records", id="complete-empty"),
        pytest.param(lambda: complete_expectations([_nine_qubit_record()]), "capped at n <= 8",
                     id="complete-9-qubits"),
        pytest.param(lambda: readout_mitigate(CalibrationMatrix(np.eye(2)), [1.0, 0.0, 0.0]),
                     "has size 3, expected 2", id="mitigate-wrong-size"),
    ],
)
def test_baselines_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
