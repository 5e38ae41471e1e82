import json

import numpy as np
import pytest

from paulitomo import (
    CalibrationMatrix,
    OptimizerConfig,
    SensingMap,
    ghz,
    observe_with_records,
    random_state,
    run,
    sample_monomials,
    RandomCircuitSpec,
)
from paulitomo import serialize
from paulitomo.measurements import MeasurementRecord, PauliSetting


def test_state_round_trip(tmp_path):
    state = random_state(RandomCircuitSpec(3, 15, 2))
    path = tmp_path / "state.json"
    serialize.save_json(serialize.state_to_json(state), path)
    obj = serialize.load_json(path)
    assert obj["n"] == 3
    amplitudes = np.array([complex(re, im) for re, im in obj["amplitudes"]])
    assert np.array_equal(amplitudes, state.amplitudes)


def test_state_schema_shape(tmp_path):
    obj = serialize.state_to_json(ghz(3))
    assert set(obj) == {"n", "amplitudes"}
    assert len(obj["amplitudes"]) == 8
    assert all(len(pair) == 2 for pair in obj["amplitudes"])


def test_records_round_trip(tmp_path):
    state = ghz(3)
    smap = SensingMap(3, sample_monomials(3, 20, 1), normalized=True)
    _, records = observe_with_records(state, smap, shots=256, seed=3)
    path = tmp_path / "records.json"
    serialize.save_json(serialize.records_to_json(3, 256, records), path)
    obj = serialize.load_json(path)
    assert (obj["version"], obj["n"], obj["shots"]) == (1, 3, 256)
    assert [entry["setting"] for entry in obj["records"]] == [r.setting.axes for r in records]
    for entry, record in zip(obj["records"], records):
        nonzero = np.flatnonzero(record.counts)
        assert entry["counts"] == {format(j, "03b"): int(record.counts[j]) for j in nonzero}


def test_records_json_round_trips_unchanged():
    obj = {
        "version": 1,
        "n": 2,
        "shots": 10,
        "records": [
            {"setting": "xz", "counts": {"00": 3, "11": 7}},
            {"setting": "yy", "counts": {"01": 1, "10": 4, "11": 5}},
        ],
    }
    records = [
        MeasurementRecord(PauliSetting("xz"), 10, np.array([3, 0, 0, 7])),
        MeasurementRecord(PauliSetting("yy"), 10, np.array([0, 1, 4, 5])),
    ]
    assert json.dumps(serialize.records_to_json(2, 10, records)) == json.dumps(obj)


def test_expectations_round_trip(tmp_path):
    state = ghz(3)
    smap = SensingMap(3, sample_monomials(3, 25, 4), normalized=True)
    obs, _ = observe_with_records(state, smap, shots=128, seed=4)
    obj = serialize.expectations_to_json(smap, obs)
    loaded_map, loaded_obs = serialize.expectations_from_json(obj)
    assert loaded_map.normalized
    assert np.array_equal(loaded_map.codes, smap.codes)
    assert np.array_equal(loaded_obs, obs)
    assert loaded_obs.dtype == np.float64 and loaded_obs.shape == (25,)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_expectations_from_json_refuses_non_finite(literal):
    # Python's json reads these literals as floats, so the file edge must refuse them.
    text = '{"version": 1, "n": 1, "normalized": true, "items": [{"monomial": "X", "value": 0.5}, '
    text += f'{{"monomial": "Z", "value": {literal}}}]}}'
    with pytest.raises(ValueError, match="observation values.*finite"):
        serialize.expectations_from_json(json.loads(text))


def test_expectations_from_json_refuses_empty_items():
    with pytest.raises(ValueError, match="one or more"):
        serialize.expectations_from_json({"version": 1, "n": 2, "normalized": True, "items": []})


def test_expectations_json_items_and_lower_case():
    smap = SensingMap(2, np.array([7, 0, 15]))
    obj = serialize.expectations_to_json(smap, np.array([0.5, 1.0, -0.25]))
    assert obj["items"] == [
        {"monomial": "XZ", "value": 0.5},
        {"monomial": "II", "value": 1.0},
        {"monomial": "ZZ", "value": -0.25},
    ]
    for item in obj["items"]:
        item["monomial"] = item["monomial"].lower()
    loaded_map, _ = serialize.expectations_from_json(obj)
    assert loaded_map.codes.tolist() == [7, 0, 15]


@pytest.mark.parametrize(
    "labels, bad",
    [
        (["XZ", "XZY", "ZZQ"], "XZY"),  # wrong length
        (["XZ", "XQ", "Z"], "XQ"),  # a letter outside IXYZ
        (["XZ", "XÉ", "Q"], "XÉ"),  # a letter outside ASCII
        (["XZ", "ıX"], "ıX"),  # a letter whose upper case is I
    ],
)
def test_expectations_from_json_names_the_first_bad_monomial(labels, bad):
    obj = {"version": 1, "n": 2, "normalized": True,
           "items": [{"monomial": text, "value": 0.0} for text in labels]}
    with pytest.raises(ValueError) as info:
        serialize.expectations_from_json(obj)
    assert str(info.value) == f"expectations file: monomial {bad!r} is not 2 letters of IXYZ"


@pytest.mark.parametrize("items", [[{"monomial": "", "value": 1.0}], []])
def test_expectations_from_json_refuses_n_below_one(items):
    obj = {"version": 1, "n": 0, "normalized": True, "items": items}
    with pytest.raises(ValueError, match="qubit count must be positive, got 0"):
        serialize.expectations_from_json(obj)


def test_json_float_round_trip_is_exact(tmp_path):
    values = np.array([1 / 3, np.pi, -0.12345678901234567])
    path = tmp_path / "vals.json"
    with open(path, "w") as fh:
        json.dump(values.tolist(), fh)
    with open(path) as fh:
        loaded = np.array(json.load(fh))
    assert np.array_equal(values, loaded)


def test_result_schema(tmp_path):
    state = ghz(3)
    smap = SensingMap(3, sample_monomials(3, 30, 5), normalized=True)
    obs, _ = observe_with_records(state, smap, shots=256, seed=5)
    config = OptimizerConfig(rank=1, eta=1e-3, mu=0.5, maxiters=10, reltol=1e-300, init="random")
    factor, trace = run(smap, obs, config, target=state)
    obj = serialize.result_to_json(config, trace, factor, save_factor=True)
    assert obj["iterations"] == 10
    assert obj["final_fidelity"] == trace.final().fidelity
    assert obj["final_frobenius_error"] == trace.final().error
    assert obj["final_rho_trace"] == np.linalg.norm(factor) ** 2
    assert len(obj["trace"]) == 10
    rec = obj["trace"][0]
    assert set(rec) == {"iter", "change", "error", "fidelity", "time_s", "grad_time_s"}
    assert (obj["factor"]["rows"], obj["factor"]["cols"]) == factor.shape
    restored = np.array([[complex(re, im) for re, im in col] for col in obj["factor"]["columns"]]).T
    assert np.allclose(restored, factor)
    json.dumps(obj)  # must be serializable as-is


def test_numpy_integer_config_round_trips_through_a_result_file(tmp_path):
    # The config stores the checked counts and seed as plain ints.
    state = ghz(3)
    smap = SensingMap(3, sample_monomials(3, 30, 5), normalized=True)
    obs, _ = observe_with_records(state, smap, shots=256, seed=5)
    config = OptimizerConfig(rank=np.int64(1), maxiters=np.int64(5), seed=np.int64(2), eta=1e-3,
                             reltol=1e-300, init="random")
    factor, trace = run(smap, obs, config, target=state)
    path = tmp_path / "result.json"
    serialize.save_json(serialize.result_to_json(config, trace, factor), path)
    loaded = serialize.load_json(path)
    assert (loaded["config"]["rank"], loaded["config"]["maxiters"], loaded["config"]["seed"]) == (1, 5, 2)
    assert loaded["iterations"] == 5


def test_numpy_integer_map_writes_an_expectations_file(tmp_path):
    smap = SensingMap(np.int64(3), np.array([1, 27, 63]))
    assert type(smap.n) is int
    path = tmp_path / "e.json"
    serialize.save_json(serialize.expectations_to_json(smap, [0.5, -0.25, 1.0]), path)
    loaded_map, values = serialize.expectations_from_json(serialize.load_json(path))
    assert loaded_map.n == 3 and np.array_equal(loaded_map.codes, smap.codes)
    assert values.tolist() == [0.5, -0.25, 1.0]


def test_failed_save_json_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    serialize.save_json({"kept": 1}, path)
    with pytest.raises(TypeError, match="not JSON serializable"):
        serialize.save_json({"bad": object()}, path)
    assert serialize.load_json(path) == {"kept": 1}


def test_trace_csv(tmp_path):
    state = ghz(3)
    smap = SensingMap(3, sample_monomials(3, 30, 6), normalized=True)
    obs, _ = observe_with_records(state, smap, shots=256, seed=6)
    config = OptimizerConfig(rank=1, eta=1e-3, mu=0.0, maxiters=5, reltol=1e-300, init="random")
    _, trace = run(smap, obs, config)
    path = tmp_path / "trace.csv"
    serialize.trace_to_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,change,error,fidelity,time_s"
    assert len(lines) == 6
    assert lines[1].split(",")[2] == ""  # no target: error column empty


def test_calibration_round_trip(tmp_path):
    raw = np.array([[0.9, 0.2], [0.1, 0.8]])
    obj = {"n": 1, "columns": [[0.9, 0.1], [0.2, 0.8]]}  # column-major
    loaded = serialize.calibration_from_json(obj)
    assert isinstance(loaded, CalibrationMatrix)
    assert np.array_equal(loaded.entries, raw)
