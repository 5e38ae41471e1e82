import json
import os
import re
import resource
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from paulitomo import (
    OptimizerConfig,
    PauliSetting,
    SensingMap,
    born_probabilities,
    ghz,
    observe,
    run,
    sample_monomials,
    sample_record,
)
from paulitomo import cli, serialize
from paulitomo.cli import cli_main, monomial_count
from paulitomo.seeding import substream


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def invoke(*args):
    return cli_main([str(a) for a in args])


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_monomial_count_table():
    # Hand-computed round-half-up values of measpc/100 * 4^n.
    expected = {
        (5, 3): 3, (10, 3): 6, (15, 3): 10, (20, 3): 13, (40, 3): 26, (60, 3): 38, (100, 3): 64,
        (5, 4): 13, (10, 4): 26, (15, 4): 38, (20, 4): 51, (40, 4): 102, (60, 4): 154, (100, 4): 256,
        (5, 5): 51, (20, 5): 205, (100, 5): 1024,
        (5, 6): 205, (20, 6): 819, (100, 6): 4096,
        (5, 7): 819, (20, 7): 3277, (100, 7): 16384,
        (5, 8): 3277, (10, 8): 6554, (15, 8): 9830, (20, 8): 13107,
        (40, 8): 26214, (60, 8): 39322, (100, 8): 65536,
    }
    for (measpc, n), m in expected.items():
        assert monomial_count(measpc, n) == m, (measpc, n)
    # Range and clamping over the full sweep set.
    for n in range(3, 9):
        for measpc in (5, 10, 15, 20, 40, 60, 100):
            assert 1 <= monomial_count(measpc, n) <= 4**n
    assert monomial_count(1e-9, 3) == 1  # clamped low end


def test_run_config_validation(tmp_path):
    assert (
        invoke(
            "reconstruct", "--circuit", "ghz", "--n", 3, "--measpc", 150,
            "--out", tmp_path / "x.json",
        )
        == 2
    )
    assert (
        invoke(
            "reconstruct", "--circuit", "ghz", "--n", 3, "--measpc", 50, "--shots", 0,
            "--out", tmp_path / "x.json",
        )
        == 2
    )


def test_state_command(tmp_path):
    out = tmp_path / "s.json"
    assert invoke("state", "--circuit", "ghz", "--n", 3, "--out", out) == 0
    obj = read(out)
    amps = [complex(re, im) for re, im in obj["amplitudes"]]
    assert sum(1 for a in amps if a != 0) == 2


def test_state_command_rejects_small_ghz(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert invoke("state", "--circuit", "ghz", "--n", 2, "--out", out) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_flag_returns_nonzero(tmp_path):
    assert invoke("state", "--circuit", "ghz", "--n", 3, "--bogus", 1) != 0


def test_module_entry_point(tmp_path):
    # `python -m paulitomo.cli` runs the same main as the paulitomo script.
    env = dict(os.environ, PYTHONPATH=SRC)
    out = tmp_path / "r.json"
    base = [sys.executable, "-m", "paulitomo.cli", "reconstruct", "--circuit", "ghz", "--n", "3"]
    done = subprocess.run(base + ["--measpc", "50", "--out", str(out)], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert "iterations" in read(out)
    bad = subprocess.run(base + ["--no-such-flag", "--out", str(out)], env=env, capture_output=True)
    assert bad.returncode != 0


def test_measure_monomial_count(tmp_path):
    out = tmp_path / "m.json"
    assert (
        invoke(
            "measure", "--circuit", "ghz", "--n", 3, "--measpc", 20, "--shots", 64,
            "--seed", 5, "--out", out,
        )
        == 0
    )
    obj = read(out)
    assert len(obj["items"]) == 13
    assert obj["normalized"] is True


def test_measure_records_file(tmp_path):
    out = tmp_path / "m.json"
    rec = tmp_path / "r.json"
    invoke(
        "measure", "--circuit", "hadamard", "--n", 2, "--measpc", 100, "--shots", 32,
        "--seed", 1, "--out", out, "--records-out", rec,
    )
    obj = read(rec)
    assert obj["version"] == 1 and obj["shots"] == 32
    for entry in obj["records"]:
        assert sum(entry["counts"].values()) == 32
        assert set(entry["setting"]) <= set("xyz")


def test_measure_records_file_replays_the_shots_stream(tmp_path):
    # The records file lists settings in sorted axes order, the order the
    # one shots stream draws them in: replaying substream(seed, "shots")
    # over the file's settings, in file order, gives every count.
    out, rec = tmp_path / "m.json", tmp_path / "r.json"
    args = ["--circuit", "random", "--n", 4, "--measpc", 30, "--shots", 500, "--seed", 7]
    assert invoke("measure", *args, "--out", out, "--records-out", rec) == 0
    entries = read(rec)["records"]
    axes = [entry["setting"] for entry in entries]
    assert len(axes) > 10 and axes == sorted(set(axes))
    state = cli.build_state("random", 4, seed=7)
    rng = substream(7, "shots")
    for entry in entries:
        setting = PauliSetting(entry["setting"])
        counts = sample_record(setting, born_probabilities(state, setting), 500, rng).counts
        nonzero = np.flatnonzero(counts)
        assert entry["counts"] == {format(j, "04b"): int(counts[j]) for j in nonzero}


def test_measure_exact_rejects_records_out(tmp_path):
    assert (
        invoke(
            "measure", "--circuit", "ghz", "--n", 3, "--exact",
            "--out", tmp_path / "m.json", "--records-out", tmp_path / "r.json",
        )
        == 2
    )


def test_measure_exact_records_out_writes_nothing(tmp_path, capsys):
    out, records = tmp_path / "m.json", tmp_path / "r.json"
    code = invoke(
        "measure", "--circuit", "ghz", "--n", 3, "--exact", "--out", out, "--records-out", records,
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and not records.exists()


def test_measure_reconstruct_round_trip(tmp_path):
    # File-mediated reconstruction must equal the in-memory pipeline.
    meas = tmp_path / "m.json"
    res = tmp_path / "r.json"
    seed = 11
    invoke(
        "measure", "--circuit", "ghz", "--n", 3, "--measpc", 50, "--shots", 512,
        "--seed", seed, "--out", meas,
    )
    assert (
        invoke(
            "reconstruct", "--in", meas, "--circuit", "ghz", "--seed", seed,
            "--eta", 0.001, "--mu", 0.75, "--maxiters", 200, "--reltol", 1e-5,
            "--init", "random", "--out", res,
        )
        == 0
    )
    result = read(res)

    mono = sample_monomials(3, monomial_count(50, 3), substream(seed, "monomials"))
    smap = SensingMap(3, mono, normalized=True)
    y = observe(ghz(3), smap, shots=512, seed=seed)
    config = OptimizerConfig(
        rank=1, eta=0.001, mu=0.75, maxiters=200, reltol=1e-5, init="random", seed=seed
    )
    factor, trace = run(smap, y, config, target=ghz(3))
    assert result["iterations"] == trace.iterations
    assert result["final_fidelity"] == pytest.approx(trace.final().fidelity, abs=1e-12)
    assert result["final_rho_trace"] == pytest.approx(np.linalg.norm(factor) ** 2, abs=1e-12)
    changes = [rec["change"] for rec in result["trace"]]
    expected = [rec.change for rec in trace]
    assert np.allclose(changes, expected, atol=1e-12)


def test_reconstruct_simulation_mode(tmp_path):
    res = tmp_path / "res.json"
    code = invoke(
        "reconstruct", "--circuit", "ghz", "--n", 3, "--measpc", 100, "--exact",
        "--mu", "theory:1", "--maxiters", 400, "--reltol", 1e-6, "--out", res,
        "--trace-csv", tmp_path / "trace.csv", "--save-factor",
    )
    assert code == 0
    result = read(res)
    assert result["final_fidelity"] > 0.999
    assert "factor" in result
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0].startswith("iter,change")
    assert len(lines) == result["iterations"] + 1


@pytest.mark.parametrize("rank", [1, 2])
def test_reconstruct_final_figures_match_saved_factor(tmp_path, rank):
    # The final figures come from the run's trace; recomputed densely from
    # the saved factor and the target they must agree.
    res = tmp_path / "res.json"
    code = invoke(
        "reconstruct", "--circuit", "random", "--n", 3, "--measpc", 60, "--shots", 256,
        "--rank", rank, "--maxiters", 30, "--seed", 4, "--save-factor", "--out", res,
    )
    assert code == 0
    result = read(res)
    columns = result["factor"]["columns"]
    factor = np.array([[complex(re, im) for re, im in col] for col in columns]).T
    assert factor.shape == (8, rank)
    psi = cli.build_state("random", 3, 20, 4).amplitudes
    rho = factor @ factor.conj().T
    target = np.outer(psi, psi.conj())
    assert result["final_rho_trace"] == pytest.approx(np.trace(rho).real, abs=1e-12)
    fidelity = (psi.conj() @ rho @ psi).real / np.trace(rho).real
    assert result["final_fidelity"] == pytest.approx(fidelity, abs=1e-12)
    assert result["final_frobenius_error"] == pytest.approx(np.linalg.norm(rho - target), abs=1e-12)


def test_reconstruct_reports_stop_reason(tmp_path):
    capped = tmp_path / "capped.json"
    common = ["reconstruct", "--circuit", "ghz", "--n", 3]
    assert invoke(*common, "--measpc", 20, "--maxiters", 3, "--out", capped) == 0
    assert read(capped)["stop_reason"] == "maxiters"
    assert read(capped)["iterations"] == 3
    done = tmp_path / "done.json"
    assert invoke(
        *common, "--measpc", 100, "--exact", "--mu", "theory:1", "--maxiters", 400,
        "--reltol", 1e-6, "--out", done,
    ) == 0
    assert read(done)["stop_reason"] == "reltol"
    assert read(done)["iterations"] < 400


def test_compare_reports_stop_reason(tmp_path):
    out = tmp_path / "cmp.json"
    assert invoke(
        "compare", "--circuit", "ghz", "--n", 3, "--measpc", 100, "--exact",
        "--eta", 0.001, "--mu", 0.75, "--maxiters", 2, "--init", "random", "--out", out,
    ) == 0
    obj = read(out)
    assert obj["momentum"]["stop_reason"] == obj["plain"]["stop_reason"] == "maxiters"


def test_reconstruct_requires_source(tmp_path):
    assert invoke("reconstruct", "--out", tmp_path / "x.json") == 2


def test_baseline_command(tmp_path):
    out = tmp_path / "b.json"
    assert (
        invoke(
            "baseline", "--circuit", "ghz", "--n", 3, "--shots", 2048, "--seed", 3,
            "--out", out,
        )
        == 0
    )
    obj = read(out)
    assert obj["method"] == "linear_inversion"
    assert obj["fidelity"] > 0.98


def test_mitigate_command(tmp_path):
    cal = tmp_path / "cal.json"
    vec = tmp_path / "v.json"
    out = tmp_path / "o.json"
    serialize.save_json({"n": 1, "columns": [[0.9, 0.1], [0.2, 0.8]]}, cal)
    serialize.save_json([0.7, 0.3], vec)
    assert invoke("mitigate", "--calibration", cal, "--in", vec, "--out", out) == 0
    v_cal = np.array(read(out))
    assert v_cal.min() >= -1e-12
    assert v_cal.sum() == pytest.approx(1.0, abs=1e-8)


def test_synthetic_command(tmp_path):
    out = tmp_path / "syn.json"
    code = invoke(
        "synthetic", "--d", 32, "--r", 2, "--c", 3, "--seed", 1,
        "--mu-values", "0,0.6667", "--out", out,
    )
    assert code == 0
    obj = read(out)
    assert len(obj["runs"]) == 2
    assert obj["runs"][1]["iterations"] < obj["runs"][0]["iterations"]


def test_compare_command(tmp_path):
    out = tmp_path / "cmp.json"
    code = invoke(
        "compare", "--circuit", "ghz", "--n", 4, "--measpc", 100, "--exact",
        "--eta", 0.001, "--mu", 0.75, "--maxiters", 1000, "--reltol", 5e-4,
        "--init", "random", "--seed", 0, "--out", out,
        "--trace-csv", tmp_path / "cmp",
    )
    assert code == 0
    obj = read(out)
    assert obj["momentum"]["iterations"] < obj["plain"]["iterations"]
    for label in ("momentum", "plain"):
        lines = (tmp_path / f"cmp.{label}.csv").read_text().strip().splitlines()
        assert len(lines) == obj[label]["iterations"] + 1
        assert obj[label]["final_fidelity"] <= 1.0 and obj[label]["final_rho_trace"] > 0


def test_compare_rejects_zero_mu(tmp_path):
    assert (
        invoke(
            "compare", "--circuit", "ghz", "--n", 3, "--mu", "0",
            "--out", tmp_path / "x.json",
        )
        == 2
    )


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "s.json"
    serialize.save_json({"circuit": "ghz", "n": 4}, cfg)
    assert invoke("state", "--config", cfg, "--out", out) == 0
    assert read(out)["n"] == 4
    # Explicit flags override the file.
    assert invoke("state", "--config", cfg, "--n", 3, "--out", out) == 0
    assert read(out)["n"] == 3


def test_config_number_converts_like_its_flag(tmp_path):
    # A JSON number reaches --mu as the flag's text would, not as a raw float.
    cfg = tmp_path / "cfg.json"
    serialize.save_json({"mu": 0.5, "circuit": "ghz", "n": 3, "measpc": 30, "maxiters": 5}, cfg)
    out = tmp_path / "r.json"
    assert invoke("reconstruct", "--config", cfg, "--exact", "--out", out) == 0
    assert read(out)["config"]["mu"] == 0.5


def test_config_value_of_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    serialize.save_json({"n": [1], "circuit": "ghz"}, cfg)
    code = invoke("state", "--config", cfg, "--out", tmp_path / "s.json")
    assert_clean_failure(capsys, code, "'n'")


def test_config_switch_true_turns_it_on(tmp_path):
    cfg = tmp_path / "cfg.json"
    serialize.save_json({"exact": True, "circuit": "ghz", "n": 3}, cfg)
    out = tmp_path / "b.json"
    assert invoke("baseline", "--config", cfg, "--out", out) == 0
    assert read(out)["shots"] is None


def test_config_unknown_key(tmp_path, capsys):
    # Keys are option dests: l_hat works, the flag spelling l-hat is refused.
    cfg = tmp_path / "cfg.json"
    serialize.save_json({"l-hat": 1.05, "circuit": "ghz", "n": 3}, cfg)
    code = invoke("reconstruct", "--config", cfg, "--exact", "--maxiters", 3, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "'l-hat'")
    serialize.save_json({"l_hat": 1.05, "circuit": "ghz", "n": 3}, cfg)
    out = tmp_path / "r.json"
    assert invoke("reconstruct", "--config", cfg, "--exact", "--maxiters", 3, "--out", out) == 0
    assert read(out)["config"]["L_hat"] == 1.05


def test_config_file_missing(tmp_path, capsys):
    assert invoke("state", "--config", tmp_path / "nope.json", "--out", tmp_path / "s.json") == 2


def test_config_flag_without_path(tmp_path, capsys):
    assert invoke("reconstruct", "--out", tmp_path / "r.json", "--config") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert invoke("reconstruct", "--out", tmp_path / "r.json", "--config=") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_equals_form_is_read(tmp_path, capsys):
    # --config=FILE reads the file as --config FILE does; a second --config
    # is refused rather than ignored.
    cfg = tmp_path / "cfg.json"
    serialize.save_json({"maxiters": 3}, cfg)
    common = ["reconstruct", "--circuit", "ghz", "--n", 3, "--measpc", 50]
    assert invoke(*common, f"--config={cfg}", "--out", tmp_path / "a.json") == 0
    assert invoke(*common, "--config", cfg, "--out", tmp_path / "b.json") == 0
    assert read(tmp_path / "a.json")["iterations"] == 3
    assert untimed(read(tmp_path / "a.json")) == untimed(read(tmp_path / "b.json"))
    assert invoke(*common, "--config", cfg, f"--config={cfg}", "--out", tmp_path / "c.json") == 2
    assert not (tmp_path / "c.json").exists()


def test_config_workers_key_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    serialize.save_json({"workers": 2}, cfg)
    code = invoke("reconstruct", "--circuit", "ghz", "--n", 3, "--config", cfg, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "'workers'")


@pytest.mark.parametrize("command", ["measure", "reconstruct", "baseline", "compare"])
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_exact_refuses_typed_shots(tmp_path, capsys, command, from_config):
    # Exact data take no shots, so a typed --shots, or a shots config key,
    # is refused rather than dropped.
    flags = ["--mu", 0.5] if command == "compare" else []
    cfg = tmp_path / "cfg.json"
    serialize.save_json({"shots": 64}, cfg)
    shots = ["--config", cfg] if from_config else ["--shots", 64]
    out = tmp_path / "out.json"
    code = invoke(command, "--circuit", "ghz", "--n", 3, *flags, "--exact", *shots, "--out", out)
    assert_clean_failure(capsys, code, "--exact", "--shots")
    assert not out.exists()
    assert invoke(command, "--circuit", "ghz", "--n", 3, *flags, "--exact", "--out", out) == 0


@pytest.mark.parametrize("circuit,n", [("ghz", 3), ("random", 4)])
def test_baseline_exact_recovers_state(tmp_path, circuit, n):
    out = tmp_path / "b.json"
    assert invoke("baseline", "--circuit", circuit, "--n", n, "--exact", "--out", out) == 0
    obj = read(out)
    assert obj["shots"] is None
    assert obj["fidelity"] >= 1 - 1e-10


@pytest.mark.parametrize("exact", [False, True], ids=["shots", "exact"])
def test_baseline_refuses_large_n_before_simulating(tmp_path, monkeypatch, capsys, exact):
    def forbidden(*args, **kwargs):
        raise AssertionError("simulated before the qubit cap was checked")

    monkeypatch.setattr(cli, "simulate_records", forbidden)
    monkeypatch.setattr(cli, "observe_with_records", forbidden)
    flags = ["--exact"] if exact else []
    code = invoke("baseline", "--circuit", "ghz", "--n", 9, *flags, "--out", tmp_path / "b.json")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def write(path, text):
    path.write_text(text)
    return path


def assert_clean_failure(capsys, code, *names):
    # Exit 2 with a one-line message that names what is wrong, never a traceback.
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert all(name in err for name in names), err


def test_config_file_invalid_json(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", "{not json")
    code = invoke("reconstruct", "--config", cfg, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "config")


def test_config_file_not_an_object(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", '["circuit", "ghz"]')
    code = invoke("reconstruct", "--config", cfg, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "config", "JSON object")


def test_reconstruct_expectations_file_without_items(tmp_path, capsys):
    infile = write(tmp_path / "e.json", '{"n": 3}')
    code = invoke("reconstruct", "--in", infile, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "expectations", "'items'")


def test_mitigate_input_not_a_list(tmp_path, capsys):
    cal = tmp_path / "cal.json"
    serialize.save_json({"n": 1, "columns": [[0.9, 0.1], [0.2, 0.8]]}, cal)
    vec = write(tmp_path / "v.json", '{"a": 1}')
    code = invoke("mitigate", "--calibration", cal, "--in", vec, "--out", tmp_path / "o.json")
    assert_clean_failure(capsys, code, "probability file")


def test_mitigate_calibration_without_columns(tmp_path, capsys):
    cal = write(tmp_path / "cal.json", '{"n": 1}')
    vec = tmp_path / "v.json"
    serialize.save_json([0.7, 0.3], vec)
    code = invoke("mitigate", "--calibration", cal, "--in", vec, "--out", tmp_path / "o.json")
    assert_clean_failure(capsys, code, "calibration", "'columns'")


def test_reconstruct_expectations_file_with_non_finite_value(tmp_path, capsys):
    # JSON reads 1e400 as inf; the file is refused before any arithmetic on it.
    text = '{"version": 1, "n": 2, "normalized": true, "items": [{"monomial": "XX", '
    text += '"value": 1e400}, {"monomial": "ZZ", "value": 0.5}, {"monomial": "YY", "value": -0.5}]}'
    infile = write(tmp_path / "e.json", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = invoke("reconstruct", "--in", infile, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "observation values", "finite")


@pytest.mark.parametrize(
    "n, items, names",
    [
        pytest.param(2, "[]", ("expectations file", "'items'", "one or more"), id="empty-items"),
        pytest.param(0, "[]", ("expectations file", "qubit count must be positive, got 0"), id="n-zero"),
        pytest.param(-1, '[{"monomial": "X", "value": 0.5}]',
                     ("expectations file", "qubit count must be positive, got -1"), id="n-negative"),
    ],
)
def test_reconstruct_expectations_file_without_monomials(tmp_path, capsys, n, items, names):
    # The file edge names the file, not the sensing map's library message.
    text = f'{{"version": 1, "n": {n}, "normalized": true, "items": {items}}}'
    infile = write(tmp_path / "e.json", text)
    code = invoke("reconstruct", "--in", infile, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, *names)


# JSON reads a 400-digit integer as a Python int that no float holds.
HUGE_INT = "1" + "0" * 400


def test_reconstruct_expectations_file_with_overflowing_integer(tmp_path, capsys):
    text = '{"version": 1, "n": 1, "normalized": true, "items": [{"monomial": "X", '
    text += f'"value": {HUGE_INT}}}, {{"monomial": "Z", "value": 0.5}}]}}'
    infile = write(tmp_path / "e.json", text)
    code = invoke("reconstruct", "--in", infile, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "observation values", "finite")


def test_mitigate_calibration_with_overflowing_integer(tmp_path, capsys):
    cal = write(tmp_path / "cal.json", f'{{"n": 1, "columns": [[{HUGE_INT}, 0.1], [0.2, 0.8]]}}')
    vec = tmp_path / "v.json"
    serialize.save_json([0.7, 0.3], vec)
    code = invoke("mitigate", "--calibration", cal, "--in", vec, "--out", tmp_path / "o.json")
    assert_clean_failure(capsys, code, "calibration columns", "finite")


@pytest.mark.parametrize("monomial", ["XZZ", "X", "XQ"])
def test_reconstruct_expectations_file_with_bad_monomial(tmp_path, capsys, monomial):
    items = [{"monomial": "XZ", "value": 0.5}, {"monomial": monomial, "value": 0.25}]
    infile = tmp_path / "e.json"
    serialize.save_json({"version": 1, "n": 2, "normalized": True, "items": items}, infile)
    code = invoke("reconstruct", "--in", infile, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "expectations", repr(monomial))


# JSON true/false read as Python bools, which are ints: a number field must refuse them.

def test_reconstruct_expectations_file_with_boolean_n(tmp_path, capsys):
    items = [{"monomial": "X", "value": 0.5}, {"monomial": "Z", "value": 0.5}]
    infile = tmp_path / "e.json"
    serialize.save_json({"version": 1, "n": True, "normalized": True, "items": items}, infile)
    code = invoke("reconstruct", "--in", infile, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "expectations", "'n'")


def test_reconstruct_expectations_file_with_boolean_value(tmp_path, capsys):
    items = [{"monomial": "XZ", "value": True}, {"monomial": "ZZ", "value": 0.5}]
    infile = tmp_path / "e.json"
    serialize.save_json({"version": 1, "n": 2, "normalized": True, "items": items}, infile)
    code = invoke("reconstruct", "--in", infile, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "expectations", "'value'")


def test_mitigate_input_with_boolean(tmp_path, capsys):
    cal = tmp_path / "cal.json"
    serialize.save_json({"n": 1, "columns": [[0.9, 0.1], [0.2, 0.8]]}, cal)
    vec = write(tmp_path / "v.json", "[true, 0.0]")
    code = invoke("mitigate", "--calibration", cal, "--in", vec, "--out", tmp_path / "o.json")
    assert_clean_failure(capsys, code, "probability file")


def test_mitigate_calibration_with_boolean(tmp_path, capsys):
    cal = write(tmp_path / "cal.json", '{"n": 1, "columns": [[true, false], [false, true]]}')
    vec = tmp_path / "v.json"
    serialize.save_json([0.7, 0.3], vec)
    code = invoke("mitigate", "--calibration", cal, "--in", vec, "--out", tmp_path / "o.json")
    assert_clean_failure(capsys, code, "calibration columns")


def test_mu_bare_theory_means_theory_1(tmp_path):
    outs = {}
    for spec in ("theory", "theory:1"):
        outs[spec] = tmp_path / f"{spec}.json"
        args = ("--circuit", "ghz", "--n", 3, "--exact", "--maxiters", 20, "--out", outs[spec])
        assert invoke("reconstruct", "--mu", spec, *args) == 0
    bare, explicit = read(outs["theory"]), read(outs["theory:1"])
    assert bare["config"]["mu"] == "theory"
    assert bare["mu"] == explicit["mu"] > 0
    assert bare["iterations"] == explicit["iterations"]
    out = tmp_path / "syn.json"
    assert invoke("synthetic", "--d", 8, "--r", 1, "--c", 2, "--maxiters", 5,
                  "--mu-values", "theory,theory:0.5", "--out", out) == 0
    runs = read(out)["runs"]
    assert [r["mu_spec"] for r in runs] == ["theory", "theory:0.5"]
    assert runs[1]["mu"] == pytest.approx(runs[0]["mu"] / 2, rel=1e-12)


@pytest.mark.parametrize(
    "command,flags,name",
    [
        ("reconstruct", ["--mu", "fast"], "'fast'"),
        ("reconstruct", ["--mu", "theory:2"], "epsilon"),
        ("compare", ["--mu", "1.5"], "mu"),
        ("synthetic", ["--d", 8, "--r", 1, "--c", 2, "--mu-values", "0,theory:x"], "'theory:x'"),
    ],
)
def test_bad_mu_exits_with_message(tmp_path, capsys, command, flags, name):
    state = [] if command == "synthetic" else ["--circuit", "ghz", "--n", 3, "--exact"]
    code = invoke(command, *state, *flags, "--out", tmp_path / "o.json")
    assert_clean_failure(capsys, code, name)


def test_negative_seed_exits_with_message(tmp_path, capsys):
    code = invoke("measure", "--circuit", "ghz", "--n", 3, "--seed", -1, "--out", tmp_path / "m.json")
    assert_clean_failure(capsys, code, "seed must be >= 0, got -1")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["measure", "reconstruct", "compare", "baseline"])
def test_shots_past_int64_exit_with_message(tmp_path, capsys, monkeypatch, command):
    # Refused as the flags are read, before any state is built.
    def build_state(*args):
        raise AssertionError("build_state called before the shot count was checked")

    monkeypatch.setattr(cli, "build_state", build_state)
    flags = ["--mu", 0.5] if command == "compare" else []
    out = tmp_path / "o.json"
    code = invoke(command, "--circuit", "ghz", "--n", 3, *flags, "--shots", 10**20, "--out", out)
    assert_clean_failure(capsys, code, f"shots must be below 2^63, got {10**20}")
    assert not out.exists()


def test_reconstruct_rejects_nan_reltol(tmp_path, capsys):
    code = invoke("reconstruct", "--circuit", "ghz", "--n", 3, "--exact", "--reltol", "nan",
                  "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "reltol")
    assert not (tmp_path / "r.json").exists()


def test_reconstruct_rejects_nan_eta(tmp_path, capsys):
    code = invoke("reconstruct", "--circuit", "ghz", "--n", 3, "--eta", "nan", "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, "eta must be")


def test_synthetic_rejects_nan_noise(tmp_path, capsys):
    code = invoke("synthetic", "--d", 4, "--r", 1, "--c", 1, "--noise", "nan", "--out", tmp_path / "s.json")
    assert_clean_failure(capsys, code, "noise")


def test_synthetic_rejects_empty_mu_values(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = invoke("synthetic", "--d", 4, "--r", 1, "--c", 1, "--mu-values", ",", "--out", out)
    assert_clean_failure(capsys, code, "--mu-values")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_synthetic_rejects_bad_tol(tmp_path, capsys, tol):
    out = tmp_path / "s.json"
    code = invoke("synthetic", "--d", 4, "--r", 1, "--c", 1, "--tol", tol, "--out", out)
    assert_clean_failure(capsys, code, "error: tol must be")
    assert not out.exists()


def test_reconstruct_rejects_n_that_contradicts_the_file(tmp_path, capsys):
    meas = tmp_path / "m.json"
    assert invoke("measure", "--circuit", "random", "--n", 1, "--out", meas) == 0
    flags = ["reconstruct", "--in", meas, "--circuit", "random", "--maxiters", 5]
    code = invoke(*flags, "--n", 2, "--out", tmp_path / "bad.json")
    assert_clean_failure(capsys, code, "--n 2", "n = 1")
    assert not (tmp_path / "bad.json").exists()
    assert invoke(*flags, "--n", 1, "--out", tmp_path / "ok.json") == 0


def untimed(result):
    """A result file's JSON without its wall-time fields."""
    if isinstance(result, dict):
        return {k: untimed(v) for k, v in result.items() if k not in ("time_s", "grad_time_s")}
    if isinstance(result, list):
        return [untimed(v) for v in result]
    return result


@pytest.mark.parametrize("flags, named", [
    (["--exact", "--measpc", 5, "--shots", 7], "--exact, --measpc, --shots"),
    (["--exact"], "--exact"),
    (["--measpc", 100], "--measpc"),
    (["--shots", 2048], "--shots"),
])
def test_reconstruct_in_refuses_simulation_flags(tmp_path, capsys, flags, named):
    # The file holds the data, so flags that shape simulated data, default
    # values included, are refused rather than ignored.
    meas = tmp_path / "m.json"
    assert invoke("measure", "--circuit", "random", "--n", 2, "--out", meas) == 0
    code = invoke("reconstruct", "--in", meas, *flags, "--maxiters", 5, "--out", tmp_path / "r.json")
    assert_clean_failure(capsys, code, named, str(meas))
    assert not (tmp_path / "r.json").exists()
    assert invoke("reconstruct", "--in", meas, "--maxiters", 5, "--out", tmp_path / "r.json") == 0


def test_reconstruct_simulates_at_measpc_100_and_2048_shots_by_default(tmp_path):
    common = ["reconstruct", "--circuit", "ghz", "--n", 3, "--maxiters", 50]
    assert invoke(*common, "--out", tmp_path / "a.json") == 0
    assert invoke(*common, "--measpc", 100, "--shots", 2048, "--out", tmp_path / "b.json") == 0
    assert untimed(read(tmp_path / "a.json")) == untimed(read(tmp_path / "b.json"))


def test_reconstruct_does_not_depend_on_blas_threads(tmp_path):
    # n = 7, so that the transform's GEMMs and the d x d products are large
    # enough for OpenBLAS to split them over two threads.
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "paulitomo.cli", "reconstruct", "--circuit", "random",
             "--n", "7", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        results.append(untimed(read(out)))
    assert results[0] == results[1]


def test_state_out_of_memory_exits_with_message(tmp_path):
    # A 36-qubit state needs 1 TiB; under a 4 GiB address-space limit the
    # allocation fails at once.  Never run this command without the limit.
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "paulitomo.cli", "state", "--circuit", "ghz", "--n", "36",
         "--out", str(tmp_path / "s.json")],
        env=env, capture_output=True, text=True, preexec_fn=limit_address_space, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert len(done.stderr.strip().splitlines()) == 1


def test_diverging_run_reports_one_line(tmp_path):
    # The overflow is caught where it happens: no numpy warning reaches stderr.
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "paulitomo.cli", "reconstruct", "--circuit", "ghz", "--n", "3",
         "--exact", "--eta", "1e308", "--maxiters", "5", "--out", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert re.fullmatch(r"error: non-finite iterate at iteration \d+\n", done.stderr), done.stderr
    assert not (tmp_path / "r.json").exists()


def test_readme_cli_examples_parse():
    # Every command in README's CLI block, backslash continuations joined.
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"## CLI\n.*?```\n(.*?)```", readme, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("paulitomo ")]
    assert len(commands) == 8
    parser, _ = cli.build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        assert callable(args.func), command


def test_build_state_rejects_unknown_circuit():
    with pytest.raises(ValueError, match="unknown circuit 'bogus'"):
        cli.build_state("bogus", 3)
