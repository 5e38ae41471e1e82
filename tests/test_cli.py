import json

import numpy as np
import pytest

from paulitomo import OptimizerConfig, SensingMap, ghz, observe, run, sample_monomials
from paulitomo import serialize
from paulitomo.cli import cli_main, monomial_count
from paulitomo.seeding import substream


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


def test_measure_exact_rejects_records_out(tmp_path):
    assert (
        invoke(
            "measure", "--circuit", "ghz", "--n", 3, "--exact",
            "--out", tmp_path / "m.json", "--records-out", tmp_path / "r.json",
        )
        == 2
    )


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


def test_reconstruct_workers_flag(tmp_path):
    res1 = tmp_path / "r1.json"
    res4 = tmp_path / "r4.json"
    common = [
        "reconstruct", "--circuit", "hadamard", "--n", 3, "--measpc", 100, "--exact",
        "--eta", 0.001, "--mu", 0.5, "--maxiters", 100, "--reltol", 1e-6,
        "--init", "random", "--seed", 2,
    ]
    assert invoke(*common, "--workers", 1, "--out", res1) == 0
    assert invoke(*common, "--workers", 4, "--out", res4) == 0
    f1 = read(res1)["final_fidelity"]
    f4 = read(res4)["final_fidelity"]
    assert f4 == pytest.approx(f1, abs=1e-6)
    assert read(res4)["trace"][0]["grad_time_s"] is not None


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


def test_config_file_missing(tmp_path, capsys):
    assert invoke("state", "--config", tmp_path / "nope.json", "--out", tmp_path / "s.json") == 2


def test_config_flag_without_path(tmp_path, capsys):
    assert invoke("reconstruct", "--out", tmp_path / "r.json", "--config") == 2
    assert capsys.readouterr().err.startswith("error: ")
