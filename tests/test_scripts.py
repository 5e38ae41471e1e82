"""Each script in scripts/ runs once at a small size and writes its output."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", name)
    done = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "name,args",
    [
        ("fidelity_table.py", ["--n-values", "3", "--circuits", "ghz"]),
        ("momentum_sweep.py", ["--n", "3", "--seeds", "1"]),
    ],
)
def test_script_writes_json(tmp_path, name, args):
    out = tmp_path / "out.json"
    run_script(name, *args, "--out", str(out), cwd=tmp_path)
    with open(out) as fh:
        assert json.load(fh)


@pytest.mark.parametrize(
    "name,args",
    [
        ("fidelity_table.py", ["--n-values", "3", "--circuits", "ghz"]),
        ("momentum_sweep.py", ["--n", "3", "--seeds", "1"]),
    ],
)
def test_script_refuses_measpc_out_of_range(tmp_path, name, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", name)
    done = subprocess.run(
        [sys.executable, script, *args, "--measpc", "0", "--out", str(tmp_path / "o.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "measpc must be a finite number in (0, 100], got 0.0" in done.stderr
    assert not (tmp_path / "o.json").exists()
