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


def test_parallel_scaling_script(tmp_path):
    # Reports to stdout only: one serial line and one line per worker count.
    args = ["--n", "3", "--workers", "1,2", "--maxiters", "5"]
    stdout = run_script("parallel_scaling.py", *args, cwd=tmp_path)
    lines = stdout.splitlines()
    assert lines[0].startswith("serial:")
    assert [line.split(":")[0] for line in lines[1:]] == ["p= 1", "p= 2"]
    assert list(tmp_path.iterdir()) == []
