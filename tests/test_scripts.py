import json
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_build_fiducials(tmp_path):
    proc = run_script("build_fiducials.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["pass"] is True
    names = {row["name"] for row in summary["fiducials"]}
    assert {"bisection_n2", "bisection_n3"} <= names
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(names)


def test_moment_study_rejects_few_pairs():
    proc = run_script("moment_study.py", "--seed", "1", "--pairs", "200")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == ["moment_study.py: error: --pairs must be at least 1000 for the Lipschitz probe"]


@pytest.mark.parametrize("args, message", [
    (("--n", "0"), "--n must lie in 1..5, as for the moments command, got --n 0"),
    (("--n", "2", "6"), "--n must lie in 1..5, as for the moments command, got --n 2 6"),
    (("--seed", "-1"), "--seed must be a non-negative integer, got --seed -1"),
    (("--thresholds", "0"), "--thresholds must be positive finite numbers, got --thresholds 0.0"),
    (("--thresholds", "0.5", "nan"),
     "--thresholds must be positive finite numbers, got --thresholds 0.5 nan"),
], ids=["n0", "n6", "seed", "threshold0", "threshold-nan"])
def test_moment_study_rejects_bad_input(args, message):
    # --seed 1 comes first, so a later --seed overrides it
    proc = run_script("moment_study.py", "--seed", "1", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [f"moment_study.py: error: {message}"]
