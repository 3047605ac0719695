import json
import os
import pathlib
import subprocess
import sys

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
