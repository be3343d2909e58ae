import json
import os
import subprocess
import sys

from muntzlab.cli import run


def test_conditioning_error_exits_2_with_pivot(capsys):
    code = run(["spectrum", "--seq", "geometric:1,1.1,40", "--N", "40"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pivot" in err


def test_hs_suite_on_lebesgue_emits_json(capsys):
    code = run(["verify", "--suite", "hs", "--measure", "lebesgue"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in report["checks"]]
    assert "hs-three-way" in names
    three_way = report["checks"][names.index("hs-three-way")]["data"]
    assert three_way["poisson_divergent"] and three_way["note"]


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "muntzlab", "--help"], env=dict(os.environ),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert "usage: muntzlab" in out.stdout
