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


def test_hs_kernel_matches_poisson_near_one(capsys):
    # the Poisson integral is 1e12 + 2, dominated by the atom at delta = 1e-12
    code = run(["verify", "--suite", "hs", "--measure", "atoms:1e-12:1,0.5:1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["kernel-double-integral-matches-poisson"] == "PASS"


def test_compact_suite_on_lebesgue_tail_file(tmp_path, capsys):
    spec = tmp_path / "tail.json"
    spec.write_text(json.dumps({"kind": "restrict", "base": {"kind": "lebesgue"},
                                "a": 0.5, "b": 1.0}))
    code = run(["verify", "--suite", "compact", "--measure", f"file:{spec}"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in report["checks"]]
    order = report["checks"][names.index("order-boundedness-integral")]["data"]
    assert order["divergent"]


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "muntzlab", "--help"], env=dict(os.environ),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert "usage: muntzlab" in out.stdout
