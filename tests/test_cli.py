import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import muntzlab
from muntzlab import dnp as dnp_mod
from muntzlab import examples as examples_mod
from muntzlab import hilbert
from muntzlab.cli import SUITE_IDS, build_parser, run


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


def _python_dash_m(*argv):
    # the child imports the same package as this test, wherever pytest found it
    src = str(Path(muntzlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "muntzlab", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    out = _python_dash_m("--help")
    assert out.returncode == 0
    assert "usage: muntzlab" in out.stdout


# the options each subcommand's handler reads, and so the ones it accepts
_SUITE_OPTIONS = {"seq", "measure", "p", "q", "N", "tol", "seed", "eps", "count", "out",
                  "alpha_list"}
OPTIONS = {
    "classify": {"seq", "decompose", "out"},
    "moments": {"seq", "measure", "p", "out", "format"},
    "dnp": {"seq", "measure", "p", "N", "tol", "out", "format", "weight"},
    "bounds": {"seq", "p", "eps", "count", "out", "formula", "r", "alpha", "t"},
    "norm": {"seq", "measure", "p", "out", "coeffs", "coeffs_file"},
    "probe": {"seq", "p", "seed", "out", "kind", "trials", "block_start", "block_len"},
    "spectrum": {"seq", "measure", "N", "tol", "out", "operator"},
    "example": {"p", "q", "tol", "count", "out", "format", "label"},
    "verify": _SUITE_OPTIONS | {"suite"},
    "report": _SUITE_OPTIONS | {"suites"},
}
# command lines that together take every branch of a handler that reads an option
_READERS = {
    "classify": [["--decompose", "2"]],
    "moments": [[]],
    "dnp": [["--N", "4"]],
    "bounds": [["--formula", f] for f in ("jlambda", "lemma31", "r_epsilon", "envelope",
                                          "point_eval")],
    "norm": [[]],
    "probe": [["--trials", "3"], ["--kind", "amgm"]],
    "spectrum": [["--operator", "synthesis", "--N", "4"]],
    "example": [["--label", "A", "--count", "12"]],
    "verify": [["--suite", "envelope"]],
    "report": [["--seq", "geometric:1,2,8", "--N", "8", "--count", "12",
                "--suites", "basis,isometry-threshold,envelope,ex-a"]],
}


class _Recording:
    """Parsed options that remember which of them a handler reads."""

    def __init__(self, values):
        self._values, self.read = values, set()

    def __getattr__(self, name):
        self.read.add(name)
        return self._values[name]


def test_each_subcommand_accepts_exactly_the_options_its_handler_reads(tmp_path, capsys):
    parser = build_parser()
    assert set(OPTIONS) == set(_READERS)
    for cmd, argvs in _READERS.items():
        read = set()
        for argv in argvs:
            ns = parser.parse_args([cmd, *argv])
            rec = _Recording(dict(vars(ns), out=str(tmp_path) if cmd == "report" else None))
            assert ns.fn(rec) in (0, 1), (cmd, argv)
            read |= rec.read
        assert set(vars(ns)) - {"cmd", "fn"} == OPTIONS[cmd] == read, cmd
    capsys.readouterr()
    assert sum(len(v) for v in OPTIONS.values()) == 76


@pytest.mark.parametrize("argv", [
    ["probe", "--measure", "atoms:0.5:1"],  # probe samples Lebesgue norms only
    ["spectrum", "--p", "3"],               # spectra are p = 2
    ["classify", "--format", "csv"],        # classify writes JSON only
], ids=["probe-measure", "spectrum-p", "classify-format"])
def test_option_the_handler_would_ignore_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--operator", "frame", "--measure", "atoms:0.5:1"],
    ["spectrum", "--operator", "embedding", "--tol", "1e-6"],
    ["bounds", "--formula", "jlambda", "--seq", "explicit:1,2"],
    ["bounds", "--formula", "envelope", "--p", "3"],
    ["probe", "--kind", "amgm", "--seed", "3"],
    ["probe", "--kind", "amgm", "--trials", "3"],
    ["probe", "--block-len", "8"],
    ["norm", "--coeffs", "5,5,5", "--coeffs-file", "coeffs.txt"],
], ids=["spectrum-frame-measure", "spectrum-embedding-tol", "bounds-jlambda-seq",
        "bounds-envelope-p", "probe-amgm-seed", "probe-amgm-trials", "probe-gm-block-len",
        "norm-coeffs-and-file"])
def test_option_another_branch_reads_is_a_usage_error(argv, capsys):
    # each used to print what the command prints without the option
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"muntzlab {argv[0]}: error:" in err and argv[-2] in err


@pytest.mark.parametrize("argv,key,want", [
    (["bounds", "--formula", "envelope", "--seq", "explicit:1,2"], "seq", "explicit:1,2"),
    (["bounds", "--formula", "jlambda", "--r", "4"], "r", 4.0),
    (["bounds", "--formula", "jlambda"], "r", 2.0),
    (["probe", "--trials", "3"], "trials", 3 + 16),  # the 16 canonical vectors count too
    (["probe"], "trials", 100 + 16),
], ids=["given-seq", "given-r", "default-r", "given-trials", "default-trials"])
def test_option_its_branch_reads_is_given_or_defaulted(argv, key, want, capsys):
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out.get("inputs", {}).get(key, out.get(key)) == want


@pytest.mark.parametrize("cmd", sorted(OPTIONS))
def test_subcommand_help_lists_its_options(cmd):
    out = _python_dash_m(cmd, "--help")
    assert out.returncode == 0
    assert out.stdout.startswith(f"usage: muntzlab {cmd}")
    for option in OPTIONS[cmd]:
        assert f"--{option.replace('_', '-')} " in out.stdout, option


# small inputs shared by the per-suite tests: each suite runs in well under a second.
# --count 12 keeps the example instances short but long enough for their window
# checks (the last 5 of at least 10 indices) to be judged; below 10 they read
# UNMET (test_ex_a_short_instance_is_not_a_failure).
SMALL_ATOMS = "atoms:0.5:1,0.1:0.5,0.001:0.25"
SMALL = ["--seq", "geometric:1,2,8", "--N", "8", "--measure", SMALL_ATOMS, "--count", "12"]
# p = 2 lists alpha = 1 twice because 1/(p-1) = 1 there, so its three names appear
# twice (known defect, CHANGES.md FOUND line on duplicate crossterm check names).
_CROSSTERM = [f"crossterm-p={p}-alpha={a}-r={r}"
              for p, alphas in (("1.5", ("2", "1")), ("2", ("1", "1")),
                                ("3", ("0.5", "1")), ("5", ("0.25", "1")))
              for a in alphas for r in ("2", "4", "16")]
SUITE_CHECKS = {
    "basis": ["ratio-sample-bracket", "canonical-vectors-normalized",
              "lebesgue-diagonal-bounded", "frame-bracket"],
    "isometry-threshold": ["shifted-ratio-meets-threshold", "frame-within-eps"],
    "pairing-dichotomy": ["pairing-above-lower-bound", "pairing-trend"],
    "envelope": [f"envelope-{kind}-alpha={a}" for a in ("0.5", "1", "2")
                 for kind in ("positive-finite", "bracket")],
    "crossterm-bound": _CROSSTERM,
    "diagonal-domination": ["singular-values-below-rearranged-profile",
                            "hilbert-schmidt-equals-trace", "schatten-bound-r=1",
                            "schatten-bound-r=2", "schatten-bound-r=4",
                            "random-vector-domination"],
    "blocksum-probe": ["block-lower-bound-growth"],
    "carleson": ["monomial-test-constant", "sublinear-norm", "sublinear-vs-monomial-test",
                 "synthesis-norm-below-sup-profile", "embedding-norm"],
    "compact": ["monomial-test-decay", "vanishing-profile", "restriction-spectrum-trend",
                "order-boundedness-integral"],
    "hs": ["kernel-double-integral-matches-poisson", "synthesis-hs-below-profile-l2",
           "hs-three-way"],
    "ex-a": ["atom-power-approaches-1-over-n", "monomial-test-at-p-grows-like-log",
             "monomial-test-decays-at-q=3"],
    "ex-b": ["atom-power-approaches-1-over-n", "monomial-test-grows-at-q=1",
             "diagonal-domination-decays-at-p"],
}
DN_SUITES = ("basis", "diagonal-domination", "carleson", "compact", "hs")


def _verify(capsys, suite, *extra):
    code = run(["verify", "--suite", suite, *SMALL, *extra])
    return code, json.loads(capsys.readouterr().out)


def test_every_suite_has_a_cli_test():
    assert set(SUITE_CHECKS) == set(SUITE_IDS)


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_suite_exit_code_and_check_names(suite, capsys):
    code, report = _verify(capsys, suite)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == SUITE_CHECKS[suite]
    assert sum(report["summary"].values()) == len(report["checks"])


@pytest.mark.parametrize("extra", [[], ["--p", "3", "--seq", "geometric:1,2,8", "--N", "8"]],
                         ids=["defaults", "p=3"])
def test_unmet_isometry_hypothesis_is_not_a_failure(extra, capsys):
    # the minimum shifted ratio (5/3 at the defaults) is far below r_eps (289)
    code = run(["verify", "--suite", "isometry-threshold", *extra])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["shifted-ratio-meets-threshold"] == "UNMET"
    assert report["summary"]["UNMET"] == 1 and report["summary"]["FAIL"] == 0


def test_ex_a_short_instance_is_not_a_failure(capsys):
    code = run(["verify", "--suite", "ex-a", "--count", "6"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["monomial-test-at-p-grows-like-log"] == "UNMET"


def test_spectrum_synthesis_reports_chain(capsys):
    code = run(["spectrum", "--operator", "synthesis", "--seq", "geometric:1,2,8",
                "--N", "8", "--measure", SMALL_ATOMS])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["operator"] == "t_mu_inverse_lambda" and out["chain_ok"] is True


def test_every_suite_passes_tol_to_compute_dn(monkeypatch, capsys):
    real = dnp_mod.compute_dn
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(dnp_mod, "compute_dn", recording)
    monkeypatch.setattr(examples_mod, "compute_dn", recording)
    for suite in DN_SUITES + ("ex-b",):
        seen.clear()
        code, _ = _verify(capsys, suite, "--tol", "1e-6")
        assert code == 0
        assert seen and all(t == 1e-6 for t in seen), (suite, seen)


def test_report_reads_each_profile_once(monkeypatch, capsys, tmp_path):
    real = dnp_mod.compute_dn
    keys = []

    def recording(seq, mu, weight, n_count=None, tol=1e-12, route="auto"):
        keys.append((mu, weight, n_count, tol))
        return real(seq, mu, weight, n_count=n_count, tol=tol, route=route)

    monkeypatch.setattr(dnp_mod, "compute_dn", recording)
    code = run(["report", *SMALL, "--suites", ",".join(DN_SUITES), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    # Lebesgue p = 2 for basis, p = 1 for compact, one atomic p = 2 profile
    assert len(keys) == len(set(keys)) == 3


def test_report_computes_each_spectrum_once(monkeypatch, capsys, tmp_path):
    # one atomic report over the suites that read D_n profiles and spectra
    calls = {"cholesky_lower": [], "embedding_spectrum": [], "t_mu_spectrum": []}
    for name, keys in calls.items():
        real = getattr(hilbert, name)

        def recording(*args, _real=real, _keys=keys):
            _keys.append(args[1:])  # (measure, n) of a spectrum
            return _real(*args)

        monkeypatch.setattr(hilbert, name, recording)
    code = run(["report", *SMALL, "--suites", ",".join(DN_SUITES), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    # frame_bounds (basis), the embedding spectrum (carleson and hs) and
    # essential_norm_estimate (compact: one factor for all ten cuts)
    assert len(calls["cholesky_lower"]) == 3
    # diagonal-domination, carleson and hs read one synthesis spectrum, carleson
    # and hs one embedding spectrum
    for name in ("embedding_spectrum", "t_mu_spectrum"):
        assert len(calls[name]) == len(set(calls[name])) == 1, name


def _report(tmp_path, name, *extra):
    out = tmp_path / name
    code = run(["report", *SMALL, "--suites", ",".join(SUITE_IDS), "--out", str(out), *extra])
    return code, out


def test_report_output_is_byte_identical(tmp_path, capsys):
    code1, first = _report(tmp_path, "first")
    code2, second = _report(tmp_path, "second")
    capsys.readouterr()
    assert code1 == code2 == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) == len(SUITE_IDS) + 1
    for name in names:
        text = (first / name).read_bytes()
        assert text == (second / name).read_bytes(), name
        assert b"generated_unix" not in text


@pytest.mark.parametrize("measure", [SMALL_ATOMS, "lebesgue"])
def test_report_suite_files_match_verify(measure, tmp_path, capsys):
    args = ["--measure", measure]
    code = run(["report", *SMALL, *args, "--suites", ",".join(SUITE_IDS),
                "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    for suite in SUITE_IDS:
        from_report = json.loads((tmp_path / f"verify-{suite}.json").read_text())
        _, alone = _verify(capsys, suite, *args)
        assert from_report["checks"] == alone["checks"], suite


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.75])
def test_hs_kernel_matches_poisson_on_density(alpha, tmp_path, capsys):
    # the outer integrand behaves like u_s**(alpha - 1) near s = 1
    spec = tmp_path / "density.json"
    spec.write_text(json.dumps({"kind": "density", "name": "oneminus_power",
                                "params": {"alpha": alpha}}))
    code = run(["verify", "--suite", "hs", "--measure", f"file:{spec}"])
    report = json.loads(capsys.readouterr().out)
    check = {c["name"]: c for c in report["checks"]}["kernel-double-integral-matches-poisson"]
    assert code == 0 and check["status"] == "PASS", check["data"]


@pytest.mark.parametrize("argv", [
    ["dnp", "--seq", "explicit:1,1e306", "--p", "400", "--measure", "lebesgue"],
    ["moments", "--seq", "explicit:1,1e306", "--p", "400", "--measure", "DENSITY"],
    ["spectrum", "--seq", "explicit:1,1e308", "--N", "2", "--measure", "DENSITY"],
    ["verify", "--suite", "carleson", "--seq", "explicit:1,1e308", "--N", "2",
     "--measure", "atoms:0.5:1"],
    ["verify", "--suite", "basis", "--seq", "explicit:1,1e308", "--N", "2"],
], ids=["dnp-node-sharpness", "moments-exponent", "spectrum-node-sharpness",
        "carleson-exponent", "basis-exponent"])
def test_exponent_beyond_float_range_is_refused(argv, tmp_path):
    # p * lam (or 2 lam) overflows to inf: exit 2 with a message, no traceback
    # and no overflow warning from the product
    spec = tmp_path / "density.json"
    spec.write_text(json.dumps({"kind": "density", "name": "oneminus_power",
                                "params": {"alpha": 0.5}}))
    out = _python_dash_m(*(f"file:{spec}" if a == "DENSITY" else a for a in argv))
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr


def test_dnp_bounds_past_the_float_range():
    # 2 lam overflows at lam = 1e308; the Lebesgue moment 1 / (2 lam + 1) does not
    out = _python_dash_m("dnp", "--seq", "explicit:1,1e308", "--measure", "lebesgue")
    assert out.returncode == 0 and out.stderr == ""
    bounds = json.loads(out.stdout)["bounds"]
    with mpmath.workdps(40):
        want = mpmath.fsum(mpmath.sqrt(mpmath.mpf(l) / (1 + 2 * mpmath.mpf(l)))
                           for l in (1, 1e308))
    assert bounds["nuclear"] == pytest.approx(float(want), rel=1e-13)
