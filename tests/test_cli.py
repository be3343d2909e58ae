import ast
import csv
import dataclasses
import functools
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import muntzlab
from muntzlab import bounds as bounds_mod
from muntzlab import cli
from muntzlab import dnp as dnp_mod
from muntzlab import examples as examples_mod
from muntzlab import hilbert
from muntzlab import lpnorm
from muntzlab import measures as measures_mod
from muntzlab import sequences as sequences_mod
from muntzlab.cli import SUITE_IDS, build_parser, run
from test_lpnorm import lp_norm, uniform_draws


@pytest.mark.parametrize("ratio", ["1.1", "1.2"])
def test_conditioning_error_exits_2_naming_n(ratio, capsys):
    # the Cauchy Gram of exponents this dense does not factor at N = 40
    code = run(["spectrum", "--seq", f"geometric:1,{ratio},40", "--N", "40"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the Cauchy Gram of the first N = 40 exponents")


@pytest.mark.parametrize("operator", ["frame", "embedding", "synthesis"])
def test_spectrum_runs_past_n_64(operator, capsys):
    # N has no cap: on geometric:1,2,N the Gram factors at every N
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["spectrum", "--operator", operator, "--seq", "geometric:1,2,256",
                    "--N", "256"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert len(json.loads(out)["sigma"]) == 256


def test_spectrum_operators_write_one_payload(capsys):
    # every operator is one SpectralResult; only synthesis adds its chain verdict
    payloads = {}
    for operator in ("frame", "embedding", "synthesis"):
        assert run(["spectrum", "--operator", operator, "--seq", "geometric:1,2,8"]) == 0
        payloads[operator] = json.loads(capsys.readouterr().out)
    keys = {op: set(payload) - {"chain_ok"} for op, payload in payloads.items()}
    assert keys["frame"] == keys["embedding"] == keys["synthesis"]
    assert "chain_ok" in payloads["synthesis"]
    for field in ("schatten", "drift"):
        assert len({tuple(payload[field]) for payload in payloads.values()}) == 1, field


@pytest.mark.parametrize("seq", ["geometric:1,2,16", "geometric:1,1.5,32", "geometric:1000,300,8"])
def test_frame_hs_norm_is_sqrt_n(seq, capsys):
    # the normalized Gram has a unit diagonal: its trace, the squared HS norm, is N
    n = int(seq.rsplit(",", 1)[1])
    assert run(["spectrum", "--operator", "frame", "--seq", seq, "--N", str(n)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schatten"]["2"] == pytest.approx(math.sqrt(n), rel=1e-12)


def test_hs_suite_on_lebesgue_emits_json(capsys):
    code = run(["verify", "--suite", "hs", "--measure", "lebesgue"])
    assert code == 0
    fields = _fields(json.loads(capsys.readouterr().out))
    three_way = fields["hs-three-way"]
    # the Poisson integral diverges: no kernel check, no ratio to it
    assert "kernel-double-integral-matches-poisson" not in fields
    assert three_way["poisson_divergent"] and three_way["poisson"] is None
    assert three_way["note"].startswith("poisson integral divergent")
    assert three_way["ratios"]["embedding_over_sqrt_poisson"] is None
    assert three_way["ratios"]["kernel2_sq_over_poisson"] is None


def test_hs_kernel_matches_poisson_near_one(capsys):
    # the Poisson integral is 1e12 + 2, dominated by the atom at delta = 1e-12
    code = run(["verify", "--suite", "hs", "--measure", "atoms:1e-12:1,0.5:1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["kernel-double-integral-matches-poisson"] == "PASS"


# atoms at delta = 2**-k with masses 4**-k, k = 1..30: the Poisson integral is 1 - 2**-30
_GEOMETRIC_ATOMS = "atoms:" + ",".join(f"{2.0 ** -k!r}:{4.0 ** -k!r}" for k in range(1, 31))


def test_hs_fields_on_geometric_atoms(capsys):
    code = run(["verify", "--suite", "hs", "--seq", "geometric:1,2,24", "--N", "12",
                "--q", "2,4", "--measure", _GEOMETRIC_ATOMS])
    three_way = _fields(json.loads(capsys.readouterr().out))["hs-three-way"]
    assert code == 0 and not three_way["poisson_divergent"] and three_way["note"] is None
    assert three_way["poisson"] == pytest.approx(1.0, abs=1e-6)
    assert three_way["hs_embedding"] > three_way["hs_synthesis"] > 0.0
    assert set(three_way["kernel"]) == {"2", "4"}
    assert three_way["ratios"]["kernel2_sq_over_poisson"] == pytest.approx(1.0, abs=1e-6)


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


def _python(*args, stdin=None):
    # the child imports the same package as this test, wherever pytest found it
    src = str(Path(muntzlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], input=stdin,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def _python_dash_m(*argv):
    return _python("-m", "muntzlab", *argv)


def test_python_dash_m_runs_the_cli():
    out = _python_dash_m("--help")
    assert out.returncode == 0
    assert "usage: muntzlab" in out.stdout


# the options each suite reads, and so the ones verify accepts and records with it
SUITE_READS = {
    "basis": {"seq", "p", "N", "seed", "tol"},
    "isometry-threshold": {"seq", "p", "N", "eps", "seed"},
    "pairing-dichotomy": {"seq", "p"},
    "envelope": {"seq", "alpha_list"},
    "crossterm-bound": set(),
    "diagonal-domination": {"seq", "measure", "N", "seed", "tol"},
    "blocksum-probe": {"seq", "p"},
    "carleson": {"seq", "measure", "p", "q", "N", "tol"},
    "compact": {"seq", "measure", "N", "tol"},
    "hs": {"seq", "measure", "N", "q", "tol"},
    "ex-a": {"p", "q", "count", "tol"},
    "ex-b": {"p", "q", "count", "tol"},
}
# the options each subcommand accepts: for verify and report, those of some suite
_SUITE_OPTIONS = set().union(*SUITE_READS.values()) | {"out"}
OPTIONS = {
    "classify": {"seq", "decompose", "out"},
    "moments": {"seq", "measure", "p", "out", "format"},
    "dnp": {"seq", "measure", "p", "N", "tol", "out", "format", "weight"},
    "bounds": {"seq", "p", "eps", "count", "out", "formula", "r", "alpha"},
    "norm": {"seq", "measure", "p", "out", "coeffs"},
    "probe": {"seq", "p", "seed", "out", "trials"},
    "spectrum": {"seq", "measure", "N", "tol", "out", "operator"},
    "example": {"p", "q", "tol", "count", "out", "format", "label"},
    "verify": _SUITE_OPTIONS | {"suite"},
    "report": _SUITE_OPTIONS | {"suites"},
}
# command lines that together take every branch of a handler that reads an option
# and reach every function the package exports (the recursive sequence and the
# atoms spec reach their builders; test_public_surface_is_reached_from_the_command_lines)
_READERS = {
    "classify": [["--decompose", "2"], ["--seq", "recursive:1,2,1,8"]],
    "moments": [[], ["--measure", "atoms:0.5:1,0.1:0.5,0.001:0.25"]],
    "dnp": [["--N", "4"]],
    "bounds": [["--formula", f] for f in ("jlambda", "lemma31", "r_epsilon", "envelope")],
    "norm": [[]],
    "probe": [["--trials", "3"]],
    "spectrum": [["--operator", "synthesis", "--N", "4"]],
    "example": [["--label", "A", "--count", "12"]],
    "verify": [["--suite", suite] for suite in SUITE_IDS],
    "report": [["--seq", "geometric:1,2,8", "--N", "8", "--count", "12",
                "--suites", "basis,isometry-threshold,envelope,compact,ex-a"]],
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
    assert sum(len(v) for v in OPTIONS.values()) == 71


@pytest.mark.parametrize("argv", [
    ["probe", "--measure", "atoms:0.5:1"],  # probe samples Lebesgue norms only
    ["spectrum", "--p", "3"],               # spectra are p = 2
    ["classify", "--format", "csv"],        # classify writes JSON only
    ["probe", "--block-len", "8"],          # probe samples ratios only
], ids=["probe-measure", "spectrum-p", "classify-format", "probe-block-len"])
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
], ids=["spectrum-frame-measure", "spectrum-embedding-tol", "bounds-jlambda-seq",
        "bounds-envelope-p"])
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
    (["probe", "--trials", "3"], "trials", 3),
    (["probe"], "trials", 100),
    (["probe", "--seed", "3"], "seed", 3),
], ids=["given-seq", "given-r", "default-r", "given-trials", "default-trials", "given-seed"])
def test_option_its_branch_reads_is_given_or_defaulted(argv, key, want, capsys):
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out.get("inputs", {}).get(key, out.get(key)) == want


@pytest.mark.parametrize("trials", [0, 3])
def test_probe_trials_count_the_random_rows(trials, capsys):
    # the 16 canonical rows were counted too: --trials 0 wrote "trials": 16
    assert run(["probe", "--trials", str(trials)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["inputs"]["trials"] == out["trials"] == trials


@pytest.mark.parametrize("cmd", sorted(set(_READERS) - {"verify", "report"}))
def test_commands_record_the_options_they_read(cmd, capsys):
    # each option the handler reads, with its value; not where the output goes
    # (--out, --format); norm adds its coefficients as read, dnp its effective n
    # and example its effective q
    parser = build_parser()
    derived = {"dnp": {"n"}, "norm": {"coefficients"}}.get(cmd, set())
    for argv in _READERS[cmd]:
        ns = parser.parse_args([cmd, *argv])
        rec = _Recording(vars(ns))
        assert ns.fn(rec) == 0
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert set(inputs) == (rec.read - {"out", "format"}) | derived
        assert all(inputs[d] == getattr(ns, d) for d in set(inputs) - derived - {"q"})


@pytest.mark.parametrize("cmd", sorted(OPTIONS))
def test_subcommand_help_lists_its_options(cmd):
    out = _python_dash_m(cmd, "--help")
    assert out.returncode == 0
    assert out.stdout.startswith(f"usage: muntzlab {cmd}")
    for option in OPTIONS[cmd]:
        assert f"--{option.replace('_', '-')} " in out.stdout, option


# small inputs shared by the per-suite tests, by dest name: each suite runs in well
# under a second.  count 12 keeps the example instances short; every count from 3 on
# is decided (test_short_example_instances_are_decided).
SMALL_ATOMS = "atoms:0.5:1,0.1:0.5,0.001:0.25"
SMALL = {"seq": "geometric:1,2,8", "N": "8", "measure": SMALL_ATOMS, "count": "12"}


def _small(suites, **values):
    """The options of SMALL, with ``values`` by dest name, that one of the suites reads."""
    reads = set().union(*(SUITE_READS[s] for s in suites))
    return [a for d, v in {**SMALL, **values}.items() if d in reads
            for a in (f"--{d.replace('_', '-')}", v)]


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
    "blocksum-probe": ["block-indicator-ratios", "block-ratios-below-jlambda"],
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


def _verify(capsys, suite, *extra, **values):
    code = run(["verify", "--suite", suite, *_small([suite], **values), *extra])
    return code, json.loads(capsys.readouterr().out)


def test_every_suite_has_a_cli_test():
    assert set(SUITE_CHECKS) == set(SUITE_READS) == set(SUITE_IDS)


# a value for each suite option, for the usage-error tests
_VALUES = {"seq": "geometric:1,2,8", "measure": "lebesgue", "p": "3", "q": "4", "N": "4",
           "tol": "1e-6", "seed": "1", "eps": "0.1", "count": "12", "alpha_list": "1"}


@pytest.mark.parametrize("suite,dest", [(s, d) for s in SUITE_IDS
                                        for d in sorted(set(_VALUES) - SUITE_READS[s])])
def test_option_the_suite_does_not_read_is_a_usage_error(suite, dest, capsys):
    option = f"--{dest.replace('_', '-')}"
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", suite, option, _VALUES[dest]])
    assert exc.value.code == 2
    assert f"error: {option} is not read with --suite {suite}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_every_option_a_suite_lists_reaches_its_function(suite, monkeypatch, capsys):
    function, options = cli._SUITES[suite]
    seen = {}

    @functools.wraps(function)  # so the spy takes the store when the function does
    def spy(**kwargs):
        seen.update(kwargs)
        return function(**kwargs)

    monkeypatch.setitem(cli._SUITES, suite, (spy, options))
    code, report = _verify(capsys, suite)
    assert code == 0
    assert set(report["inputs"]) == set(seen) - {"store"} == SUITE_READS[suite]
    # and the function's body reads each of them
    source = textwrap.dedent(inspect.getsource(getattr(function, "func", function)))
    body = ast.parse(source).body[0].body
    loaded = {n.id for stmt in body for n in ast.walk(stmt)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert set(seen) <= loaded


@pytest.mark.parametrize("suite,extra,dest,want", [
    ("envelope", [], "alpha_list", [0.5, 1.0, 2.0]),
    ("envelope", ["--alpha-list", "1,3"], "alpha_list", [1.0, 3.0]),
    ("hs", [], "q", [2.0]),
    ("ex-a", [], "q", [2.0, 3.0]),
    ("ex-a", ["--p", "3"], "q", [3.0, 4.0]),
    ("ex-a", ["--q", "5"], "q", [5.0]),
    ("ex-b", [], "q", [1.0]),
    ("carleson", [], "q", []),
], ids=["envelope-default", "envelope-given", "hs-default", "ex-a-default", "ex-a-p=3",
        "ex-a-given", "ex-b-default", "carleson-default"])
def test_verify_records_the_values_its_suite_ran_on(suite, extra, dest, want, capsys):
    code, report = _verify(capsys, suite, *extra)
    assert code == 0
    assert report["inputs"][dest] == want


def test_report_refuses_an_unknown_suite_before_running_any(tmp_path, capsys):
    out = tmp_path / "D"
    out.mkdir()
    with pytest.raises(SystemExit) as exc:
        run(["report", "--suites", "basis,nonesuch", "--out", str(out)])
    assert exc.value.code == 2
    assert "'nonesuch'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_report_refuses_an_option_none_of_its_suites_reads(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["report", "--suites", "basis,envelope", "--measure", "lebesgue",
             "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--measure is not read with --suites basis,envelope" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py's WORKLOADS, imported from the checkout, not changed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # a benchmark report line the parser refuses would only show as a failed run
    workloads = _benchmark_workloads(monkeypatch)
    assert set(workloads) == {"report-default", "report-atoms64", "report-p3"}
    for name, workload in workloads.items():
        ns = build_parser().parse_args(workload.argv(0, str(tmp_path)))
        assert ns.cmd == "report" and ns.out == str(tmp_path), name
        assert set(ns.suites) == set(workload.check_names), name


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("name", ["report-default", "report-atoms64", "report-p3"])
def test_benchmark_battery_runs_and_validates(name, monkeypatch, tmp_path, capsys):
    # one battery of each workload, judged as perfbench/run.py judges it, so a
    # benchmark run that would fail or give wrong outputs shows here too
    workload = _benchmark_workloads(monkeypatch)[name]
    code = run(workload.argv(0, str(tmp_path)))
    capsys.readouterr()
    assert code in (0, 1)
    json.loads((tmp_path / "index.json").read_text(), parse_constant=_refuse_constant)
    for suite in workload.suites:
        report = json.loads((tmp_path / f"verify-{suite}.json").read_text(),
                            parse_constant=_refuse_constant)
        assert tuple(c["name"] for c in report["checks"]) == workload.check_names[suite], suite
        assert [c["name"] for c in report["checks"] if c["status"] == "FAIL"] == [], suite


def test_cli_processes_never_load_numpy_random(monkeypatch, tmp_path):
    # importing numpy.random also loads secrets, hashlib and OpenSSL's libcrypto
    # (5.1 MiB of resident memory); the coefficient draws come from the standard
    # library, so a fresh interpreter running every battery and every other
    # sampling command never loads them
    argvs = [w.argv(0, str(tmp_path / name))
             for name, w in _benchmark_workloads(monkeypatch).items()]
    argvs += [["probe", "--p", "3"], ["verify", "--suite", "isometry-threshold", "--p", "3"]]
    child = textwrap.dedent("""
        import json, sys
        from muntzlab import cli
        codes = [cli.run(argv) for argv in json.load(sys.stdin)]
        print(json.dumps([codes, [m for m in ("numpy.random", "secrets", "hashlib")
                                  if m in sys.modules]]))
    """)
    out = _python("-W", "error", "-c", child, stdin=json.dumps(argvs))
    assert out.returncode == 0, out.stderr
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs)
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "basis", "--seed", "-1"],
    ["verify", "--suite", "diagonal-domination", "--seed", "-1"],
    ["verify", "--suite", "isometry-threshold", "--p", "3", "--seed", "-1"],
    ["probe", "--seed", "-1"],
], ids=["basis", "diagonal-domination", "isometry-threshold", "probe"])
def test_negative_seed_exits_2(argv, capsys):
    # random.Random would draw the same vectors for -s as for s
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be >= 0, got -1\n"


@functools.cache
def _mp_block_ratios(spec: str, p: float) -> list[float]:
    """The blocksum suite's ratios, in mpmath: ||sum_{j<n} t**lam_j||_p over
    (sum_{j<n} 1 / q_j)**(1/p), q_j = p lam_j + 1, for n = 1, 2, 4, ... <= len(seq).
    At p = 2 and 3 the p-th power of the norm is the sum of 1 / (lam_j + lam_k + 1)
    (+ lam_l) over the block; at other p it is mpmath's quad on the panels split at
    t = 1 - 2**-k, down to 2**-4 / (p lam) for the block's largest lam."""
    seq = cli.parse_sequence(spec)
    lengths = [2 ** k for k in range(len(seq).bit_length())]
    depth = int(math.log2(p * seq[lengths[-1] - 1])) + 4
    ratios = []
    with mpmath.workdps(20):
        lam = [mpmath.mpf(v) for v in seq.exponents]
        edges = [0] + [1 - mpmath.mpf(2) ** -k for k in range(1, depth)] + [1]
        for n in lengths:
            block = lam[:n]
            if p in (2.0, 3.0):
                power = mpmath.fsum(1 / (sum(c) + 1)
                                    for c in itertools.product(block, repeat=int(p)))
            else:
                power = mpmath.quad(lambda t: mpmath.fsum(t ** v for v in block) ** p, edges)
            coeff = mpmath.fsum(1 / (p * v + 1) for v in block)
            ratios.append(float((power / coeff) ** (1 / mpmath.mpf(p))))
    return ratios


def _blocksum(spec: str, p: float) -> dict:
    """The blocksum suite's checks on a sequence spec, by name."""
    return {c["name"]: {"status": c["status"], **c["data"]}
            for c in cli.suite_blocksum(cli.parse_sequence(spec), p)}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("spec", ["geometric:1,2,16", "geometric:1,1.2,40", "geometric:0.01,2,16"])
def test_block_ratios_are_exact(spec, p):
    # the node norms against the exact sums (p = 2, 3) and mpmath's quad (p = 1.5)
    checks = _blocksum(spec, p)
    want = _mp_block_ratios(spec, p)
    rel = 1e-12 if p == 1.5 else 1e-13
    assert checks["block-indicator-ratios"]["ratios"] == pytest.approx(want, rel=rel, abs=0.0)
    assert checks["block-ratios-below-jlambda"]["status"] == "PASS"


@pytest.mark.parametrize("lambda0, ratio, count", [
    (1, 2, 16), (1, 4, 16), (1, 1.5, 32), (1, 16, 12), (0.01, 2, 16), (1, 1.2, 17), (1, 100, 8),
    (1, 1e4, 8)])
def test_block_ratios_below_the_frame_norm(lambda0, ratio, count):
    # at p = 2 each block ratio is a Rayleigh quotient of the normalized Gram of the
    # rows' prefix, so at most its sigma_max: node norms against Cholesky and SVD
    seq = sequences_mod.generate_geometric(lambda0, ratio, count)
    checks = {c["name"]: c["data"] for c in cli.suite_blocksum(seq, 2.0)}
    lengths, ratios = checks["block-indicator-ratios"].values()
    assert max(ratios) <= hilbert.frame_bounds(seq, lengths[-1]).sigma_max * (1.0 + 1e-12)


def test_block_ratios_grow_off_lacunarity():
    # on 1, 2, ..., 64 every block has a larger ratio than the one before it; the
    # bound of the shifted ratio 129/127 is still far above them
    checks = _blocksum("explicit:" + ",".join(str(k) for k in range(1, 65)), 2.0)
    ratios = checks["block-indicator-ratios"]["ratios"]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(6.2606, rel=1e-4)
    assert checks["block-ratios-below-jlambda"]["bound"] == pytest.approx(22.605, rel=1e-4)


def test_block_ratios_of_one_exponent_decide_nothing():
    # one exponent has no shifted ratio, so no bound
    assert list(_blocksum("explicit:3", 2.0)) == ["block-indicator-ratios"]


def _mp_pairing(lam0, lam1, p):
    """The normalized pairing q1**(1/p) q0**(1/p') / ((p - 1) lam0 + lam1 + 1) of two
    exponents, q = p lam + 1, in 30 digits from the floats."""
    with mpmath.workdps(30):
        lam0, lam1, p = mpmath.mpf(lam0), mpmath.mpf(lam1), mpmath.mpf(p)
        q0, q1 = p * lam0 + 1, p * lam1 + 1
        return float(q1 ** (1 / p) * q0 ** (1 - 1 / p) / ((p - 1) * lam0 + lam1 + 1))


def _pairing(seq, p):
    """The values and bounds of the pairing-dichotomy suite on seq at p."""
    data = cli.suite_pairing(seq, p)[0]["data"]
    return data["values"], data["bounds"]


class TestPairing:
    def test_exact_small_case(self):
        values, bounds = _pairing(sequences_mod.ExponentSequence((1.0, 2.0)), 2.0)
        assert values[0] == pytest.approx(math.sqrt(15.0) / 4.0, rel=1e-14)
        assert bounds[0] == pytest.approx(0.6)

    def test_value_matches_brute_integral(self):
        # f_{n+1} f_n**(p-1) has an elementary antiderivative; compare p = 3
        seq = sequences_mod.ExponentSequence((2.0, 5.0))
        p = 3.0
        values, _ = _pairing(seq, p)
        q0, q1 = p * 2.0 + 1.0, p * 5.0 + 1.0
        brute = q1 ** (1 / p) * q0 ** (1 - 1 / p) / ((p - 1) * 2.0 + 5.0 + 1.0)
        assert values[0] == pytest.approx(brute, rel=1e-15)
        quad = mpmath.quad(lambda t: q1 ** (1 / p) * t ** 5 * (q0 ** (1 / p) * t ** 2) ** (p - 1),
                           [0, 1])
        assert values[0] == pytest.approx(float(quad), rel=1e-14)

    def test_super_lacunary_decays(self):
        seq = sequences_mod.ExponentSequence(tuple(2.0 ** (n * n) for n in range(8)))
        values, _ = _pairing(seq, 2.0)
        assert len(values) == 7
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05

    def test_geometric_stays_above_bound(self):
        values, bounds = _pairing(sequences_mod.generate_geometric(1, 2, 14), 2.0)
        assert len(values) == 13
        assert all(value >= bound >= 0.45 for value, bound in zip(values, bounds))

    @given(st.floats(min_value=1.0, max_value=6.0))
    @settings(max_examples=40)
    def test_value_at_least_bound(self, p):
        values, bounds = _pairing(sequences_mod.generate_geometric(0.5, 1.7, 12), p)
        assert all(value >= bound - 1e-12 for value, bound in zip(values, bounds))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 400.0])
    @pytest.mark.parametrize("spec", ["geometric:1,2,16", "geometric:0.01,1.2,40",
                                      "recursive:1,2,12,3"])
    def test_values_are_the_pairings_of_the_exponents(self, spec, p):
        # g(rho) of the shifted ratio alone is the pairing of the two exponents
        seq = cli.parse_sequence(spec)
        values, bounds = _pairing(seq, p)
        assert values == pytest.approx([_mp_pairing(a, b, p) for a, b in zip(seq, seq[1:])],
                                       rel=1e-13, abs=0.0)
        assert bounds == pytest.approx([(p * a + 1.0) / (p * b + 1.0)
                                        for a, b in zip(seq, seq[1:])], rel=1e-13, abs=0.0)


# Inputs past the float range: r_epsilon and construction B's exponents overflow
# at p = 50 and p = 1.0001, the envelope's ratios underflow to 0 (their logs do
# not), and the Schatten powers of values near 1e150 overflow.  Each exits 0, 1 or 2, never
# with a traceback or a warning: argv, exit code, {check name: expected data and
# status} (at exit 2, the phrases the one error line names).
_EXTREME_INPUTS = {
    "isometry-p=50": (["verify", "--suite", "isometry-threshold", "--p", "50"], 0,
                      {"shifted-ratio-meets-threshold": {"r_epsilon": "inf"}}),
    "isometry-p=1.0001": (["verify", "--suite", "isometry-threshold", "--p", "1.0001"], 0,
                          {"shifted-ratio-meets-threshold": {"r_epsilon": "inf"}}),
    "r_epsilon-p=50": (["bounds", "--formula", "r_epsilon", "--p", "50"], 0, {}),
    # r**(1/(p(p-1))) - 1 underflows to 0 at p = 1e300: the bound is inf, not a
    # division by zero, and the block ratios are not decided against it
    "jlambda-p=1e300": (["bounds", "--formula", "jlambda", "--p", "1e300", "--r", "2"], 0, {}),
    "blocksum-p=1e300": (["verify", "--suite", "blocksum-probe", "--p", "1e300"], 0,
                         {"block-ratios-below-jlambda": {"status": "EVIDENCE", "bound": "inf"}}),
    # every |a_j|**p / q_j of a random row underflowed to 0 at p = 1e300, and its
    # ratio was a division by zero; each row is now scaled by its largest |a_j|
    # first, and D_n's tail estimate (p - 1) * ... reads inf: an unsafe tail
    "probe-p=1e300": (["probe", "--p", "1e300"], 0,
                      {"max_ratio": pytest.approx(6.787422933337027, rel=1e-12),
                       "min_ratio": pytest.approx(0.33329863910445534, rel=1e-12)}),
    "basis-p=1e300": (["verify", "--suite", "basis", "--p", "1e300"], 0,
                      {"ratio-sample-bracket": {
                          "max_ratio": pytest.approx(6.787422933337027, rel=1e-12)},
                       "canonical-vectors-normalized": {"status": "PASS", "min_ratio": 1.0,
                                                        "max_ratio": 1.0},
                       "lebesgue-diagonal-bounded": {"tails_safe": False}}),
    "isometry-p=1e300": (["verify", "--suite", "isometry-threshold", "--p", "1e300"], 0,
                         {"sampled-ratios-within-eps": {
                             "min_ratio": pytest.approx(0.33329863910445534, rel=1e-12)}}),
    # p'**alpha = 2**2000 overflowed a float power; the right side is taken from
    # its logarithm, 2**2001 / (2**1000 - 1) at p = r = 2
    "lemma31-alpha=2000": (["bounds", "--formula", "lemma31", "--alpha", "2000"], 0,
                           {"value": {"rhs": pytest.approx(
                               float(2 * mpmath.mpf(2) ** 2000 / (mpmath.mpf(2) ** 1000 - 1)),
                               rel=1e-12, abs=0.0)}}),
    # the diagonal ratios, 1 up to rounding, overflowed at the power 1e300
    "lemma31-r=1e10-alpha=1e300": (["bounds", "--formula", "lemma31", "--r", "1e10",
                                    "--count", "31", "--alpha", "1e300"], 0,
                                   {"value": {"lhs": 0.0, "rhs": 0.0}}),
    # r**k and an atom's mass past the float range were OverflowError tracebacks
    "lemma31-r=1e10-count=40": (["bounds", "--formula", "lemma31", "--r", "1e10",
                                 "--count", "40"], 2,
                                ("r**(count - 1) = 1e+10**39 is beyond the float range",)),
    **{f"example-{label}-p={p}": (["example", "--label", label, "--p", p, "--count", "5"], 2,
                                  ("collapses below 3 usable indices",))
       for label, p in (("A", "1e300"), ("B", "1e10"))},
    "ex-a-p=1e300": (["verify", "--suite", "ex-a", "--p", "1e300"], 2,
                     ("collapses below 3 usable indices",)),
    "ex-b-p=50": (["verify", "--suite", "ex-b", "--p", "50"], 2, {}),
    "ex-b-p=1.0001": (["verify", "--suite", "ex-b", "--p", "1.0001"], 2, {}),
    # the alpha = 2 ratios lie below the smallest float, so ratio_min reads 0; the
    # check is decided on the logs of the edges, and the width is their difference
    "envelope-lam0=1e-300": (["verify", "--suite", "envelope", "--seq", "geometric:1e-300,2,16"],
                             0, {"envelope-positive-finite-alpha=2": {"ratio_min": 0.0},
                                 "envelope-bracket-alpha=2": {"ratio_min": 0.0, "width": 1.0}}),
    "domination-ratio=1e20": (["verify", "--suite", "diagonal-domination",
                               "--seq", "geometric:1,1e20,16",
                               "--measure", "atoms:1e-300:1,0.5:1"], 0, {}),
    # D_1 is about 1e409 on the node route: past the float range, refused as on p = 1
    "dnp-p=1.5-past-the-float-range": (["dnp", "--seq", "explicit:1,1e306",
                                        "--measure", "atoms:1e-307:1e308", "--p", "1.5"], 2, {}),
    # D_1 = 1.6e308 lies between the old 709.0 cut and the float edge; their sum does not
    "dnp-p=1-at-the-float-edge": (["dnp", "--seq", "explicit:1e300,2e300",
                                   "--measure", "atoms:1e-310:8e7", "--p", "1"], 0,
                                  {"rows": {"D_n": pytest.approx([8.0e307, 1.6e308], rel=1e-9)},
                                   "bounds": {"nuclear": "inf", "sup": pytest.approx(1.6e308,
                                                                                      rel=1e-9)}}),
    # w_0 = 1/lam_0 overflows, w_0 D_0^2 = e^372 does not
    "domination-lam0=5e-324": (["verify", "--suite", "diagonal-domination",
                                "--seq", "explicit:5e-324,1,2", "--N", "3"], 0,
                               {"random-vector-domination": {
                                   "worst_excess": pytest.approx(-7.29e78, rel=1e-3)}}),
    # the squared entries of the embedding overflow; its singular values do not
    "spectrum-entries-past-1e154": (["spectrum", "--seq", "explicit:1,1e306",
                                     "--measure", "atoms:1e-307:1e308", "--N", "2"], 0,
                                    {"drift": {"hs_half": pytest.approx(3 ** 0.5 * 1e154,
                                                                        rel=1e-12)}}),
    # sigma_1 = 1.17e308 lies above 2**1023, the largest power of two to scale by
    "spectrum-sigma-past-2**1023": (["spectrum", "--operator", "synthesis",
                                     "--seq", "explicit:1,8e307",
                                     "--measure", "atoms:1e-320:1.7e308", "--N", "2"], 0,
                                    {"schatten": {"2": pytest.approx(1.1661903789681139e308,
                                                                     rel=1e-12)}}),
    # the Gram trace, kernel**2, the Poisson value and hs**2 pass the float range;
    # kernel**2 / poisson is taken from logs and hs**2 against sum D_n**2 scaled
    "hs-squares-past-1e154": (["verify", "--suite", "hs", "--seq", "explicit:1,1e306",
                               "--measure", "atoms:1e-307:1e308", "--N", "2"], 0,
                              {"kernel-double-integral-matches-poisson": {"kernel_sq": "inf",
                                                                          "poisson": "inf"},
                               "synthesis-hs-below-profile-l2": {"hs_squared": "inf",
                                                                 "bound": "inf"},
                               "hs-three-way": {"ratios": {
                                   # 1.2796e307 / sqrt(1e615), from logs
                                   "embedding_over_sqrt_poisson": pytest.approx(0.40465559506,
                                                                                rel=1e-9),
                                   "embedding_over_synthesis": pytest.approx(2 ** 0.5, rel=1e-12),
                                   "kernel2_sq_over_poisson": pytest.approx(1.0, rel=1e-9)}}}),
    "carleson-trace-past-1e154": (["verify", "--suite", "carleson", "--seq", "explicit:1,1e306",
                                   "--measure", "atoms:1e-307:1e308", "--N", "2"], 0,
                                  {"synthesis-norm-below-sup-profile": {
                                      "sigma_max": pytest.approx(9.048374180359451e306,
                                                                 rel=1e-12)}}),
    "domination-trace-past-1e154": (["verify", "--suite", "diagonal-domination",
                                     "--seq", "explicit:1,1e306",
                                     "--measure", "atoms:1e-307:1e308", "--N", "2"], 0,
                                    {"hilbert-schmidt-equals-trace": {
                                        "status": "PASS", "hs_squared": "inf", "trace": "inf"}}),
    # norm_s = 1e300 comes from the atom at 1e-300, which no t**(2 lam), lam <= 2**15,
    # sees; in the window eps in [2**-16, 1/2] the sup is 2**16, below the bound
    "carleson-atom-past-the-prefix": (["verify", "--suite", "carleson", "--seq",
                                       "geometric:1,2,16", "--measure", "atoms:1e-300:1,0.5:1"],
                                      0, {"sublinear-vs-monomial-test": {
                                          "status": "EVIDENCE", "window": [2.0 ** -16, 0.5],
                                          "window_sup": 65536.0}}),
    # t**0 sees every eps, so a leading exponent 0 opens the window up to 1
    "carleson-leading-exponent-0": (["verify", "--suite", "carleson", "--seq", "explicit:0,1,2,4",
                                     "--p", "3", "--measure", "atoms:1e-300:1,0.5:1"],
                                    0, {"sublinear-vs-monomial-test": {
                                        "status": "EVIDENCE", "window": [1.0 / 12.0, 1.0],
                                        "window_sup": 12.0}}),
    # p lam_N < 1 puts lo = 1 / (p lam_N) past 1: the window is empty (it was refused),
    # so norm_s alone decides, within the bound 2.67 here, and there is no window sup
    "carleson-empty-window": (["verify", "--suite", "carleson", "--seq", "explicit:0.2,0.4"], 0,
                              {"sublinear-vs-monomial-test": {
                                  "status": "PASS", "norm_s": 1.0, "window": [1.25, 1.0],
                                  "window_sup": None}}),
    # norm_s = 1 is above the bound 0.444, but the monomials see no eps: no FAIL
    "carleson-empty-window-p=1": (["verify", "--suite", "carleson", "--seq",
                                   "geometric:0.01,2,4", "--p", "1"], 0,
                                  {"sublinear-vs-monomial-test": {
                                      "status": "EVIDENCE", "window_sup": None,
                                      "bound": pytest.approx(4.0 / 9.0, rel=1e-12)}}),
    # p lam_N = 3.8e-298 at p = 3, and the bound 2.3e-297 is below norm_s = 1
    "carleson-empty-window-lam0=1e-300": (["verify", "--suite", "carleson", "--seq",
                                           "geometric:1e-300,2,8", "--p", "3", "--q", "4"], 0,
                                          {"sublinear-vs-monomial-test": {
                                              "status": "EVIDENCE", "window_sup": None}}),
    # the Poisson integral 4.1e607, kernel**2 and sum D_n**2 pass the float range
    # (hs**2 = 1.23e308 does not): each check is decided on its logs
    "hs-poisson-past-the-float-range": (["verify", "--suite", "hs", "--seq", "explicit:1,2",
                                         "--N", "2", "--measure", "atoms:1e-300:4.1e307"], 0,
                                        {"kernel-double-integral-matches-poisson": {
                                            "status": "PASS", "kernel_sq": "inf",
                                            "poisson": "inf"},
                                         "synthesis-hs-below-profile-l2": {
                                             "status": "PASS", "bound": "inf"}}),
    # norm_s = 4.1e607 exceeds the bound 9.8e308, both inf as floats: no PASS on
    # inf <= inf; the window sup 1.64e308 is within the bound
    "carleson-norm-and-bound-past-the-float-range": (
        ["verify", "--suite", "carleson", "--seq", "explicit:1,2", "--N", "2",
         "--measure", "atoms:1e-300:4.1e307"], 0,
        {"sublinear-vs-monomial-test": {"status": "EVIDENCE", "norm_s": "inf", "bound": "inf",
                                        "window_sup": pytest.approx(1.64e308, rel=1e-12)}}),
    # norm_s, the bound and the window sup 4e308 are all inf as floats: undecided
    "carleson-window-sup-past-the-float-range": (
        ["verify", "--suite", "carleson", "--seq", "explicit:1,2", "--N", "2",
         "--measure", "atoms:0.1:1e308"], 0,
        {"sublinear-vs-monomial-test": {"status": "EVIDENCE", "window_sup": "inf",
                                        "note": "value beyond float range at this scale"}}),
    # 1 / delta overflows, so the kernel integral's nodes cannot reach the atom
    "hs-subnormal-atom-delta": (["verify", "--suite", "hs", "--measure", "atoms:1e-320:1",
                                 "--seq", "geometric:1,2,8", "--N", "4"], 2,
                                ("atom delta 1e-320",)),
    # |f|**p and the Gram form of coefficients far from 1 underflow or overflow;
    # the rows are scaled by a power of two (values: test_norm_of_extreme_coefficients)
    "norm-coeffs=1e-200": (["norm", "--seq", "geometric:1,2,4", "--p", "2",
                            "--coeffs", "1e-200"], 0, {}),
    "norm-coeffs=1e200": (["norm", "--seq", "geometric:1,2,4", "--p", "2",
                           "--coeffs", "1e200,1e200"], 0, {}),
    "norm-coeffs=1e200-p=3": (["norm", "--seq", "geometric:1,2,4", "--p", "3",
                               "--coeffs", "1e200,1e200"], 0, {}),
    # the scaling bounds the largest |a_j|, not |f|: |f|**400 of sixteen 1s would
    # overflow the Lebesgue panels, so the row takes the nodes, in logs, and keeps
    # the value of the uniform density; the alternating row, sup |f| = 0.5, too
    "norm-p=400-ones": (["norm", "--seq", "geometric:1,2,16", "--p", "400",
                         "--coeffs", ",".join(["1"] * 16)], 0,
                        {"value": pytest.approx(15.438172191504238, rel=1e-12)}),
    "norm-p=400-alternating": (["norm", "--seq", "geometric:1,2,16", "--p", "400",
                                "--coeffs", ",".join(["1", "-1"] * 8)], 0,
                               {"value": pytest.approx(0.49420943699423026, rel=1e-12)}),
    # p lam reaches 1.8e21 and |f|**p spans 200 * 63 log 2 in logs; the ratios are
    # _mp_block_ratios's quad at p = 200 (about 2.5 min, so kept as numbers here)
    "blocksum-p=200": (["verify", "--suite", "blocksum-probe", "--seq", "geometric:1,2,64",
                        "--p", "200"], 0,
                       {"block-indicator-ratios": {"ratios": pytest.approx([
                           1.0, 1.9919208747052908, 3.9612765535425534, 7.83612807934151,
                           15.297087593516437, 29.04859104960774, 52.196341853926], rel=1e-12)},
                        "block-ratios-below-jlambda": {"status": "PASS"}}),
    # p lam + 1 is 1.0 for both exponents, so the shifted ratio r is 1 and the bound,
    # which tends to inf as r -> 1, decides nothing
    "blocksum-shifted-ratio-of-1": (["verify", "--suite", "blocksum-probe",
                                     "--seq", "explicit:1e-17,2e-17"], 0,
                                    {"block-ratios-below-jlambda": {
                                        "status": "EVIDENCE", "bound": "inf",
                                        "min_shifted_ratio": 1.0}}),
    # p * lam passes the float range: every node norm refuses it
    "blocksum-lam-past-1e306": (["verify", "--suite", "blocksum-probe",
                                 "--seq", "geometric:1,2,1024", "--p", "120"], 2,
                                ("p * lam beyond the float range",)),
    # every atom at t = 0: every moment, D_n and singular value is 0, so the
    # embedding norm has no ratio to sup D_n(2) (it divided by 0)
    "carleson-every-atom-at-t=0": (["verify", "--suite", "carleson", "--seq", "geometric:1,2,4",
                                    "--measure", "atoms:1:1"], 0,
                                   {"synthesis-norm-below-sup-profile": {
                                       "status": "PASS", "sigma_max": 0.0, "sup_profile": 0.0},
                                    "embedding-norm": {"ratio_to_sup_profile": None}}),
    # 1 / alpha overflows at a subnormal alpha; the Poisson integral scale / alpha does not
    # (its log is a sum of logs near -700, each rounded to 1.1e-13)
    "compact-subnormal-alpha": (["verify", "--suite", "compact", "--measure", {
        "kind": "density", "name": "oneminus_power", "params": {"alpha": 1e-310, "scale": 1e-300}}],
        0, {"order-boundedness-integral": {"value": pytest.approx(
            float(mpmath.mpf(1e-300) / mpmath.mpf(1e-310)), rel=1e-12)}}),
    # (1 - t)**-0.5 has tail / eps = 2 eps**-0.5, unbounded as eps -> 0: norm_s is inf
    # (it read 2**21, the ratio at the grid's last eps = 2**-40, and the check PASS);
    # in the window [2**-64, 1/2] the sup is at 2**-64, 2**33, within the bound
    "carleson-not-sublinear": (["verify", "--suite", "carleson", "--seq", "geometric:1,2,64",
                                "--measure", {"kind": "density", "name": "oneminus_power",
                                              "params": {"alpha": -0.5}}], 0,
                               {"sublinear-norm": {"norm_s": "inf", "attained_at": 0.0},
                                "sublinear-vs-monomial-test": {"status": "EVIDENCE",
                                                               "norm_s": "inf",
                                                               "window_sup": 2.0 ** 33}}),
    # 101**160 alone is past the float range, lam_101 = 4.9e20 is not; lam_102 passes
    # 1e306, so the generator stops there, decided in logs, with the cut flagged
    "classify-recursive-n**gamma-past-the-float-range": (
        ["classify", "--seq", "recursive:1e-300,100,160,3"], 0,
        {"truncated": True, "length": 2,
         "gap": pytest.approx(float(mpmath.mpf(1e-300) * 101 ** 160), rel=1e-13)}),
    # the ratios 1e100 and 1e400 increase; the second is past the float range, so
    # the trend is decided on their logs, 230 and 921 (inf has an inf ulp, so the
    # floats would read steady)
    "classify-ratio-past-the-float-range": (
        ["classify", "--seq", "explicit:1e-300,1e-200,1e200"], 0,
        {"classification": {"super_lacunary_trend": [1e100, "inf"],
                            "trend_note": "super-lacunary trend (ratios increasing)",
                            "trend_non_lacunary": False}}),
    # 3**10002 is past the float range (construction B at p = 1.0001): lam_2 alone
    "moments-recursive-first-step-past-1e306": (
        ["moments", "--seq", "recursive:1,2,10002,10"], 0,
        {"truncated": True, "rows": {"lambda_n": [1.0]}}),
    # lam_0 + lam_1 overflows; the halved sums of the one moments call do not
    "dnp-uniform-density-lam=1e308": (
        ["dnp", "--seq", "explicit:1,1e308", "--measure", {"kind": "density", "name": "uniform"}],
        0, {"rows": {"D_n": pytest.approx([3.0 ** -0.5, 0.5 ** 0.5], rel=1e-13),
                     "tail_flag": ["ok", "unsafe"]}}),
    # one exponent has no adjacent pair and no shifted ratio
    "pairing-one-exponent": (["verify", "--suite", "pairing-dichotomy", "--seq", "explicit:1"],
                             2, ("pairing-dichotomy needs at least two exponents, got 1",)),
    "isometry-one-exponent": (["verify", "--suite", "isometry-threshold", "--seq", "explicit:1",
                               "--N", "1"], 2,
                              ("isometry-threshold needs at least two exponents, got 1",)),
    # a negative row count reached random.randbytes ("number of bits must be
    # non-negative"), and a prefix of 0 terms was refused naming neither its
    # length nor the range, which dnp's refusal names
    "probe-trials=-1": (["probe", "--trials", "-1"], 2, ("trials must be >= 0, got -1",)),
    "basis-N=0": (["verify", "--suite", "basis", "--N", "0"], 2,
                  ("n_count 0 out of range 1..16",)),
    # 0 was a sentinel for the whole prefix (60 rows here); every --N reader refuses it
    "dnp-N=0": (["dnp", "--seq", "geometric:1,2,60", "--N", "0"], 2,
                ("n_count 0 out of range 1..60",)),
    "spectrum-N=0": (["spectrum", "--N", "0"], 2, ("truncation 0 out of range 1..16",)),
    # p lam = 3e308 is past the float range: the float pairing read inf, labeled
    # "bounded", and its bound 0 <= inf read PASS
    "pairing-lam=1e308-p=3": (
        ["verify", "--suite", "pairing-dichotomy", "--seq", "explicit:1,1e308", "--p", "3"], 0,
        {"pairing-above-lower-bound": {"status": "EVIDENCE", "values": pytest.approx(
            [_mp_pairing(1.0, 1e308, 3.0)], rel=1e-12, abs=0.0)},
         "pairing-trend": {"first": pytest.approx(1.6868653306034985e-205, rel=1e-12)}}),
    # the refusals of each input reader and closed form
    "bounds-jlambda-p=0.5": (["bounds", "--formula", "jlambda", "--p", "0.5"], 2,
                             ("p must be >= 1, got 0.5",)),
    "bounds-lemma31-r=1": (["bounds", "--formula", "lemma31", "--r", "1"], 2,
                           ("r must exceed 1, got 1.0",)),
    "bounds-r_epsilon-p=1": (["bounds", "--formula", "r_epsilon", "--p", "1"], 2,
                             ("p must exceed 1, got 1.0",)),
    "sequence-spec-unknown": (["moments", "--seq", "foo:1"], 2,
                              ("unknown sequence spec 'foo:1'",)),
    "sequence-spec-short": (["moments", "--seq", "geometric:1,2"], 2,
                            ("geometric needs lambda0,ratio,count",)),
    # a spec's head is recursive, its kind recursive_power: one table of fields
    "sequence-spec-recursive-short": (["moments", "--seq", "recursive:1,2,3"], 2,
                                      ("recursive needs lambda_start,start_index,gamma,count",)),
    "sequence-spec-kind-as-head": (["moments", "--seq", "recursive_power:1,2,3,4"], 2,
                                   ("unknown sequence spec 'recursive_power:1,2,3,4'",)),
    "sequence-kind-unknown": (["moments", "--seq", {"kind": "foo"}], 2,
                              ("unknown sequence kind 'foo'",)),
    "recursive-lambda_start=0": (["moments", "--seq", "recursive:0,2,3,4"], 2,
                                 ("lambda_start must be positive, got 0.0",)),
    "recursive-start_index=1": (["moments", "--seq", "recursive:1,1,3,4"], 2,
                                ("start_index must be >= 2, got 1",)),
    "recursive-gamma=0": (["moments", "--seq", "recursive:1,2,0,4"], 2,
                          ("exponent_power must be positive, got 0.0",)),
    "recursive-count=0": (["moments", "--seq", "recursive:1,2,3,0"], 2,
                          ("count must be positive, got 0",)),
    "measure-spec-unknown": (["moments", "--measure", "foo"], 2, ("unknown measure spec 'foo'",)),
    "measure-kind-unknown": (["moments", "--measure", {"kind": "foo"}], 2,
                             ("unknown measure kind 'foo'",)),
    "atoms-without-a-list": (["moments", "--measure", {"kind": "atoms"}], 2,
                             ("atoms measure needs a list of atoms, got None",)),
    "report-without-out": (["report"], 2, ("report needs --out DIRECTORY",)),
    "example-A-p=0.5": (["example", "--label", "A", "--p", "0.5"], 2,
                        ("construction A needs p >= 1",)),
    "hs-q=-1": (["verify", "--suite", "hs", "--q", "-1"], 2, ("q must be positive, got -1.0",)),
    # weights 1/lam have no value at lam_0 = 0: one refusal in dnp and hilbert alike
    **{f"inverse-lambda-lam0=0-{cmd[-1]}": (
        [*cmd, "--seq", "explicit:0,1,2"], 2,
        ("weights 1/lam need positive exponents, got lam = 0",))
       for cmd in (["verify", "--suite", "basis"], ["verify", "--suite", "compact"], ["dnp"],
                   ["verify", "--suite", "diagonal-domination"],
                   ["verify", "--suite", "carleson"], ["verify", "--suite", "hs"],
                   ["spectrum", "--operator", "synthesis"])},
}

# the exact norms of the norm rows above: ||t||_2 = 1/sqrt(3), ||t + t**2||_2 =
# sqrt(31/30) and ||t + t**2||_3 = (209/140)**(1/3)
_EXTREME_NORMS = {
    "norm-coeffs=1e-200": 1e-200 / 3 ** 0.5,
    "norm-coeffs=1e200": 1e200 * (31 / 30) ** 0.5,
    "norm-coeffs=1e200-p=3": 1e200 * (209 / 140) ** (1 / 3),
}


def _fields(report: dict) -> dict:
    """The checks of a verify report by name, each its data and status; any
    other report's top-level fields, its ``rows`` read column by column."""
    if "checks" in report:
        return {c["name"]: {"status": c["status"], **c["data"]} for c in report["checks"]}
    fields = dict(report)
    if "rows" in report:
        fields["rows"] = {f: [row[f] for row in report["rows"]] for f in report["rows"][0]}
    return fields


def _written(argv, tmp_path):
    """argv with each description object in it written to a file, as its file: spelling."""
    spelled = []
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"input-{i}.json"
            path.write_text(json.dumps(arg))
            arg = f"file:{path}"
        spelled.append(arg)
    return spelled


@pytest.mark.parametrize("case", list(_EXTREME_INPUTS))
def test_extreme_inputs_exit_with_a_message(case, tmp_path, capsys):
    argv, want, data = _EXTREME_INPUTS[case]
    argv = _written(argv, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    out, err = capsys.readouterr()
    assert code == want
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert all(text in err for text in data)  # the phrases the message names
        return
    assert err == ""
    report = json.loads(out, parse_constant=_refuse_constant)
    if argv[0] == "bounds" and "value" not in data:
        assert report["value"] == "inf"
    sections = _fields(report)
    for name, fields in data.items():
        if name in sections and not isinstance(sections[name], dict):
            assert sections[name] == fields, name  # a top-level number
            continue
        assert {k: sections[name][k] for k in fields} == fields, name


@pytest.mark.parametrize("case", list(_EXTREME_NORMS))
def test_norm_of_extreme_coefficients(case, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(_EXTREME_INPUTS[case][0]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    want = pytest.approx(_EXTREME_NORMS[case], rel=1e-12, abs=0.0)
    assert report["value"] == want
    if report["inputs"]["p"] == 2.0:
        assert report["gram_value"] == want


_PAST_1E154 = ["--seq", "explicit:1,1e306", "--measure", "atoms:1e-307:1e308", "--N", "2"]


@pytest.mark.parametrize("patch, failing", [
    (None, None),
    ("prop511_value", "kernel-double-integral-matches-poisson"),
    ("_schatten_norms", "synthesis-hs-below-profile-l2"),
], ids=["as-is", "kernel-off-by-1e-4", "hs-doubled"])
def test_hs_squares_past_the_float_range_are_decided(patch, failing, monkeypatch, capsys):
    # kernel**2, the Poisson value, hs**2 and sum D_n**2 are all past the float
    # range, yet both checks read PASS, and FAIL once either side is moved
    if patch is not None:
        real = getattr(hilbert, patch)
        scale = {"prop511_value": 1.0001, "_schatten_norms": 2.0}[patch]
        moved = (lambda *a: real(*a) * scale) if patch == "prop511_value" else (
            lambda *a: {r: v * scale for r, v in real(*a).items()})
        monkeypatch.setattr(hilbert, patch, moved)
    code = run(["verify", "--suite", "hs", *_PAST_1E154])
    statuses = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    decided = ("kernel-double-integral-matches-poisson", "synthesis-hs-below-profile-l2")
    assert {n: statuses[n] for n in decided} == {n: "FAIL" if n == failing else "PASS"
                                                 for n in decided}
    assert code == (0 if failing is None else 1)


def test_trace_past_the_float_range_is_decided(monkeypatch, capsys):
    # hs**2 and the Gram trace are both inf as floats (the table row above reads
    # PASS on their logs); moving hs by 1e-9 relative moves hs**2 by 2e-9
    real = hilbert._schatten_norms
    monkeypatch.setattr(hilbert, "_schatten_norms",
                        lambda s: {r: v * (1.0 + 1e-9) for r, v in real(s).items()})
    code = run(["verify", "--suite", "diagonal-domination", *_PAST_1E154])
    statuses = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert statuses["hilbert-schmidt-equals-trace"] == "FAIL" and code == 1


@pytest.mark.parametrize("lhs, rhs, relation, rel_tol, want", [
    (0.0, 0.0, "=", 0.0, "PASS"),
    (math.log1p(0.5e-9), 0.0, "<=", 1e-9, "PASS"),
    (math.log1p(2e-9), 0.0, "<=", 1e-9, "FAIL"),
    (-math.log1p(2e-9), 0.0, "=", 1e-9, "FAIL"),
    (-700.0, -700.0 - math.log1p(2e-9), "<=", 1e-9, "FAIL"),
    (math.inf, math.inf, "<=", 0.0, "EVIDENCE"),
    (math.inf, math.inf, "=", 0.0, "EVIDENCE"),
    (1.0, math.inf, "<=", 0.0, "EVIDENCE"),
    (math.nan, 0.0, "=", 0.0, "EVIDENCE"),
    (-math.inf, math.inf, "<=", 0.0, "PASS"),
    (-math.inf, -math.inf, "=", 0.0, "PASS"),
    (-math.inf, 0.0, "=", 0.0, "FAIL"),
    (0.0, -math.inf, "<=", 0.0, "FAIL"),
    ([0.0, math.inf], [1.0, math.inf], "<=", 0.0, "EVIDENCE"),
    ([2.0, math.inf], [1.0, math.inf], "<=", 0.0, "FAIL"),
    ([0.0, 1.0], 1.0, "<=", 0.0, "PASS"),
], ids=["equal", "within", "past", "below-past", "small-past", "inf-inf", "inf-eq-inf",
        "x-inf", "nan", "zero-lhs", "two-zeros", "zero-eq-x", "x-le-zero", "one-undecided",
        "undecided-and-failing", "broadcast"])
def test_decide_rule(lhs, rhs, relation, rel_tol, want):
    # relative on logs; a side with no finite log decides nothing unless a pair fails
    status, note = cli._decide(lhs, rhs, relation, rel_tol)
    assert status == want
    assert note == ({"note": "value beyond float range at this scale"} if want == "EVIDENCE"
                    else {})


@pytest.mark.parametrize("lhs, rhs, want", [
    (1.0, 1.0, "PASS"),
    (math.nextafter(1.0, math.inf), 1.0, "FAIL"),
    (1e300, math.nextafter(1e300, 0.0), "FAIL"),
    ([-0.5, 1.0], [0.0, math.nextafter(1.0, math.inf)], "PASS"),
    ([0.0, math.inf], [1.0, math.inf], "EVIDENCE"),
    ([math.nextafter(1.0, math.inf), math.inf], [1.0, math.inf], "FAIL"),
    (math.nan, 1.0, "EVIDENCE"),
], ids=["equal", "one-ulp-past", "one-ulp-past-large", "below", "one-undecided",
        "undecided-and-failing", "nan"])
def test_decide_le_resolves_one_ulp(lhs, rhs, want):
    # with no tolerance, the logs of two floats one ulp apart may be one float
    assert math.log(math.nextafter(1e300, 0.0)) == math.log(1e300)
    status, note = cli._decide_le(lhs, rhs)
    assert status == want
    assert note == ({"note": "value beyond float range at this scale"} if want == "EVIDENCE"
                    else {})


def _synthesis_scaled(factor):
    """A patch of hilbert.t_mu_spectrum: its singular values and Schatten norms
    times factor(spectrum, seq, mu)."""
    def patch(real):
        def scaled(seq, mu, n):
            spec = real(seq, mu, n)
            f = factor(spec, seq, mu)
            return dataclasses.replace(spec, schatten={r: f * v for r, v in spec.schatten.items()},
                                       singular_values=tuple(f * s for s in spec.singular_values))
        return scaled
    return patch


def _profile2(seq, mu, n=None):
    """The D_n(2) values of the first n exponents (all by default)."""
    weight = dnp_mod.WeightScheme("inverse_lambda", 2.0)
    return dnp_mod.compute_dn(seq, mu, weight, n_count=n).values


# sigma_1 3e-9 relative above D*_0 = sup D_n(2), past the slack 1e-9 sigma_1
_SIGMA1_PAST_SUP_PROFILE = _synthesis_scaled(
    lambda spec, seq, mu: max(_profile2(seq, mu, spec.n)) * (1.0 + 3e-9) / spec.sigma_max)


def _schatten_bounds_below_spectrum(real):
    """A patch of dnp.operator_bounds: each Schatten bound 3e-9 relative below
    the synthesis spectrum's norm, past the check's 1e-9."""
    def moved(profile, mu, seq):
        spec = hilbert.t_mu_spectrum(seq, mu, len(profile.values))
        return dataclasses.replace(real(profile, mu, seq), schatten={
            r: v / (1.0 + 3e-9) for r, v in spec.schatten.items()})
    return moved


def _returning(move):
    """A patch: the library function with move applied to its result."""
    return lambda real: lambda *a, **k: move(real(*a, **k))


_NORMS_TIMES_1000 = (lpnorm, "log_lp_norms", _returning(lambda logs: logs + math.log(1000.0)))


def _last_reported_mass_scaled(inst):
    """A construction instance with the mass of its last reported atom times 1.01."""
    last = len(inst.n_range) - 1
    moved = [dataclasses.replace(at, mass=at.mass * 1.01) if i == last else at
             for i, at in enumerate(inst.mu.atoms)]
    return dataclasses.replace(inst, mu=measures_mod.AtomicMeasure(tuple(moved)))


_LAST_MASS_TIMES_1_01 = [(examples_mod, "build_example", _returning(_last_reported_mass_scaled))]


def _bound_below_the_largest_block_ratio(real):
    """A patch of bounds.jlambda_upper: the bound 0.99 times the largest block ratio
    of SMALL's sequence at p = 2, found with the real bound in place."""
    top = max(cli.suite_blocksum(cli.parse_sequence(SMALL["seq"]), 2.0)[0]["data"]["ratios"])
    return lambda p, r: dataclasses.replace(real(p, r), upper_bound=0.99 * top)


# One way to FAIL for every check that can read PASS or FAIL, by name with
# each =value folded to =*: suite, option values for _small, and patches
# (module, attribute, patch(real function)).  A patch moves the one library
# value the check reads just past the check's tolerance, or makes the input a
# counterexample; every check of that name must then read FAIL, and exit 1.
_FAIL_ROUTES = {
    "canonical-vectors-normalized": ("basis", {}, [(lpnorm, "gm_ratio_sample", _returning(
        lambda r: dataclasses.replace(r, canonical=(1.0, 1.0 + 3e-9))))]),
    # the hypothesis met, the frame bracket of geometric:1,2,8 is [0.008, 2.4]
    "frame-within-eps": ("isometry-threshold", {}, [(bounds_mod, "r_epsilon",
                                                     lambda real: lambda *a: 1.0)]),
    # the checks without a tolerance: one ulp past the bound
    "sampled-ratios-within-eps": ("isometry-threshold", {"p": "3"}, [
        (bounds_mod, "r_epsilon", lambda real: lambda *a: 1.0),
        (lpnorm, "gm_ratio_sample", _returning(
            lambda r: dataclasses.replace(r, max_ratio=math.nextafter(1.5, math.inf))))]),
    "crossterm-p=*-alpha=*-r=*": ("crossterm-bound", {}, [(bounds_mod, "lemma31_bound", _returning(
        lambda res: res._replace(lhs=math.nextafter(res.rhs, math.inf))))]),
    "envelope-positive-finite-alpha=*": ("envelope", {}, [(bounds_mod, "envelope_check", _returning(
        lambda br: br._replace(log_ratio_max=math.inf)))]),
    "singular-values-below-rearranged-profile": ("diagonal-domination", {}, [
        (hilbert, "t_mu_spectrum", _SIGMA1_PAST_SUP_PROFILE)]),
    # hs**2 moved by 2e-10 relative from the trace
    "hilbert-schmidt-equals-trace": ("diagonal-domination", {}, [
        (hilbert, "_schatten_norms", _returning(lambda norms: {r: v * (1.0 + 1e-10)
                                                               for r, v in norms.items()}))]),
    "schatten-bound-r=*": ("diagonal-domination", {}, [
        (dnp_mod, "operator_bounds", _schatten_bounds_below_spectrum)]),
    # every norm 1000 times its value: a row's right side is no single library value
    "random-vector-domination": ("diagonal-domination", {}, [_NORMS_TIMES_1000]),
    # norm_s = 1e300 from the atom at 1e-300, and the window sup forced above the bound
    "sublinear-vs-monomial-test": ("carleson", {"measure": "atoms:1e-300:1,0.5:1"}, [
        (measures_mod, "windowed_sublinear_sup", lambda real: lambda *a: 1e300)]),
    "synthesis-norm-below-sup-profile": ("carleson", {}, [
        (hilbert, "t_mu_spectrum", _SIGMA1_PAST_SUP_PROFILE)]),
    # kernel**2 moved by 2e-9 relative from the Poisson integral
    "kernel-double-integral-matches-poisson": ("hs", {}, [
        (hilbert, "prop511_value", _returning(lambda v: v * (1.0 + 1e-9)))]),
    # hs**2 3e-9 relative above sum_n D_n(2)**2
    "synthesis-hs-below-profile-l2": ("hs", {}, [
        (hilbert, "t_mu_spectrum", _synthesis_scaled(lambda spec, seq, mu: math.sqrt(
            math.fsum(d * d for d in _profile2(seq, mu)) * (1.0 + 3e-9)) / spec.schatten[2.0]))]),
    "block-ratios-below-jlambda": ("blocksum-probe", {}, [
        (bounds_mod, "jlambda_upper", _bound_below_the_largest_block_ratio)]),
    # one n * x_n**lam_n, the last, just past 1: 2e-9 relative
    "atom-power-approaches-1-over-n": ("ex-a", {}, [
        (examples_mod, "atom_power_products", _returning(lambda v: (*v[:-1], 1.0 + 2e-9)))]),
    # the last reported atom's mass times 1.01, against the closed-form bracket
    "monomial-test-at-p-grows-like-log": ("ex-a", {}, _LAST_MASS_TIMES_1_01),
    "monomial-test-decays-at-q=*": ("ex-a", {}, _LAST_MASS_TIMES_1_01),
    "monomial-test-grows-at-q=*": ("ex-b", {}, _LAST_MASS_TIMES_1_01),
}


def _folded(name: str) -> str:
    return re.sub(r"=[^-]+", "=*", name)


def test_every_decided_check_can_fail(monkeypatch, capsys):
    # a check that cannot reach FAIL reads exactly like one that holds
    decided = set()
    for suite in SUITE_IDS:
        code, report = _verify(capsys, suite)
        assert code == 0, suite
        decided |= {_folded(c["name"]) for c in report["checks"] if c["status"] in ("PASS", "FAIL")}
    assert decided <= set(_FAIL_ROUTES), decided - set(_FAIL_ROUTES)
    for name, (suite, values, patches) in _FAIL_ROUTES.items():
        with monkeypatch.context() as m:
            for module, attribute, patch in patches:
                m.setattr(module, attribute, patch(getattr(module, attribute)))
            code, report = _verify(capsys, suite, **values)
        statuses = [c["status"] for c in report["checks"] if _folded(c["name"]) == name]
        assert statuses and set(statuses) == {"FAIL"} and code == 1, (name, statuses)


_SCALE_INFLATIONS = {
    "spectrum": ((hilbert, "t_mu_spectrum", _synthesis_scaled(lambda *a: 1000.0)),
                 ["singular-values-below-rearranged-profile", "schatten-bound-r=1",
                  "schatten-bound-r=2", "schatten-bound-r=4"]),
    "norms": (_NORMS_TIMES_1000, ["random-vector-domination"]),
}


@pytest.mark.parametrize("mass", [1.0, 1e-20, 1e-30])
@pytest.mark.parametrize("inflated", [None, *_SCALE_INFLATIONS])
def test_inflated_sides_fail_at_every_mass_scale(inflated, mass, monkeypatch, capsys):
    # a side 1000 times too large fails at every scale of the masses; an
    # absolute tolerance of 1e-9 let it PASS on masses of 1e-30
    failing = []
    if inflated is not None:
        (module, attribute, patch), failing = _SCALE_INFLATIONS[inflated]
        monkeypatch.setattr(module, attribute, patch(getattr(module, attribute)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["verify", "--suite", "diagonal-domination", "--seq", "geometric:1,2,8",
                    "--N", "8", "--measure", f"atoms:0.01:{mass!r},0.001:{mass!r},0.0001:{mass!r}"])
    statuses = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {n: statuses[n] for n in failing} == {n: "FAIL" for n in failing}
    assert code == (1 if failing else 0)
    if inflated is None:
        assert set(statuses.values()) == {"PASS"}


def _scaled_small_atoms(k: int) -> str:
    """The atoms of SMALL_ATOMS with every mass times 2**k."""
    return "atoms:" + ",".join(f"{d}:{float(m) * 2.0 ** k!r}" for d, m in
                               (chunk.split(":") for chunk in SMALL_ATOMS[6:].split(",")))


def _scaled_run(k: int, suite: str, capsys) -> tuple[int, dict]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["verify", "--suite", suite, *_small([suite], measure=_scaled_small_atoms(k))])
    return code, _fields(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("k", [-1000, 0, 1000, 1016, 1020])
def test_scaled_masses_keep_the_hs_and_domination_verdicts(k, capsys):
    # every check of both suites is invariant under scaling the measure, and
    # so is each hs-three-way ratio; from k = 1016 on, Poisson values, kernel
    # squares and sums of squared D_n pass the float range
    for suite in ("hs", "diagonal-domination"):
        (code, fields), (_, unscaled) = _scaled_run(k, suite, capsys), _scaled_run(0, suite, capsys)
        assert code == 0, suite
        assert {n: f["status"] for n, f in fields.items()} == \
            {n: f["status"] for n, f in unscaled.items()}, suite
        if suite == "hs":
            assert fields["hs-three-way"]["ratios"] == pytest.approx(
                unscaled["hs-three-way"]["ratios"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("measure, seen, want", [
    ("atoms:0.001:1,0.5:1", None, "PASS"),
    ("atoms:1e-300:1,0.5:1", None, "EVIDENCE"),
    ("atoms:1e-300:1,0.5:1", 1e300, "FAIL"),
], ids=["within-the-bound", "attained-outside-the-window", "window-sup-above-the-bound"])
def test_sublinear_check_fails_only_on_the_window(measure, seen, want, monkeypatch, capsys):
    # FAIL needs the sup over the window's eps above the bound (forced here)
    if seen is not None:
        monkeypatch.setattr(measures_mod, "windowed_sublinear_sup", lambda *a: seen)
    code = run(["verify", "--suite", "carleson", "--seq", "geometric:1,2,16",
                "--measure", measure])
    check = _fields(json.loads(capsys.readouterr().out))["sublinear-vs-monomial-test"]
    assert check["status"] == want and code == (1 if want == "FAIL" else 0)
    assert check["window"] == [2.0 ** -16, 0.5]
    assert ("note" in check) == (want == "EVIDENCE")
    if want == "EVIDENCE":
        assert "[1.52588e-05, 0.5]" in check["note"]


@pytest.mark.parametrize("suite, check_name, p", [
    ("carleson", "monomial-test-constant", 2.0), ("compact", "monomial-test-decay", 1.0)])
def test_last_keeps_its_log_where_it_underflows(suite, check_name, p, capsys):
    # lam (1 - 1e-12)**(p lam) at lam = 2**63 is exp(-9.2e6 p): 0.0 as a float
    code = run(["verify", "--suite", suite, "--seq", "geometric:1,2,64",
                "--measure", "atoms:1e-12:1", "--N", "4"])
    data = _fields(json.loads(capsys.readouterr().out))[check_name]
    lam = 2.0 ** 63
    assert code == 0 and data["last"] == 0.0
    assert data["log_last"] == pytest.approx(math.log(lam) + p * lam * math.log1p(-1e-12),
                                             rel=1e-14)


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


def _isometry_sample(capsys, *extra):
    code = run(["verify", "--suite", "isometry-threshold", "--p", "3",
                "--seq", "geometric:1,4,8", *extra])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    data = {c["name"]: c["data"] for c in report["checks"]}["sampled-ratios-within-eps"]
    return out, (data["min_ratio"], data["max_ratio"])


def test_isometry_sample_reads_seed(capsys):
    out0, bracket0 = _isometry_sample(capsys)
    out5, bracket5 = _isometry_sample(capsys, "--seed", "5")
    assert bracket0 != bracket5
    assert _isometry_sample(capsys, "--seed", "5")[0] == out5
    assert _isometry_sample(capsys, "--seed", "0")[0] == out0


def test_basis_samples_once(monkeypatch, capsys):
    # one ratio sample, one node set: the canonical bracket comes with it
    calls = {"gm_ratio_sample": 0, "node_log_powers": 0}
    for name in calls:
        real = getattr(lpnorm, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lpnorm, name, counting)
    code, report = _verify(capsys, "basis", "--p", "3")
    assert code == 0
    assert calls == {"gm_ratio_sample": 1, "node_log_powers": 1}
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["canonical-vectors-normalized"] == "PASS"


@pytest.mark.parametrize("count", [3, 4, 5, 6])
@pytest.mark.parametrize("suite", ["ex-a", "ex-b"])
def test_short_example_instances_are_decided(suite, count, capsys):
    # no window to fill: every index is decided against its bracket, so a short
    # instance reads PASS, not UNMET; only B's D_n(p) reading is EVIDENCE
    code = run(["verify", "--suite", suite, "--count", str(count)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses.pop("diagonal-domination-decays-at-p", "EVIDENCE") == "EVIDENCE"
    assert set(statuses.values()) == {"PASS"} and len(statuses) == (3 if suite == "ex-a" else 2)
    assert all(c["data"]["n"] == count + 1 for c in report["checks"]
               if c["name"] != "diagonal-domination-decays-at-p")
    if suite == "ex-b":
        assert report["checks"][-1]["data"]["note"] == "no index has a safe tail"


@pytest.mark.parametrize("suite, name", [("ex-a", "monomial-test-at-p-grows-like-log"),
                                         ("ex-b", "monomial-test-grows-at-q=1")])
def test_growth_claims_decide_their_floor(suite, name, monkeypatch, capsys):
    # the growth side, M_N against the atom at N alone, FAILs on a floor raised by 10 %
    # at the last index, while the closed-form bracket of M_n still holds
    real = examples_mod.atom_power_floors
    monkeypatch.setattr(examples_mod, "atom_power_floors",
                        lambda inst: (*real(inst)[:-1], 1.1 * real(inst)[-1]))
    code, report = _verify(capsys, suite)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert code == 1 and statuses[name] == "FAIL"
    assert {v for k, v in statuses.items() if k.startswith("monomial-test-decays")} <= {"PASS"}


def test_ex_b_reads_d_n_at_its_last_safe_index(capsys):
    code, report = _verify(capsys, "ex-b", "--count", "30")
    data = report["checks"][-1]["data"]
    inst = examples_mod.build_example("B", 2.0, 30)
    profile = dnp_mod.compute_dn(inst.seq, inst.mu, dnp_mod.WeightScheme("inverse_lambda", 2.0),
                                 n_count=len(inst.n_range))
    safe = [i for i, t in enumerate(profile.truncation) if t.safe]
    assert code == 0 and safe[-1] < len(inst.n_range) - 1  # the last indices are not safe
    assert data["n"] == inst.n_range[safe[-1]]
    assert data["scaled"] == pytest.approx(
        profile.values[safe[-1]] * math.log(data["n"]) ** 0.5, rel=1e-15)


@pytest.mark.parametrize("label, p", [("A", 1.0), ("A", 2.0), ("A", 3.0),
                                      ("B", 1.5), ("B", 2.0), ("B", 3.0)])
def test_example_claims_pass_at_every_count(label, p, capsys):
    for count in range(3, 42):
        code = run(["example", "--label", label, "--p", str(p), "--count", str(count)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, count
        assert {c["status"] for c in out["checks"]} <= {"PASS", "EVIDENCE"}, count


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
    for suite in DN_SUITES + ("ex-b",):
        seen.clear()
        code, _ = _verify(capsys, suite, "--tol", "1e-6")
        assert code == 0
        assert seen and all(t == 1e-6 for t in seen), (suite, seen)


def test_report_reads_each_profile_once(monkeypatch, capsys, tmp_path):
    real = dnp_mod.compute_dn
    keys = []

    def recording(seq, mu, weight, n_count=None, tol=1e-12):
        keys.append((mu, weight, n_count, tol))
        return real(seq, mu, weight, n_count=n_count, tol=tol)

    monkeypatch.setattr(dnp_mod, "compute_dn", recording)
    code = run(["report", *_small(DN_SUITES), "--suites", ",".join(DN_SUITES),
                "--out", str(tmp_path)])
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
    code = run(["report", *_small(DN_SUITES), "--suites", ",".join(DN_SUITES),
                "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    # frame_bounds (basis), the embedding spectrum (carleson and hs) and
    # essential_norm_estimate (compact: one factor for all ten cuts)
    assert len(calls["cholesky_lower"]) == 3
    # diagonal-domination, carleson and hs read one synthesis spectrum, carleson
    # and hs one embedding spectrum
    for name in ("embedding_spectrum", "t_mu_spectrum"):
        assert len(calls[name]) == len(set(calls[name])) == 1, name


def test_run_builds_the_parser_once(monkeypatch, capsys):
    # counted as the spectra are counted above
    builds = []
    real = cli.build_parser

    def recording():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", recording)
    cli._parser.cache_clear()
    assert run(["bounds", "--formula", "r_epsilon"]) == 0
    assert run(["bounds", "--formula", "jlambda", "--r", "4"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


def test_a_usage_error_leaves_the_next_parse_unaffected(capsys):
    # the refused call sees --measure; the next one reads the default measure
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--operator", "frame", "--measure", SMALL_ATOMS])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["spectrum", "--operator", "synthesis", "--seq", "geometric:1,2,8", "--N", "8"]
    code = run(argv)
    shared = capsys.readouterr().out
    ns = build_parser().parse_args(argv)
    assert ns.measure == "lebesgue"
    assert (code, shared) == (ns.fn(ns), capsys.readouterr().out)


def _domination_excess_by_vector(seq, measure, profile, seed):
    """random-vector-domination's worst excess, one drawn row and one summed
    generator per vector: the oracle for the suite's array form."""
    worst = -math.inf
    for b in uniform_draws(seed, 100, len(profile.values)):
        lhs = lp_norm(seq, b, measure, 2.0)
        rhs = math.sqrt(sum(
            abs(bv) ** 2 * math.exp(-profile.weight.log_inv_weight(seq[i])) * dv ** 2
            for i, (bv, dv) in enumerate(zip(b, profile.values))))
        worst = max(worst, lhs - rhs)
    return worst


_DOMINATION_MEASURES = {
    "atoms": SMALL_ATOMS,
    "density": {"kind": "density", "name": "oneminus_power", "params": {"alpha": 0.5}},
    "lebesgue": "lebesgue",
}


def _domination_run(measure, seed):
    seq = cli.parse_sequence(SMALL["seq"])
    spec = _DOMINATION_MEASURES[measure]
    mu = cli.measure_from_obj(spec) if isinstance(spec, dict) else cli.parse_measure(spec)
    store = cli._Store(seq)
    checks = cli.suite_diagonal(seq, mu, int(SMALL["N"]), seed, 1e-12, store)
    return seq, mu, store, checks[-1]


@pytest.mark.parametrize("measure", list(_DOMINATION_MEASURES))
def test_domination_excess_matches_the_per_vector_sums(measure):
    seq, mu, store, got = _domination_run(measure, 3)
    profile = store.dn(mu, dnp_mod.WeightScheme("inverse_lambda", 2.0), int(SMALL["N"]), 1e-12)
    assert got["name"] == "random-vector-domination" and got["status"] == "PASS"
    want = _domination_excess_by_vector(seq, mu, profile, 3)
    assert got["data"]["worst_excess"] == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("seed", [0, 3, 51])
def test_domination_vectors_are_the_per_row_draws(seed, monkeypatch):
    # the suite's (100, n) draw gives the rows drawn one value at a time, bit for bit
    norms = []
    real = lpnorm.log_lp_norms

    def recording(seq, coeffs, mu, p):
        norms.extend(tuple(row) for row in coeffs)
        return real(seq, coeffs, mu, p)

    monkeypatch.setattr(lpnorm, "log_lp_norms", recording)
    _domination_run("atoms", seed)
    assert norms == [tuple(b) for b in uniform_draws(seed, 100, int(SMALL["N"]))]


def _report(tmp_path, name, *extra):
    out = tmp_path / name
    code = run(["report", *_small(SUITE_IDS), "--suites", ",".join(SUITE_IDS), "--out", str(out),
                *extra])
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


def test_p3_report_output_is_byte_identical(tmp_path, capsys):
    # the node route of the ratio sample, end to end, as the benchmark compares batteries
    outs = []
    for name in ("first", "second"):
        outs.append(tmp_path / name)
        code = run(["report", "--seq", "geometric:1,2,12", "--N", "8", "--p", "3", "--q", "4",
                    "--suites", "basis,carleson", "--out", str(outs[-1])])
        capsys.readouterr()
        assert code == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) == [
        "index.json", "verify-basis.json", "verify-carleson.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("measure", [SMALL_ATOMS, "lebesgue"])
def test_report_suite_files_match_verify(measure, tmp_path, capsys):
    code = run(["report", *_small(SUITE_IDS, measure=measure), "--suites", ",".join(SUITE_IDS),
                "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    for suite in SUITE_IDS:
        from_report = json.loads((tmp_path / f"verify-{suite}.json").read_text())
        _, alone = _verify(capsys, suite, measure=measure)
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


def _density_sweep():
    """(id, description, exit code) over a fixed grid: both density names with and
    without alpha, scale 1e-300, 1 or 1e300 in turn, on the intervals of the
    closed-form pins and on a nested restrict; alpha on uniform is refused."""
    params = [("uniform", {}), ("uniform", {"alpha": 0.5}), ("oneminus_power", {}),
              *(("oneminus_power", {"alpha": a}) for a in (-0.5, 0.0, 0.5, 1.5))]
    intervals = [None, (0.0, 1.0), (0.25, 1.0), (0.25, 0.75), (0.0, 1e-10), (0.0, 1e-20),
                 (1.0 - 2.0 ** -50, 1.0), "nested"]
    cases, scales = [], (1e-300, 1.0, 1e300)
    for k, ((name, extra), interval) in enumerate(itertools.product(params, intervals)):
        scale = scales[k % 3]
        description = {"kind": "density", "name": name, "params": {"scale": scale, **extra}}
        if interval == "nested":
            description = {"kind": "restrict", "a": 0.5, "b": 1.0, "base": {
                "kind": "restrict", "a": 0.25, "b": 0.75, "base": description}}
        elif interval is not None:
            description = {"kind": "restrict", "a": interval[0], "b": interval[1],
                           "base": description}
        where = {None: "plain", "nested": "nested"}.get(interval) or "[{!r},{!r})".format(*interval)
        cases.append((f"{name}-alpha={extra.get('alpha')}-scale={scale:g}-{where}", description,
                      2 if name == "uniform" and extra else 0))
    return cases


_DENSITY_SWEEP = _density_sweep()


@pytest.mark.parametrize("description, want", [(d, w) for _, d, w in _DENSITY_SWEEP],
                         ids=[i for i, _, _ in _DENSITY_SWEEP])
def test_density_descriptions_run_every_command(description, want, tmp_path, capsys):
    # the head restriction [0, 1e-20) ended in a divide-by-zero warning on every
    # command, and the tail 2**-50 from t = 1 read FAIL on hs
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(description))
    for command in (["moments"], ["norm"], ["dnp"], *(["verify", "--suite", s]
                                                     for s in ("compact", "hs", "carleson"))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*command, "--measure", f"file:{path}"])
        out, err = capsys.readouterr()
        assert code == want, (command, err)
        if code == 2:
            assert out == "" and len([l for l in err.splitlines() if "error:" in l]) == 1
            continue
        numbers = []  # a non-finite float is one of _sanitize's strings, never a number
        json.loads(out, parse_float=lambda v: numbers.append(float(v)) or float(v),
                   parse_constant=lambda v: pytest.fail(f"{command}: {v} in the JSON"))
        assert all(math.isfinite(v) for v in numbers), command


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


@pytest.mark.parametrize("extra, message", [
    (["--p", "0.5"], "p must be >= 1, got 0.5"),
    (["--seq", "explicit:1,1e308", "--measure", "atoms:0.5:1"], "node sharpness must be finite"),
    (["--p", "1e308"], "node sharpness must be finite"),
], ids=["p-below-1", "overflow-atoms", "overflow-lebesgue"])
def test_norm_refusals_exit_2(extra, message, capsys):
    code = run(["norm", "--coeffs", "1,1", "--seq", "explicit:1,2", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}")


def test_norm_past_the_quadrature_limit_takes_the_nodes_once(monkeypatch, capsys):
    # p * lam = 7.04e13 just past 2**46: the float panels would pass u = 2**-53,
    # so the Lebesgue row takes one node set, as on the uniform density
    calls = []
    real = lpnorm.node_log_powers
    monkeypatch.setattr(lpnorm, "node_log_powers", lambda *a: calls.append(1) or real(*a))
    code = run(["norm", "--coeffs", "1,1", "--seq", "explicit:1,3.52e13"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and len(calls) == 1
    assert report["value"] == pytest.approx(report["gram_value"], rel=1e-14)


def test_domination_takes_one_node_set_and_no_polynomial(monkeypatch, capsys):
    calls = []
    real_nodes = lpnorm.node_log_powers
    monkeypatch.setattr(lpnorm, "node_log_powers", lambda *a: calls.append(1) or real_nodes(*a))
    code, report = _verify(capsys, "diagonal-domination")
    assert code == 0 and report["inputs"]["measure"] == SMALL_ATOMS
    assert len(calls) == 1


def test_compact_keeps_an_atom_next_to_one(capsys):
    # x = 1 - 1e-20 rounds to 1.0; every cut [a, 1) still holds that atom
    code = run(["verify", "--suite", "compact", "--measure", "atoms:1e-20:1,0.25:1",
                "--seq", "geometric:1,2,8", "--N", "8"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    trend = next(c["data"] for c in checks if c["name"] == "restriction-spectrum-trend")
    assert code == 0
    assert trend["sigma1"][-1] > 0.0 and 0.0 not in trend["sigma1"]


def test_atom_log_delta_past_the_float_range_is_refused(tmp_path, capsys):
    # exp(800) is no float: the delta reads inf and the atom is refused
    spec = tmp_path / "atoms.json"
    spec.write_text(json.dumps({"kind": "atoms", "atoms": [{"log_delta": 800.0, "mass": 1.0}]}))
    code = run(["moments", "--seq", "explicit:1,2", "--measure", f"file:{spec}"])
    assert code == 2
    assert capsys.readouterr().err == "error: atom delta must be in (0,1], got inf\n"


# each spec string and the JSON description it is shorthand for
_SHORTHANDS = {
    "geometric": ("geometric:1,2,16",
                  {"kind": "geometric", "lambda0": 1, "ratio": 2, "count": 16}),
    "recursive": ("recursive:1,2,1.5,8", {"kind": "recursive_power", "lambda_start": 1,
                                          "start_index": 2, "gamma": 1.5, "count": 8}),
    "explicit": ("explicit:0.5,1,3", {"kind": "explicit", "values": [0.5, 1, 3]}),
    "lebesgue": ("lebesgue", {"kind": "lebesgue"}),
    "atoms-pairs": ("atoms:0.5:1,0.25:2", {"kind": "atoms", "atoms": [[0.5, 1], [0.25, 2]]}),
    "atoms-delta": ("atoms:0.5:1,0.25:2", {"kind": "atoms", "atoms": [
        {"delta": 0.5, "mass": 1}, {"delta": 0.25, "mass": 2}]}),
    "atoms-log-delta": ("atoms:0.5:1,0.25:2", {"kind": "atoms", "atoms": [
        {"log_delta": math.log(0.5), "mass": 1}, {"log_delta": math.log(0.25), "mass": 2}]}),
}


@pytest.mark.parametrize("case", list(_SHORTHANDS))
def test_spec_and_description_build_equal_objects(case, tmp_path):
    spec, description = _SHORTHANDS[case]
    parse, build = (cli.parse_measure, cli.measure_from_obj) \
        if spec.startswith(("lebesgue", "atoms")) else (cli.parse_sequence, cli.sequence_from_obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(description))
    assert parse(spec) == build(description) == parse(f"file:{path}")


_LEB = {"kind": "lebesgue"}
_POWER = {"kind": "density", "name": "oneminus_power", "params": {"scale": 2.0, "alpha": -0.5}}


# each JSON kind of a measure and the library call that builds the same object
@pytest.mark.parametrize("description, want", [
    (_LEB, lambda m: m.Lebesgue()),
    ({"kind": "atoms", "atoms": [[0.5, 1], {"delta": 0.25, "mass": 2}]},
     lambda m: m.atoms([(0.5, 1.0), (0.25, 2.0)])),
    ({"kind": "density", "name": "uniform"}, lambda m: m.DensityMeasure()),
    (_POWER, lambda m: m.DensityMeasure(scale=2.0, alpha=-0.5)),
    ({"kind": "density", "name": "oneminus_power", "params": {"alpha": 0}},
     lambda m: m.DensityMeasure()),
    ({"kind": "restrict", "base": _LEB, "a": 0.25, "b": 0.75},
     lambda m: m.restrict(m.Lebesgue(), 0.25, 0.75)),
    ({"kind": "restrict", "base": _POWER, "a": 0.25, "b": 1},
     lambda m: m.DensityMeasure(scale=2.0, alpha=-0.5, a=0.25, b=1.0)),
    ({"kind": "restrict", "a": 0.5, "b": 1,
      "base": {"kind": "restrict", "base": _LEB, "a": 0.2, "b": 0.9}},
     lambda m: m.DensityMeasure(a=0.5, b=0.9)),
    ({"kind": "restrict", "a": 0.5, "b": 1,
      "base": {"kind": "restrict", "base": _LEB, "a": 0.2, "b": 0.4}},
     lambda m: m.AtomicMeasure(())),
], ids=["lebesgue", "atoms", "uniform", "power", "power-alpha=0", "restrict-lebesgue",
        "restrict-power",
        "restrict-restrict", "restrict-empty"])
def test_measure_description_builds_the_library_object(description, want):
    got, expected = cli.measure_from_obj(description), want(measures_mod)
    assert type(got) is type(expected) and got == expected


@pytest.mark.parametrize("seq", ["geometric:1,2,64", "explicit:1,1e308"])
def test_dnp_at_p2_reads_both_spellings_of_dt_alike(seq, tmp_path, capsys):
    # one closed-form series for every uniform density: the same bits, the same exit
    reports = []
    for measure in ("lebesgue", {"kind": "density", "name": "uniform"}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(_written(["dnp", "--seq", seq, "--measure", measure], tmp_path)) == 0
        report = json.loads(capsys.readouterr().out)
        del report["inputs"]["measure"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("p", ["2", "3"])
def test_norm_reads_both_spellings_of_dt_alike(p, tmp_path, capsys):
    # dt is one value, so both spellings take the same route, and at p = 2 both
    # print the exact Gram value: sqrt(1/30) for t - t**2
    reports = []
    for measure in ("lebesgue", {"kind": "density", "name": "uniform"}):
        argv = ["norm", "--coeffs", "1,-1", "--p", p, "--measure", measure]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(_written(argv, tmp_path)) == 0
        report = json.loads(capsys.readouterr().out)
        del report["inputs"]["measure"]
        reports.append(report)
    assert reports[0] == reports[1]
    if p == "2":
        assert reports[0]["gram_value"] == 0.18257418583505536
        assert reports[0]["value"] == pytest.approx(30 ** -0.5, rel=1e-15)
    else:
        assert "gram_value" not in reports[0]


def test_spec_parsers_build_through_the_description_builders():
    # one construction path: the spec parsers name no constructor of the library
    for parse in (cli.parse_sequence, cli.parse_measure):
        tree = ast.parse(textwrap.dedent(inspect.getsource(parse)))
        modules = {n.func.value.id for n in ast.walk(tree) if isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute) and isinstance(n.func.value, ast.Name)}
        assert not modules & {"sequences_mod", "measures_mod"}, parse.__name__


# Malformed inputs: argv, the contents of a file: spelling of argv[2] (a JSON
# description, or the text of a coefficient file; None where there is none),
# and the one error line.  argv[2] "FILE" has only the file spelling; otherwise
# both spellings print the same line.  Each but the pairing row (a vacuous PASS)
# ended in a traceback or ran on a truncated or non-finite value.
_MALFORMED = {
    "geometric-count=4.7": (["moments", "--seq", "geometric:1,2,4.7"],
                            {"kind": "geometric", "lambda0": 1, "ratio": 2, "count": 4.7},
                            "error: sequence field 'count' must be an integer, got 4.7"),
    "geometric-count=4.5": (["moments", "--seq", "FILE"],
                            {"kind": "geometric", "lambda0": 1, "ratio": 2, "count": 4.5},
                            "error: sequence field 'count' must be an integer, got 4.5"),
    "geometric-count-past-the-float-range": (
        ["moments", "--seq", "FILE"], {"kind": "geometric", "lambda0": 1, "ratio": 2,
                                       "count": 10 ** 400},
        "error: sequence field 'count' must be an integer, got 1000"),
    "geometric-lambda0-string": (["moments", "--seq", "FILE"],
                                 {"kind": "geometric", "lambda0": "a", "ratio": 2, "count": 4},
                                 "error: sequence field 'lambda0' must be a finite number, "
                                 "got 'a'"),
    "explicit-values-number": (["moments", "--seq", "FILE"], {"kind": "explicit", "values": 5},
                               "error: sequence field 'values' must be a list of finite "
                               "numbers, got 5"),
    "explicit-values-bool": (["moments", "--seq", "FILE"],
                             {"kind": "explicit", "values": [1, True]},
                             "error: sequence field 'values' must be a list of finite numbers"),
    "recursive-start-index=2.5": (["moments", "--seq", "recursive:1,2.5,2,4"],
                                  {"kind": "recursive_power", "lambda_start": 1,
                                   "start_index": 2.5, "gamma": 2, "count": 4},
                                  "error: sequence field 'start_index' must be an integer, "
                                  "got 2.5"),
    "sequence-not-an-object": (["moments", "--seq", "FILE"], [1, 2],
                               "error: sequence description must be an object, got [1, 2]"),
    "density-no-name": (["moments", "--measure", "FILE"], {"kind": "density"},
                        "error: measure description missing field 'name'"),
    "density-unknown-param": (["moments", "--measure", "FILE"],
                              {"kind": "density", "name": "uniform", "params": {"bogus": 1}},
                              "error: unknown density param 'bogus'; have scale"),
    "density-uniform-alpha": (["moments", "--measure", "FILE"],
                              {"kind": "density", "name": "uniform", "params": {"alpha": 5}},
                              "error: unknown density param 'alpha'; have scale"),
    "density-unknown-name": (["moments", "--measure", "FILE"], {"kind": "density", "name": "nope"},
                             "error: unknown density name 'nope'; have uniform, oneminus_power"),
    "atom-one-number": (["moments", "--measure", "atoms:0.5"], {"kind": "atoms", "atoms": [[0.5]]},
                        "error: atom description must be an object, got [0.5]"),
    "atom-no-delta": (["moments", "--measure", "FILE"], {"kind": "atoms", "atoms": [{"mass": 1}]},
                      "error: atom description missing field 'delta'"),
    "atom-mass-nan": (["moments", "--measure", "atoms:0.5:nan"],
                      {"kind": "atoms", "atoms": [[0.5, math.nan]]},
                      "error: atom field 'mass' must be a finite number, got nan"),
    "restrict-no-interval": (["moments", "--measure", "FILE"],
                             {"kind": "restrict", "base": {"kind": "lebesgue"}},
                             "error: measure description missing field 'a'"),
    "restrict-nested-5000-deep": (["moments", "--measure", "FILE"],
                                  '{"kind": "restrict", "a": 0, "b": 1, "base": ' * 5000
                                  + '{"kind": "lebesgue"}' + "}" * 5000,
                                  "maximum recursion depth exceeded"),
    # a field its kind does not read was ignored: alpha outside params read as the
    # uniform density, and an atom with both delta and log_delta took log_delta
    "geometric-lamda0": (["moments", "--seq", "FILE"],
                         {"kind": "geometric", "lamda0": 2, "lambda0": 1, "ratio": 2,
                          "count": 4},
                         "error: unknown geometric sequence field 'lamda0'; it reads kind, "
                         "lambda0, ratio, count"),
    "density-alpha-outside-params": (["moments", "--measure", "FILE", "--seq", "explicit:1"],
                                     {"kind": "density", "name": "oneminus_power",
                                      "alpha": 0.5},
                                     "error: unknown density measure field 'alpha'; it reads "
                                     "kind, name, params"),
    "lebesgue-scale": (["moments", "--measure", "FILE"], {"kind": "lebesgue", "scale": 2},
                       "error: unknown lebesgue measure field 'scale'; it reads kind"),
    "restrict-alpha": (["moments", "--measure", "FILE"],
                       {"kind": "restrict", "base": {"kind": "lebesgue"}, "a": 0, "b": 0.5,
                        "alpha": 1},
                       "error: unknown restrict measure field 'alpha'; it reads kind, base, a, b"),
    "atom-delta-and-log_delta": (["moments", "--measure", "FILE"],
                                 {"kind": "atoms",
                                  "atoms": [{"delta": 0.5, "log_delta": -4, "mass": 1}]},
                                 "error: unknown atom field 'delta'; it reads log_delta, mass"),
    "coeffs-nan": (["norm", "--coeffs", "1,nan"], "1,nan",
                   "error: expected a finite number, got 'nan'"),
    # an empty entry was skipped: 1,,2 read as the coefficients 1, 2
    "coeffs-empty-entry": (["norm", "--coeffs", "1,,2", "--seq", "explicit:1,2,3"], "1,,2",
                           "error: empty entry in the list '1,,2'"),
    "seq-empty-entry": (["norm", "--seq", "explicit:1,,2"], None,
                        "error: empty entry in the list '1,,2'"),
    "q-empty-entry": (["verify", "--suite", "hs", "--q", "2,,4"], None,
                      "error: argument --q: empty entry in the list '2,,4'"),
    "moments-p=nan": (["moments", "--p", "nan"], None,
                      "error: argument --p: expected a finite number, got 'nan'"),
    "moments-p=inf": (["moments", "--p", "inf"], None,
                      "error: argument --p: expected a finite number, got 'inf'"),
    "dnp-tol=nan": (["dnp", "--tol", "nan"], None,
                    "error: argument --tol: expected a finite number, got 'nan'"),
    "pairing-p=nan": (["verify", "--suite", "pairing-dichotomy", "--p", "nan"], None,
                      "error: argument --p: expected a finite number, got 'nan'"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    argv, contents, message = _MALFORMED[case]
    spellings = [] if argv[2] == "FILE" else [argv]
    if contents is not None:
        path = tmp_path / "input"
        path.write_text(contents if isinstance(contents, str) else json.dumps(contents))
        spellings.append([*argv[:2], f"file:{path}", *argv[3:]])
    lines = set()
    for spelling in spellings:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = run(spelling)
            except SystemExit as exc:  # argparse refuses an option's value
                code = exc.code
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if "error:" in line]
        assert (code, out, len(errors)) == (2, "", 1), spelling
        assert message in errors[0] and "Traceback" not in err
        lines.add(errors[0])
    assert len(lines) == 1  # both spellings print the same line


@pytest.mark.parametrize("argv, name", [
    # against the atom at t = 0, lam_0 = 0 has moment 1 and every other lam moment 0:
    # a log_moment of None, an empty CSV cell
    (["moments", "--seq", "explicit:0,1,2", "--measure", "atoms:1:1"], "moments"),
    (["dnp", "--N", "6"], "dnp"),
    (["example", "--label", "B", "--p", "3", "--count", "8"], "example-B"),
], ids=["moments", "dnp", "example"])
def test_csv_table_is_the_json_rows(argv, name, tmp_path, capsys):
    run([*argv, "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    run([*argv, "--format", "csv", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert (tmp_path / f"{name}.csv").read_bytes().decode() == out
    header, *table = csv.reader(io.StringIO(out))
    # the JSON keys are sorted; the CSV columns keep the order of the rows' fields
    assert sorted(header) == list(rows[0]) and len(set(header)) == len(header)
    assert [dict(zip(header, cells)) for cells in table] == \
        [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]


def test_coeffs_file_reads_as_the_inline_coefficients(tmp_path, capsys):
    path = tmp_path / "coeffs.txt"
    path.write_text("1,-0.5,0.25\n")
    reports = []
    for coeffs in ("1,-0.5,0.25", f"file:{path}"):
        assert run(["norm", "--coeffs", coeffs]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    inline, filed = reports
    assert filed["inputs"]["coeffs"] == f"file:{path}"  # as given, beside the values read
    assert filed["inputs"]["coefficients"] == inline["inputs"]["coefficients"] == [1, -0.5, 0.25]
    assert filed["value"] == inline["value"]


def test_nan_side_reads_evidence(monkeypatch, capsys):
    # _log(nan) was -inf, which is <= any side: a NaN bound read PASS
    monkeypatch.setattr(bounds_mod, "lemma31_bound", _returning(
        lambda res: res._replace(rhs=math.nan))(bounds_mod.lemma31_bound))
    assert run(["verify", "--suite", "crossterm-bound"]) == 0
    checks = _fields(json.loads(capsys.readouterr().out))
    assert {c["status"] for c in checks.values()} == {"EVIDENCE"}
    for log_lhs, log_rhs in [(0.0, math.nan), (math.nan, 0.0), (-math.inf, math.nan),
                             (math.nan, -math.inf)]:
        assert cli._decide(log_lhs, log_rhs, "<=", 1e-12)[0] == "EVIDENCE"


def test_basis_past_the_old_cap_runs_on_the_nodes(capsys):
    # lam = 1e13 was refused by a cap on lam; gm_ratio_sample's nodes have none
    code, report = _verify(capsys, "basis", "--p", "3", "--seq", "explicit:1,1e13", "--N", "2")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["canonical-vectors-normalized"]["status"] == "PASS"
    data = checks["ratio-sample-bracket"]["data"]
    assert 0.5 <= data["min_ratio"] <= data["max_ratio"] <= 1.5


@pytest.mark.parametrize("p, seq", [("3", "geometric:1,1.61e7,16"), ("1.5", "geometric:1,2e7,16")])
def test_isometry_threshold_at_its_own_scale(p, seq, capsys):
    # a ratio of 1.5 r_eps(p, 0.5) puts lam_2 past 1e12 and lam_15 near 1e108
    start = time.perf_counter()
    code = run(["verify", "--suite", "isometry-threshold", "--p", p, "--seq", seq])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and elapsed < 1.0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["shifted-ratio-meets-threshold"]["status"] == "PASS"
    data = checks["sampled-ratios-within-eps"]["data"]
    assert 0.5 <= data["min_ratio"] <= data["max_ratio"] <= 1.5


@pytest.mark.parametrize("p", ["1", "1.5", "3"])
def test_norm_at_the_lebesgue_panel_edge(p, capsys):
    # p * lam from 2**46 on would pass the float panels' edge u = 2**-53: the
    # nodes take it, so both sides of the edge keep the closed form
    for s in (-1, 1):
        lam = 2.0 ** 46 / float(p) * (1.0 + s * 1e-12)
        code = run(["norm", "--coeffs", "1", "--p", p, "--seq", f"explicit:{lam!r}"])
        value = json.loads(capsys.readouterr().out)["value"]
        assert code == 0
        assert value == pytest.approx((float(p) * lam + 1.0) ** (-1.0 / float(p)), rel=1e-14)


def test_bounds_envelope_writes_the_logs_of_the_edges(capsys):
    # the alpha = 2 ratios lie below the smallest float, their logs do not
    code = run(["bounds", "--formula", "envelope", "--seq", "geometric:1e-300,2,16",
                "--alpha", "2"])
    assert code == 0
    value = json.loads(capsys.readouterr().out)["value"]
    with mpmath.workdps(30):
        lams = [mpmath.mpf(1e-300) * 2 ** k for k in range(16)]
        want = mpmath.log(mpmath.fsum(l ** 2 * mpmath.mpf(0.5) ** l for l in lams) / 4)
    assert value["ratio_min"] == value["ratio_max"] == 0.0
    assert value["log_ratio_min"] == pytest.approx(float(want), rel=1e-14)
    assert value["log_ratio_max"] == pytest.approx(float(want), rel=1e-14)


def test_moments_with_node_weights_below_the_float_range(tmp_path, capsys):
    # the nodes of lam = 1e300 reach u ~ 1e-300, where a float weight of u**0.5 du
    # underflows; the moment B(lam + 1, 1.5) and lam times it keep their logs
    spec = tmp_path / "density.json"
    spec.write_text(json.dumps({"kind": "density", "name": "oneminus_power",
                                "params": {"alpha": 0.5}}))
    lams = (1e100, 1e200, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["moments", "--seq", "explicit:1e100,1e200,1e300", "--p", "1",
                    "--measure", f"file:{spec}"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    rows = json.loads(out, parse_constant=_refuse_constant)["rows"]
    for row, lam in zip(rows, lams):
        log_moment = math.lgamma(1.5) - 1.5 * math.log(lam)
        assert row["log_moment"] == pytest.approx(log_moment, rel=1e-14)
        assert row["monomial_test"] == pytest.approx(
            math.exp(log_moment + math.log(lam)), rel=1e-12)
    assert rows[2]["moment_p_lambda"] == 0.0 and rows[2]["monomial_test"] > 0.0


def test_carleson_monomial_test_below_the_float_range(tmp_path, capsys):
    # lam times the moment of u**0.5 dt is Gamma(3/2) lam**-0.5, 8.9e-151 at
    # lam = 1e300, although the moment alone (8.9e-451) underflows
    spec = tmp_path / "density.json"
    spec.write_text(json.dumps({"kind": "density", "name": "oneminus_power",
                                "params": {"alpha": 0.5}}))
    code, report = _verify(capsys, "carleson", "--seq", "explicit:1e100,1e200,1e300",
                           "--measure", f"file:{spec}", "--p", "1")
    data = report["checks"][0]["data"]
    assert code == 0 and report["checks"][0]["name"] == "monomial-test-constant"
    assert data["last"] == pytest.approx(math.gamma(1.5) * 1e-150, rel=1e-12)
    assert data["sup"] == pytest.approx(math.gamma(1.5) * 1e-50, rel=1e-12)


def test_carleson_decides_a_prefix_ratio_past_the_float_range(capsys):
    # lam = 1e-300, 4.9e20: the ratio 4.9e320 overflows, its log (738.4) does not, so
    # the sublinear check is made, on the bound 3 p R sup M_n formed in logs
    seq = "recursive:1e-300,100,160,3"
    code = run(["classify", "--seq", seq])
    cls = json.loads(capsys.readouterr().out)["classification"]
    assert code == 0 and cls["r_sup"] == "inf"
    assert cls["log_r_sup"] == pytest.approx(160 * math.log(101.0), rel=1e-13)
    assert not {"is_lacunary", "is_quasi_geometric"} & set(cls)
    code, report = _verify(capsys, "carleson", "--seq", seq)
    checks = {c["name"]: c for c in report["checks"]}
    assert code == 0 and checks["sublinear-vs-monomial-test"]["status"] == "PASS"
    # R alone is past the float range, 3 p R sup M_n on SMALL's atoms is not
    sup = checks["monomial-test-constant"]["data"]["sup"]
    assert checks["sublinear-vs-monomial-test"]["data"]["bound"] == pytest.approx(
        math.exp(math.log(6.0 * sup) + cls["log_r_sup"]), rel=1e-12)


def test_dnp_bounds_past_the_float_range():
    # 2 lam overflows at lam = 1e308; the Lebesgue moment 1 / (2 lam + 1) does not
    out = _python_dash_m("dnp", "--seq", "explicit:1,1e308", "--measure", "lebesgue")
    assert out.returncode == 0 and out.stderr == ""
    bounds = json.loads(out.stdout)["bounds"]
    with mpmath.workdps(40):
        want = mpmath.fsum(mpmath.sqrt(mpmath.mpf(l) / (1 + 2 * mpmath.mpf(l)))
                           for l in (1, 1e308))
    assert bounds["nuclear"] == pytest.approx(float(want), rel=1e-13)


def test_public_surface_is_reached_from_the_command_lines(tmp_path, capsys):
    # every function the package exports runs under some _READERS line, and every
    # check a verify line emits names as its op a function that ran on that line
    called = set()
    for cmd, argvs in _READERS.items():
        for argv in argvs:
            codes = set()
            sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code)
                           if event == "call" else None)
            try:
                code = run([cmd, *argv, *(["--out", str(tmp_path)] if cmd == "report" else [])])
            finally:
                sys.setprofile(None)
            out = capsys.readouterr().out
            assert code in (0, 1), (cmd, argv)
            called |= codes
            if cmd != "verify":
                continue
            for c in json.loads(out)["checks"]:
                module, name = c["op"].split(".")
                ran = getattr(getattr(muntzlab, module), name).__code__ in codes
                assert ran, (argv, c["name"], c["op"])
    unreached = {name for name, obj in vars(muntzlab).items()
                 if inspect.isfunction(obj) and obj.__code__ not in called}
    assert unreached == set()


@pytest.mark.parametrize("label", ["A", "B"])
def test_example_checks_the_claims_verify_checks(label, capsys):
    # with no --q, example runs at the q of verify --suite ex-a / ex-b
    run(["example", "--label", label, "--count", "12"])
    example = json.loads(capsys.readouterr().out)
    code, verify = _verify(capsys, f"ex-{label.lower()}")
    assert code == 0
    assert example["inputs"]["q"] == verify["inputs"]["q"]
    assert [(c["name"], c["status"]) for c in example["checks"]] == \
        [(c["name"], c["status"]) for c in verify["checks"]]


# verify on the SMALL inputs, one file per suite: regenerate one with
#   PYTHONPATH=src python -m muntzlab verify --suite S <the options _small([S]) gives> \
#       > tests/golden/verify-S.json
# and say in the change why its content moved
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REL = 1e-12


def _assert_matches(got, want, where="$"):
    """got equals want with numbers within GOLDEN_REL relative and everything
    else (keys, names, statuses, strings, bools, None, lengths) exact."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for k in want:
            _assert_matches(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=GOLDEN_REL, abs=0.0), where
    else:
        assert got == want, where


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_verify_matches_golden(suite, capsys):
    code, report = _verify(capsys, suite)
    assert code == 0
    _assert_matches(report, json.loads((GOLDEN / f"verify-{suite}.json").read_text()))


@pytest.mark.parametrize("what", ["name", "status", "number"])
def test_golden_comparison_refuses_a_changed_check(what):
    text = (GOLDEN / "verify-carleson.json").read_text()
    got, want = json.loads(text), json.loads(text)
    check = got["checks"][0]  # monomial-test-constant, EVIDENCE, data {last, sup}
    if what == "name":
        check["name"] += "x"
    elif what == "status":
        check["status"] = "PASS"
    else:
        check["data"]["sup"] *= 1.0 + 10.0 * GOLDEN_REL
    with pytest.raises(AssertionError):
        _assert_matches(got, want)
