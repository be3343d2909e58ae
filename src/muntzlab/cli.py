"""Command-line front end: computations, named verification suites, reports.

Check statuses make the finite/infinite divide explicit: exact inequalities
with explicit constants are PASS/FAIL; trend or constant-free equivalence
checks are EVIDENCE (finite data can exhibit them, never prove them); UNMET
marks a theorem hypothesis the inputs do not satisfy, and the claims that
rest on it are then reported as EVIDENCE.  Exit code 0 means no FAIL, 1
means some FAIL, 2 means usage error.  For fixed inputs and seed the output
is byte-identical.

Each subcommand takes only the options its handler reads (``_COMMANDS``); an
option of another subcommand is a usage error, and so is one that only
another branch of the handler reads (``_BRANCHES``: the formula of
``bounds``, the kind of ``probe``, the operator of ``spectrum``, the suite
of ``verify``, the suites of ``report``).  The suite table ``_SUITES`` is
the one list of the options each suite reads: ``verify`` records exactly
those, with the values the suite ran on, and ``report`` takes those of the
suites it runs and refuses an unknown suite before running any.  ``norm``
takes ``--coeffs`` or ``--coeffs-file``, not both; ``--format csv`` exists
on moments, dnp and example.

``report`` and ``verify`` parse ``--seq`` and ``--measure`` once and give
their suites one store (``_Store``) of the results that several of them
read: the D_n profiles of ``dnp.compute_dn``, and the synthesis
(``hilbert.t_mu_spectrum``) and embedding (``hilbert.embedding_spectrum``)
spectra.  Each is computed once per command.
"""
from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import dnp as dnp_mod
from . import examples as examples_mod
from . import hilbert
from . import lpnorm
from . import measures as measures_mod
from . import sequences as sequences_mod
from .logdomain import materialize

SCHEMA = "muntzlab-report/1"
STATUSES = ("PASS", "FAIL", "EVIDENCE", "UNMET")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def sequence_from_obj(obj) -> sequences_mod.ExponentSequence:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("sequence description must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "geometric":
            return sequences_mod.generate_geometric(obj["lambda0"], obj["ratio"], obj["count"])
        if kind == "recursive_power":
            return sequences_mod.generate_recursive_power(
                obj["lambda_start"], obj["start_index"], obj["gamma"], obj["count"])
        if kind == "explicit":
            return sequences_mod.ExponentSequence(tuple(obj["values"]))
    except KeyError as exc:
        raise UsageError(f"sequence description missing field {exc}") from exc
    raise UsageError(f"unknown sequence kind {kind!r}")


def parse_sequence(spec: str) -> sequences_mod.ExponentSequence:
    """geometric:l0,r,count | recursive:start,start_index,gamma,count |
    explicit:v1,v2,... | file:path.json"""
    if spec.startswith("file:"):
        return sequence_from_obj(_load_json(spec[5:]))
    head, _, rest = spec.partition(":")
    if head == "geometric":
        v = _floats(rest)
        if len(v) != 3:
            raise UsageError("geometric needs lambda0,ratio,count")
        return sequences_mod.generate_geometric(v[0], v[1], int(v[2]))
    if head == "recursive":
        v = _floats(rest)
        if len(v) != 4:
            raise UsageError("recursive needs lambda_start,start_index,gamma,count")
        return sequences_mod.generate_recursive_power(v[0], int(v[1]), v[2], int(v[3]))
    if head == "explicit":
        return sequences_mod.ExponentSequence(tuple(_floats(rest)))
    raise UsageError(f"unknown sequence spec {spec!r}")


def measure_from_obj(obj) -> measures_mod.Measure:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("measure description must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "lebesgue":
        return measures_mod.Lebesgue()
    if kind == "atoms":
        pairs = []
        for entry in obj.get("atoms", []):
            if isinstance(entry, dict):
                if "log_delta" in entry:
                    delta = materialize(entry["log_delta"])
                else:
                    delta = float(entry["delta"])
                pairs.append((delta, float(entry["mass"])))
            else:
                pairs.append((float(entry[0]), float(entry[1])))
        if not pairs:
            raise UsageError("atoms measure needs a nonempty atom list")
        return measures_mod.atoms(pairs)
    if kind == "density":
        params = obj.get("params", {})
        return measures_mod.DensityMeasure(obj["name"], **params)
    if kind == "restrict":
        base = measure_from_obj(obj["base"])
        return measures_mod.restrict(base, obj["a"], obj["b"])
    raise UsageError(f"unknown measure kind {kind!r}")


def parse_measure(spec: str) -> measures_mod.Measure:
    """lebesgue | atoms:delta:mass,delta:mass,... | file:path.json"""
    if spec == "lebesgue":
        return measures_mod.Lebesgue()
    if spec.startswith("file:"):
        return measure_from_obj(_load_json(spec[5:]))
    if spec.startswith("atoms:"):
        pairs = []
        for chunk in spec[6:].split(","):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise UsageError(f"bad atom chunk {chunk!r}, want delta:mass")
            pairs.append((float(parts[0]), float(parts[1])))
        return measures_mod.atoms(pairs)
    raise UsageError(f"unknown measure spec {spec!r}")


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read description file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _sanitize(obj):
    """Make a payload strictly JSON-serializable (finite floats, str keys)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return _sanitize(asdict(obj))
    return obj


def _emit(payload: dict, args, name: str, as_csv: bool = False) -> None:
    """Print the payload and, with --out, write it there: as JSON, or as a CSV
    table of its rows when ``as_csv``."""
    if as_csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(payload["rows"][0]))
        writer.writeheader()
        writer.writerows(payload["rows"])
        text, name = buf.getvalue(), f"{name}.csv"
    else:
        payload = {"schema": SCHEMA, **payload}
        text = json.dumps(_sanitize(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
        name = f"{name}.json"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text)
    print(text, end="")


def check(name: str, op: str, status: str, **data) -> dict:
    """One check record; ``_emit`` makes its non-finite floats strings."""
    return {"name": name, "op": op, "status": status, "data": data}


def _log_monomial_test(lam: float, log_moment: float) -> float:
    """log(lam * moment) as log lam + log moment: the moment may underflow."""
    return math.log(lam) + log_moment if lam > 0.0 else -math.inf


def _verdict(ok: bool | None) -> tuple[str, dict]:
    """PASS or FAIL; EVIDENCE with a note where ok is None, undecided past the float range."""
    if ok is None:
        return "EVIDENCE", {"note": "value beyond float range at this scale"}
    return ("PASS" if ok else "FAIL"), {}


def _exit_code(checks: list[dict]) -> int:
    return 1 if any(c["status"] == "FAIL" for c in checks) else 0


class _Store:
    """The results of one command that several suites read, each computed once.

    ``dn`` is compute_dn per (measure, weight, n_count, tol); ``synthesis``
    and ``embedding`` are t_mu_spectrum and embedding_spectrum per (measure,
    n).  The store lives for one command, as a separate CLI run would; the
    suites share its results and only read them.  Each library function is
    looked up when called, so a patched or traced one is the one that runs.
    """

    def __init__(self, seq):
        self.dn = functools.cache(lambda mu, weight, n_count, tol: dnp_mod.compute_dn(
            seq, mu, weight, n_count=n_count, tol=tol))
        self.synthesis = functools.cache(lambda mu, n: hilbert.t_mu_spectrum(seq, mu, n))
        self.embedding = functools.cache(lambda mu, n: hilbert.embedding_spectrum(seq, mu, n))


def _chain_check(spec, profile) -> tuple[float, bool]:
    """The chain sigma_{k+1} <= D*_k of a synthesis spectrum against its D_n(2)
    profile: returns min_k (D*_k - sigma_{k+1}) and whether it is >= -1e-9.
    D* is the decreasing rearrangement of the D_n(2) prefix, which bounds the
    truncated synthesis operator."""
    dstar = dnp_mod.decreasing_rearrangement(profile.values)
    margin = min(d - s for d, s in zip(dstar, spec.singular_values))
    return margin, margin >= -1e-9


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def suite_basis(seq, p, N, seed, tol, store) -> list[dict]:
    checks = []
    n = min(N, len(seq))
    sample = lpnorm.gm_ratio_sample(seq, p, trials=100, seed=seed, n_count=n)
    checks.append(check("ratio-sample-bracket", "lpnorm.gm_ratio_sample", "EVIDENCE",
                        min_ratio=sample.min_ratio, max_ratio=sample.max_ratio,
                        trials=sample.trials))
    low, high = sample.canonical
    ok = abs(low - 1.0) <= 1e-9 and abs(high - 1.0) <= 1e-9
    checks.append(check("canonical-vectors-normalized", "lpnorm.gm_ratio_sample",
                        "PASS" if ok else "FAIL", min_ratio=low, max_ratio=high))
    profile = store.dn(measures_mod.Lebesgue(), dnp_mod.WeightScheme("inverse_lambda", p),
                       n, tol)
    ob = dnp_mod.operator_bounds(profile, measures_mod.Lebesgue(), seq)
    checks.append(check("lebesgue-diagonal-bounded", "dnp.compute_dn", "EVIDENCE",
                        sup=ob.sup_dn, trailing_max=ob.limsup_estimate,
                        tails_safe=profile.all_safe))
    if p == 2.0:
        fb = hilbert.frame_bounds(seq, n)
        checks.append(check("frame-bracket", "hilbert.frame_bounds", "EVIDENCE",
                            sigma_min=fb.sigma_min, sigma_max=fb.sigma_max))
    return checks


def suite_isometry(seq, p, N, eps, seed) -> list[dict]:
    checks = []
    n = min(N, len(seq))
    r_eps = bounds_mod.r_epsilon(p, eps)
    q_seq = [p * l + 1.0 for l in seq]
    ratios = [b / a for a, b in zip(q_seq, q_seq[1:])]
    hyp = min(ratios) >= r_eps
    checks.append(check("shifted-ratio-meets-threshold", "bounds.r_epsilon",
                        "PASS" if hyp else "UNMET",
                        r_epsilon=r_eps, min_shifted_ratio=min(ratios)))
    if p == 2.0:
        fb = hilbert.frame_bounds(seq, n)
        ok = (1.0 - eps) <= fb.sigma_min and fb.sigma_max <= (1.0 + eps)
        checks.append(check("frame-within-eps", "hilbert.frame_bounds",
                            ("PASS" if ok else "FAIL") if hyp else "EVIDENCE",
                            sigma_min=fb.sigma_min, sigma_max=fb.sigma_max, eps=eps))
    else:
        sample = lpnorm.gm_ratio_sample(seq, p, trials=200, seed=seed, n_count=n)
        ok = (1.0 - eps) <= sample.min_ratio and sample.max_ratio <= (1.0 + eps)
        checks.append(check("sampled-ratios-within-eps", "lpnorm.gm_ratio_sample",
                            "FAIL" if hyp and not ok else "EVIDENCE",
                            min_ratio=sample.min_ratio, max_ratio=sample.max_ratio, eps=eps))
    return checks


def suite_pairing(seq, p) -> list[dict]:
    checks = []
    pairs = [lpnorm.pairing_integral(seq, p, k) for k in range(len(seq) - 1)]
    above = all(v >= b - 1e-12 for v, b in pairs)
    checks.append(check("pairing-above-lower-bound", "lpnorm.pairing_integral",
                        "PASS" if above else "FAIL",
                        values=[v for v, _ in pairs], bounds=[b for _, b in pairs]))
    vals = [v for v, _ in pairs]
    trend = "decay" if vals[-1] < 0.05 else ("bounded" if min(vals) > 0.1 else "mixed")
    checks.append(check("pairing-trend", "lpnorm.pairing_integral", "EVIDENCE",
                        trend=trend, first=vals[0], last=vals[-1]))
    return checks


def suite_envelope(seq, alpha_list) -> list[dict]:
    checks = []
    for alpha in alpha_list:
        br = bounds_mod.envelope_check(seq, alpha)
        edges = {"ratio_min": br.ratio_min, "ratio_max": br.ratio_max,
                 "log_ratio_min": br.log_ratio_min, "log_ratio_max": br.log_ratio_max}
        # decided on the logs: a ratio below the smallest float is still positive
        ok = br.log_ratio_min > -math.inf and br.log_ratio_max < math.inf
        checks.append(check(f"envelope-positive-finite-alpha={alpha:g}",
                            "bounds.envelope_check", "PASS" if ok else "FAIL", **edges))
        width = (br.ratio_max / br.ratio_min if br.ratio_min > 0.0 else
                 materialize(br.log_ratio_max - br.log_ratio_min))
        checks.append(check(f"envelope-bracket-alpha={alpha:g}",
                            "bounds.envelope_check", "EVIDENCE", **edges, width=width))
    return checks


def suite_crossterm(p_values, r_values, count) -> list[dict]:
    checks = []
    for p in p_values:
        for alpha in (1.0 / (p - 1.0), 1.0):
            for r in r_values:
                q = [r ** k for k in range(count)]
                res = bounds_mod.lemma31_bound(p, alpha, q, r)
                checks.append(check(
                    f"crossterm-p={p:g}-alpha={alpha:g}-r={r:g}",
                    "bounds.lemma31_bound",
                    "PASS" if res.lhs <= res.rhs else "FAIL",
                    lhs=res.lhs, rhs=res.rhs))
    return checks


def suite_diagonal(seq, measure, N, seed, tol, store) -> list[dict]:
    checks = []
    n = min(N, len(seq))
    spec = store.synthesis(measure, n)
    profile = store.dn(measure, dnp_mod.WeightScheme("inverse_lambda", 2.0), n, tol)
    ob = dnp_mod.operator_bounds(profile, measure, seq)
    margin, chain_ok = _chain_check(spec, profile)
    checks.append(check("singular-values-below-rearranged-profile",
                        "hilbert.t_mu_spectrum",
                        "PASS" if chain_ok else "FAIL",
                        margin=margin, tails_safe=profile.all_safe))
    hs, trace = spec.schatten[2.0], spec.extras["trace"]
    hs_sq = hilbert.square(hs)
    # past the float range on the logs, whose difference is the relative gap
    status, note = _verdict(abs(hs_sq - trace) <= 1e-10 * max(trace, 1e-300)
                            if max(hs_sq, trace) < math.inf
                            else abs(2.0 * math.log(hs) - spec.extras["log_trace"]) <= 1e-10
                            if hs < math.inf else None)
    checks.append(check("hilbert-schmidt-equals-trace", "hilbert.t_mu_spectrum", status,
                        hs_squared=hs_sq, trace=trace, **note))
    for r in hilbert.SCHATTEN_ORDERS:
        ok = spec.schatten[r] <= ob.schatten[r] + 1e-9
        checks.append(check(f"schatten-bound-r={r:g}", "dnp.operator_bounds",
                            "PASS" if ok else "FAIL",
                            spectrum=spec.schatten[r], bound=ob.schatten[r]))
    # ||sum_j b_j t^lam_j||_{L^2(mu)} vs (sum_j |b_j|^2 D_j^2 / lam_j)^(1/2), rows b
    b = lpnorm._uniform_rows(seed, 100, len(profile.values))
    # w_j D_j^2 in logs: w_j = 1/lam_j alone may overflow (lam_0 = 5e-324)
    weighted = [materialize(2.0 * math.log(d) - profile.weight.log_inv_weight(lam))
                if d > 0.0 else 0.0 for d, lam in zip(profile.values, seq.exponents)]
    rhs = np.sqrt((b ** 2 * weighted).sum(axis=1))
    lhs = lpnorm.log_lp_norms(seq, b, measure, 2.0).tolist()
    worst = max(materialize(l) - r for l, r in zip(lhs, rhs.tolist()))
    checks.append(check("random-vector-domination", "dnp.compute_dn",
                        "PASS" if worst <= 1e-9 else "FAIL", worst_excess=worst))
    return checks


def suite_blocksum(seq, p) -> list[dict]:
    checks = []
    lengths = [2 ** k for k in range(len(seq).bit_length())]  # 1, 2, 4, ... <= len(seq)
    ratios = [lpnorm.amgm_probe(seq, p, 0, length).ratio for length in lengths]
    growing = all(b >= a * 0.99 for a, b in zip(ratios, ratios[1:])) and ratios[-1] > ratios[0] * 2
    checks.append(check("block-lower-bound-growth", "lpnorm.amgm_probe", "EVIDENCE",
                        lengths=lengths, ratios=ratios,
                        trend="growing" if growing else "bounded"))
    return checks


def suite_carleson(seq, measure, p, q, N, tol, store) -> list[dict]:
    checks = []
    n = min(N, len(seq))
    cls = sequences_mod.classify(seq)
    logs = measures_mod.moments(measure, seq.exponents, p).tolist()
    log_tests = [_log_monomial_test(l, m) for l, m in zip(seq, logs)]
    sup_m = materialize(max(log_tests))
    # the float last underflows to 0.0 where its log does not
    checks.append(check("monomial-test-constant", "measures.moments", "EVIDENCE",
                        sup=sup_m, last=materialize(log_tests[-1]), log_last=log_tests[-1]))
    sub = measures_mod.sublinear_norm(measure)
    checks.append(check("sublinear-norm", "measures.sublinear_norm", "EVIDENCE",
                        norm_s=sub.norm_s, attained_at=sub.attaining_epsilon,
                        exact=sub.exact))
    if cls.is_quasi_geometric:
        bound = 3.0 * p * cls.r_sup * sup_m
        # the scales eps ~ 1 / (p lam_n) that the monomials of the prefix see:
        # a sup attained outside them (an atom closer to 1) is no failure;
        # min(1, 1 / (p lam_0)) as 1 / max(1, p lam_0), since t**0 sees every eps
        window = [1.0 / (p * seq.exponents[-1]), 1.0 / max(1.0, p * seq.exponents[0])]
        seen = measures_mod.windowed_sublinear_sup(measure, *window)
        if sub.norm_s <= bound + 1e-12:
            status, note = "PASS", {}
        elif seen > bound + 1e-12:
            status, note = "FAIL", {}
        else:
            status, note = "EVIDENCE", {"note": (
                f"norm_s is attained outside eps in [{window[0]:.6g}, {window[1]:.6g}], "
                "the scales the monomials of the prefix see; the sup there is within the bound")}
        checks.append(check("sublinear-vs-monomial-test", "measures.sublinear_norm", status,
                            norm_s=sub.norm_s, bound=bound, big_r=cls.r_sup,
                            window=window, window_sup=seen, **note))
    for qv in q:
        if qv <= p:
            continue
        profile = store.dn(measure, dnp_mod.WeightScheme("inverse_lambda", qv), len(seq), tol)
        checks.append(check(f"diagonal-profile-finite-q={qv:g}", "dnp.compute_dn",
                            "EVIDENCE", sup=max(profile.values),
                            tails_safe=profile.all_safe))
    if p == 2.0 or 2.0 in q:
        spec = store.synthesis(measure, n)
        profile2 = store.dn(measure, dnp_mod.WeightScheme("inverse_lambda", 2.0), n, tol)
        ok = spec.sigma_max <= max(profile2.values) + 1e-9
        checks.append(check("synthesis-norm-below-sup-profile", "hilbert.t_mu_spectrum",
                            "PASS" if ok else "FAIL",
                            sigma_max=spec.sigma_max, sup_profile=max(profile2.values)))
        emb = store.embedding(measure, n)
        checks.append(check("embedding-norm", "hilbert.embedding_spectrum", "EVIDENCE",
                            sigma_max=emb.sigma_max,
                            ratio_to_sup_profile=emb.sigma_max / max(profile2.values)))
    return checks


def suite_compact(seq, measure, N, tol, store) -> list[dict]:
    checks = []
    profile = store.dn(measure, dnp_mod.WeightScheme("inverse_lambda", 1.0), len(seq), tol)
    vals = profile.values
    half = vals[len(vals) // 2:]
    decaying = all(b <= a * 1.001 for a, b in zip(half, half[1:])) and half[-1] < half[0]
    checks.append(check("monomial-test-decay", "dnp.compute_dn", "EVIDENCE",
                        trend="decaying" if decaying else "flat",
                        first=half[0], last=half[-1], log_last=profile.log_values[-1]))
    sub = measures_mod.sublinear_norm(measure)
    prof = sub.vanishing_profile
    tail_ratio = prof[-1][1]
    head_ratio = max(r for _, r in prof)
    checks.append(check("vanishing-profile", "measures.sublinear_norm", "EVIDENCE",
                        smallest_eps_ratio=tail_ratio, max_ratio=head_ratio))
    cuts = [1.0 - 2.0 ** (-j) for j in range(1, 11)]
    trend = hilbert.essential_norm_estimate(seq, measure, min(N, len(seq)), cuts)
    checks.append(check("restriction-spectrum-trend", "hilbert.essential_norm_estimate",
                        "EVIDENCE", sigma1=trend.sigma1, drop_factor=trend.drop_factor,
                        limit_proxy=trend.limit_proxy))
    pois = measures_mod.poisson_integral(measure)
    checks.append(check("order-boundedness-integral", "measures.poisson_integral",
                        "EVIDENCE", divergent=pois.divergent,
                        value=None if pois.divergent else pois.value.to_float()))
    return checks


def suite_hs(seq, measure, N, q, tol, store) -> list[dict]:
    checks = []
    n = min(N, len(seq))
    report = hilbert.hs_criteria(store.embedding(measure, n), store.synthesis(measure, n),
                                 measure, q_values=tuple(q))
    if not report.poisson_divergent and 2.0 in report.kernel_values:
        kernel, poisson = report.kernel_values[2.0], report.poisson_value
        # kernel**2 / poisson, from logs past the float range; None at 0 / 0
        ratio = report.ratios["kernel2_sq_over_poisson"]
        status, note = _verdict(abs(ratio - 1.0) <= 1e-9 if ratio is not None
                                else kernel == 0.0 if poisson == 0.0 else None)
        checks.append(check("kernel-double-integral-matches-poisson", "hilbert.prop511_value",
                            status, kernel_sq=hilbert.square(kernel), poisson=poisson, **note))
    profile = store.dn(measure, dnp_mod.WeightScheme("inverse_lambda", 2.0), len(seq), tol)
    # hs**2 <= sum v**2 + 1e-9 on values divided by a power of two (exactly)
    hs = report.hs_synthesis
    c = hilbert._pow2_scale(max(hs, *profile.values))
    ok = (hs / c) ** 2 <= math.fsum((v / c) ** 2 for v in profile.values) + 1e-9 / c / c
    checks.append(check("synthesis-hs-below-profile-l2", "hilbert.hs_criteria",
                        "PASS" if ok else "FAIL", hs_squared=hilbert.square(hs),
                        bound=math.fsum(hilbert.square(v) for v in profile.values)))
    checks.append(check("hs-three-way", "hilbert.hs_criteria", "EVIDENCE",
                        hs_embedding=report.hs_embedding,
                        hs_synthesis=report.hs_synthesis,
                        poisson_divergent=report.poisson_divergent,
                        poisson=report.poisson_value,
                        kernel={f"{qv:g}": v for qv, v in report.kernel_values.items()},
                        ratios=report.ratios,
                        note=report.expected_divergent_note))
    return checks


def suite_example(label, p, q, count, tol) -> list[dict]:
    inst = examples_mod.build_example(label, p, count)
    report = examples_mod.check_example_claims(inst, q, tol=tol)
    return [check(c.name, "examples.check_example_claims", c.status, **c.data)
            for c in report.checks]


def _reads(*options, q=None) -> dict:
    """A suite's options, each mapped to None but --q, which maps to the q the
    suite runs on when --q gives none, a function of the values read before."""
    return {o: q if o == "--q" else None for o in options}


# The suites in order: id -> (function, the options it reads).  The function
# takes each option by dest name, --seq and --measure parsed, and the
# command's _Store if it has a ``store`` parameter.  A suite accepts and
# records exactly these options; a comment notes a read that depends on p.
# ``example`` runs at the q default of ex-a or ex-b too.
_SUITES = {
    # frame bracket + coefficient-norm equivalence sampling
    "basis": (suite_basis, _reads("--seq", "--p", "--N", "--seed", "--tol")),
    # near-isometry above the explicit lacunarity threshold; --seed only when p != 2
    "isometry-threshold": (suite_isometry, _reads("--seq", "--p", "--N", "--eps", "--seed")),
    "pairing-dichotomy": (suite_pairing, _reads("--seq", "--p")),  # decay vs bounded below
    "envelope": (suite_envelope, _reads("--seq", "--alpha-list")),  # series vs (1-t)^-alpha
    # cross-term sum vs closed-form majorant, at fixed p values, r values and count
    "crossterm-bound": (functools.partial(suite_crossterm, (1.5, 2.0, 3.0, 5.0),
                                          (2.0, 4.0, 16.0), 30), _reads()),
    # singular values vs rearranged D profile (p = 2)
    "diagonal-domination": (suite_diagonal,
                            _reads("--seq", "--measure", "--N", "--seed", "--tol")),
    "blocksum-probe": (suite_blocksum, _reads("--seq", "--p")),  # block lower-bound growth
    # monomial test, sublinear norm, embedding norms; the spectra (and --N)
    # only when 2 is among p or q
    "carleson": (suite_carleson, _reads("--seq", "--measure", "--p", "--q", "--N", "--tol")),
    # decay of the monomial test and restriction spectra
    "compact": (suite_compact, _reads("--seq", "--measure", "--N", "--tol")),
    # Hilbert-Schmidt: spectra vs integral criteria
    "hs": (suite_hs, _reads("--seq", "--measure", "--N", "--q", "--tol", q=lambda v: [2.0])),
    # the two extremal constructions
    "ex-a": (functools.partial(suite_example, "A"),
             _reads("--p", "--q", "--count", "--tol", q=lambda v: [v["p"], v["p"] + 1.0])),
    "ex-b": (functools.partial(suite_example, "B"),
             _reads("--p", "--q", "--count", "--tol", q=lambda v: [1.0])),
}
SUITE_IDS = tuple(_SUITES)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    seq = parse_sequence(args.seq)
    cls = sequences_mod.classify(seq)
    payload = {"command": "classify", "inputs": {"seq": args.seq},
               "classification": asdict(cls), "gap": seq.gap, "length": len(seq)}
    if args.decompose is not None:
        parts = sequences_mod.decompose_quasi_lacunary(seq, args.decompose)
        payload["decomposition"] = {"r": args.decompose,
                                    "parts": [list(p.exponents) for p in parts]}
    _emit(payload, args, "classify")
    return 0


def _cmd_moments(args) -> int:
    seq = parse_sequence(args.seq)
    mu = parse_measure(args.measure)
    logs = measures_mod.moments(mu, seq.exponents, args.p).tolist()
    rows = []
    for i, (lam, log_m) in enumerate(zip(seq, logs)):
        rows.append({"n": i, "lambda_n": lam,
                     "moment_p_lambda": materialize(log_m),
                     "log_moment": None if log_m == -math.inf else log_m,
                     "monomial_test": materialize(_log_monomial_test(lam, log_m))})
    _emit({"command": "moments", "inputs": {"seq": args.seq, "measure": args.measure,
                                            "p": args.p}, "rows": rows},
          args, "moments", as_csv=args.format == "csv")
    return 0


def _cmd_dnp(args) -> int:
    seq = parse_sequence(args.seq)
    mu = parse_measure(args.measure)
    weight = dnp_mod.WeightScheme(args.weight, args.p)
    n_count = min(args.N, len(seq)) if args.N else len(seq)
    profile = dnp_mod.compute_dn(seq, mu, weight, n_count=n_count, tol=args.tol)
    ob = dnp_mod.operator_bounds(profile, mu, seq)
    rows = [{"n": i, "lambda_n": seq[i], "D_n": profile.values[i],
             "cutoff_K": profile.truncation[i].cutoff,
             "tail_flag": "ok" if profile.truncation[i].safe else "unsafe"}
            for i in range(n_count)]
    payload = {"command": "dnp",
               "inputs": {"seq": args.seq, "measure": args.measure, "p": args.p,
                          "weight": args.weight, "n": n_count, "tol": args.tol},
               "rows": rows,
               "bounds": {"sup": ob.sup_dn, "trailing_max": ob.limsup_estimate,
                          "window": ob.window, "rearranged": list(ob.rearranged),
                          "nuclear": ob.nuclear_bound,
                          "schatten": None if ob.schatten is None
                          else {f"{r:g}": v for r, v in ob.schatten.items()}}}
    _emit(payload, args, "dnp", as_csv=args.format == "csv")
    return 0


def _cmd_bounds(args) -> int:
    formula = args.formula
    if formula == "jlambda":
        report = bounds_mod.jlambda_upper(args.p, args.r)
        formula, value = report.formula_id, report.upper_bound
    elif formula == "r_epsilon":
        value = bounds_mod.r_epsilon(args.p, args.eps)
    elif formula == "lemma31":
        q = [args.r ** k for k in range(args.count)]
        res = bounds_mod.lemma31_bound(args.p, args.alpha, q, args.r)
        formula, value = "crossterm", {"lhs": res.lhs, "rhs": res.rhs}
    elif formula == "envelope":
        br = bounds_mod.envelope_check(parse_sequence(args.seq), args.alpha)
        value = {"ratio_min": br.ratio_min, "ratio_max": br.ratio_max,
                 "log_ratio_min": br.log_ratio_min, "log_ratio_max": br.log_ratio_max}
    else:  # point_eval
        value = bounds_mod.point_eval_norm(parse_sequence(args.seq), args.p, args.t)
    # the inputs are the options this formula reads
    inputs = {_dest(o): getattr(args, _dest(o)) for o in _BRANCHES["bounds"][1][args.formula]}
    _emit({"command": "bounds", "formula": formula, "inputs": inputs, "value": value},
          args, "bounds")
    return 0


def _cmd_norm(args) -> int:
    seq = parse_sequence(args.seq)
    mu = parse_measure(args.measure)
    coeffs = _floats(Path(args.coeffs_file).read_text()) if args.coeffs_file \
        else _floats(args.coeffs)
    value = materialize(lpnorm.log_lp_norms(seq, [coeffs], mu, args.p)[0])
    payload = {"command": "norm",
               "inputs": {"seq": args.seq, "measure": args.measure, "p": args.p,
                          "coefficients": coeffs},
               "value": value}
    if args.p == 2.0 and isinstance(mu, measures_mod.Lebesgue):
        payload["gram_value"] = lpnorm.l2_norm_gram(seq, coeffs)
    _emit(payload, args, "norm")
    return 0


def _cmd_probe(args) -> int:
    seq = parse_sequence(args.seq)
    if args.kind == "gm":
        res = lpnorm.gm_ratio_sample(seq, args.p, trials=args.trials, seed=args.seed)
        payload = {"kind": "gm", "min_ratio": res.min_ratio, "max_ratio": res.max_ratio,
                   "trials": res.trials}
    else:
        probe = lpnorm.amgm_probe(seq, args.p, args.block_start, args.block_len)
        payload = {"kind": "amgm", "norm_lower_bound": probe.norm_lower_bound,
                   "coeff_norm": probe.coeff_norm, "ratio": probe.ratio,
                   "note": "growth along widening blocks is evidence of unboundedness, not proof"}
    _emit({"command": "probe", "inputs": {"seq": args.seq, "p": args.p}, **payload},
          args, "probe")
    return 0


def _cmd_spectrum(args) -> int:
    seq = parse_sequence(args.seq)
    n = min(args.N, len(seq))
    if args.operator == "frame":
        fb = hilbert.frame_bounds(seq, n)
        payload = {"operator": "frame", "N": n,
                   "sigma": list(fb.singular_values),
                   "sigma_min": fb.sigma_min, "sigma_max": fb.sigma_max}
    else:
        mu = parse_measure(args.measure)
        fn = hilbert.embedding_spectrum if args.operator == "embedding" \
            else hilbert.t_mu_spectrum
        spec = fn(seq, mu, n)
        payload = {"operator": spec.operator, "N": spec.n,
                   "sigma": list(spec.singular_values),
                   "schatten": {f"{r:g}": v for r, v in spec.schatten.items()},
                   "drift": spec.drift}
        if args.operator == "synthesis":
            profile = dnp_mod.compute_dn(seq, mu, dnp_mod.WeightScheme("inverse_lambda", 2.0),
                                         n_count=n, tol=args.tol)
            payload["chain_ok"] = _chain_check(spec, profile)[1]
    _emit({"command": "spectrum", "inputs": {"seq": args.seq, "N": args.N}, **payload},
          args, "spectrum")
    return 0


def _cmd_example(args) -> int:
    # with no --q, the q that verify's suite of this construction runs on
    q_list = _suite_inputs(f"ex-{args.label.lower()}", args)["q"]
    inst = examples_mod.build_example(args.label, args.p, args.count)
    report = examples_mod.check_example_claims(inst, q_list, tol=args.tol)
    rows = []
    for i, n in enumerate(inst.n_range):
        row = {"n": n, "lambda_n": inst.seq[i]}
        for q in report.q_values:
            row[f"M_n(q={q:g})"] = report.monomial_tests[q][i]
        if report.dn_values is not None:
            row["D_n(p)"] = report.dn_values[i]
        rows.append(row)
    _emit({"command": "example",
           "inputs": {"label": args.label, "p": args.p, "count": args.count, "q": list(q_list)},
           "rows": rows,
           "checks": [asdict(c) for c in report.checks],
           "truncated": inst.truncated},
          args, f"example-{args.label}", as_csv=args.format == "csv")
    for c in report.checks:
        print(f"[{c.status}] {c.name}", file=sys.stderr)
    return 1 if any(c.status == "FAIL" for c in report.checks) else 0


def _suite_inputs(suite: str, args) -> dict:
    """The options a suite reads, by dest name, with the values it runs on."""
    values = {}
    for option, q_default in _SUITES[suite][1].items():
        value = getattr(args, _dest(option))
        values[_dest(option)] = q_default(values) if q_default and not value else value
    return values


def _command_inputs(args, suites):
    """The parsed sequence and measure (None where no suite reads it) and
    the store that every suite of one command shares, by suite parameter."""
    reads = {o for s in suites for o in _SUITES[s][1]}
    seq = parse_sequence(args.seq) if "--seq" in reads else None
    mu = parse_measure(args.measure) if "--measure" in reads else None
    return {"seq": seq, "measure": mu, "store": _Store(seq)}


def _run_suite(suite: str, args, inputs) -> list[dict]:
    function = _SUITES[suite][0]
    kwargs = {d: inputs.get(d, v) for d, v in _suite_inputs(suite, args).items()}
    if "store" in inspect.signature(function).parameters:
        kwargs["store"] = inputs["store"]
    return function(**kwargs)


def _cmd_verify(args) -> int:
    checks = _run_suite(args.suite, args, _command_inputs(args, [args.suite]))
    payload = {"command": "verify", "suite": args.suite, "inputs": _suite_inputs(args.suite, args),
               "checks": checks,
               "summary": {s: sum(1 for c in checks if c["status"] == s)
                           for s in STATUSES}}
    _emit(payload, args, f"verify-{args.suite}")
    return _exit_code(checks)


def _cmd_report(args) -> int:
    if not args.out:
        raise UsageError("report needs --out DIRECTORY")
    inputs = _command_inputs(args, args.suites)
    all_checks = []
    index = []
    for suite in args.suites:
        checks = _run_suite(suite, args, inputs)
        all_checks.extend(checks)
        payload = {"command": "verify", "suite": suite, "checks": checks}
        _emit(payload, args, f"verify-{suite}")
        index.append({"suite": suite,
                      "fail": sum(1 for c in checks if c["status"] == "FAIL")})
    _emit({"command": "report", "suites": index}, args, "index")
    return _exit_code(all_checks)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

# Every option of every subcommand.  Each subcommand takes exactly the options
# its handler reads (_COMMANDS), so an option it would ignore is a usage error.
_OPTIONS = {
    "--seq": dict(default="geometric:1,2,16",
                  help="geometric:l0,r,count | recursive:l,start,gamma,count | "
                       "explicit:v1,v2,... | file:path.json"),
    "--measure": dict(default="lebesgue",
                      help="lebesgue | atoms:delta:mass,... | file:path.json"),
    "--p": dict(type=float, default=2.0),
    "--q": dict(type=_floats, default=()),
    "--N": dict(type=int, default=hilbert.DEFAULT_TRUNCATION),
    "--tol": dict(type=float, default=1e-12),
    "--seed": dict(type=int, default=0),
    "--eps": dict(type=float, default=0.5),
    "--count": dict(type=int, default=20),
    "--out": dict(default=None, help="directory for report files"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--decompose": dict(type=float, default=None,
                        help="also greedily split into r-lacunary parts"),
    "--weight": dict(choices=("inverse_lambda", "classical"), default="inverse_lambda"),
    "--formula": dict(required=True,
                      choices=("jlambda", "lemma31", "r_epsilon", "envelope", "point_eval")),
    "--r": dict(type=float, default=2.0),
    "--alpha": dict(type=float, default=1.0),
    "--t": dict(type=float, default=0.5),
    "--coeffs": dict(default="1"),
    "--coeffs-file": dict(default=None),
    "--kind": dict(choices=("gm", "amgm"), default="gm"),
    "--trials": dict(type=int, default=100),
    "--block-start": dict(type=int, default=0),
    "--block-len": dict(type=int, default=4),
    "--operator": dict(choices=("embedding", "synthesis", "frame"), default="embedding"),
    "--label": dict(choices=("A", "B"), required=True),
    "--suite": dict(required=True, choices=SUITE_IDS),
    "--suites": dict(type=lambda s: s.split(","),
                     default=("basis", "pairing-dichotomy", "envelope",
                              "crossterm-bound", "diagonal-domination")),
    "--alpha-list": dict(type=_floats, default=(0.5, 1.0, 2.0)),
}

# name, help, handler and the options the handler reads on every branch
# (_BRANCHES adds the others); an inner tuple of options is a mutually
# exclusive group
_COMMANDS = (
    ("classify", "prefix growth classification", _cmd_classify,
     ("--seq", "--decompose", "--out")),
    ("moments", "monomial moments against a measure", _cmd_moments,
     ("--seq", "--measure", "--p", "--out", "--format")),
    ("dnp", "diagonal-domination profile and bounds", _cmd_dnp,
     ("--seq", "--measure", "--p", "--N", "--tol", "--out", "--format", "--weight")),
    ("bounds", "closed-form constants and brackets", _cmd_bounds, ("--out", "--formula")),
    ("norm", "L^p(mu) norm of a coefficient vector", _cmd_norm,
     ("--seq", "--measure", "--p", "--out", ("--coeffs", "--coeffs-file"))),
    ("probe", "ratio sampling and block probes", _cmd_probe, ("--seq", "--p", "--out", "--kind")),
    ("spectrum", "truncated operator spectra (p=2)", _cmd_spectrum,
     ("--seq", "--N", "--out", "--operator")),
    ("example", "extremal constructions A and B", _cmd_example,
     ("--p", "--q", "--tol", "--count", "--out", "--format", "--label")),
    ("verify", "named verification suites", _cmd_verify, ("--out", "--suite")),
    ("report", "run a battery of suites into a directory", _cmd_report, ("--out", "--suites")),
)

# A handler that branches on one option reads some options on some branches
# only.  On that subcommand such an option defaults to None, so the parser
# sees whether it was given: where no chosen branch reads it that is a
# usage error, and an option not given takes its default from _OPTIONS.
# report's key --suites chooses several branches: the suites it runs.
_SUITE_READS = {suite: options for suite, (_, options) in _SUITES.items()}
_BRANCHES = {
    "bounds": ("--formula", {"jlambda": ("--p", "--r"),
                             "lemma31": ("--p", "--alpha", "--r", "--count"),
                             "r_epsilon": ("--p", "--eps"),
                             "envelope": ("--seq", "--alpha"),
                             "point_eval": ("--seq", "--p", "--t")}),
    "probe": ("--kind", {"gm": ("--seed", "--trials"),
                         "amgm": ("--block-start", "--block-len")}),
    "spectrum": ("--operator", {"frame": (),
                                "embedding": ("--measure",),
                                "synthesis": ("--measure", "--tol")}),
    "verify": ("--suite", _SUITE_READS),
    "report": ("--suites", _SUITE_READS),
}


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which enforces its entry of ``_BRANCHES``: the
    key option, the options each of its choices reads, and all of those."""

    key, reads, branch_options = None, {}, ()

    def parse_known_args(self, args=None, namespace=None):
        ns, rest = super().parse_known_args(args, namespace)
        if self.key is not None:
            key, reads = self.key, self.reads
            chosen = getattr(ns, _dest(key))
            chosen = [chosen] if isinstance(chosen, str) else chosen
            for c in chosen:
                if c not in reads:
                    self.error(f"{key}: unknown {c!r}; have {', '.join(reads)}")
            read = {o for c in chosen for o in reads[c]}
            for option in self.branch_options:
                if getattr(ns, _dest(option)) is None:
                    setattr(ns, _dest(option), _OPTIONS[option]["default"])
                elif option not in read:
                    self.error(f"{option} is not read with {key} {','.join(chosen)}")
        return ns, rest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muntzlab",
        description="numerics for weighted monomial systems on [0,1)")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_CommandParser)
    for name, help_text, handler, options in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        if name in _BRANCHES:
            sp.key, sp.reads = _BRANCHES[name]
            sp.branch_options = tuple(dict.fromkeys(o for r in sp.reads.values() for o in r))
        for option in options:
            group = sp.add_mutually_exclusive_group() if isinstance(option, tuple) else sp
            for o in option if isinstance(option, tuple) else (option,):
                group.add_argument(o, **_OPTIONS[o])
        for o in sp.branch_options:
            sp.add_argument(o, **{**_OPTIONS[o], "default": None})
        sp.set_defaults(fn=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process; a parse keeps its state in its namespace."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # UsageError and ConditioningError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
