"""Command-line front end: computations, named verification suites, reports.

Check statuses make the finite/infinite divide explicit: exact inequalities
with explicit constants are PASS/FAIL; trend or constant-free equivalence
checks are EVIDENCE (finite data can exhibit them, never prove them); UNMET
marks a theorem hypothesis the inputs do not satisfy, and the claims that
rest on it are then reported as EVIDENCE.  Exit code 0 means no FAIL, 1
means some FAIL, 2 means usage error.  For fixed inputs and seed the output
is byte-identical.

Every PASS/FAIL comparison of two numbers takes one rule, ``_decide``: a
relative tolerance on the logarithms of both sides, so no verdict moves when
the masses of a measure are scaled, and EVIDENCE where a side has no finite log.
A check with no tolerance compares two finite floats directly (``_decide_le``).
The library returns numbers only; so do the constructions A and B, whose
claims ``_example`` decides from their moments and closed-form brackets.

Each subcommand takes only the options its handler reads (``_COMMANDS``); an
option of another subcommand is a usage error, and so is one that only
another branch of the handler reads (``_BRANCHES``: the formula of
``bounds``, the operator of ``spectrum``, the suite of ``verify``, the
suites of ``report``).  The suite table ``_SUITES`` is the one list of the
options each suite reads: ``verify`` records exactly those, with the values
the suite ran on, and ``report`` takes those of the suites it runs and
refuses an unknown suite before running any.  ``--seq``,
``--measure`` and ``--coeffs`` take a spec string or ``file:path``; a spec
string is shorthand for the JSON description one builder reads and checks
(``*_from_obj``), refusing a field that the description's kind does not
read.  ``--format csv`` exists on moments, dnp and example.

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
from .logdomain import logsumexp, materialize

SCHEMA = "muntzlab-report/1"
STATUSES = ("PASS", "FAIL", "EVIDENCE", "UNMET")


class UsageError(ValueError, argparse.ArgumentTypeError):
    """A refused input; argparse prints its message for an option's value."""


# ---------------------------------------------------------------------------
# input parsing: a spec string is shorthand for the description its builder reads
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    """The value of a float option: a finite number, not NaN or +-inf."""
    if not math.isfinite(value := float(text)):
        raise UsageError(f"expected a finite number, got {text!r}")
    return value


def _floats(text: str) -> list[float]:
    """Comma-separated ``_finite`` numbers: blank text is none, an empty entry an error."""
    entries = text.split(",") if text.strip() else []
    if not all(v.strip() for v in entries):
        raise UsageError(f"empty entry in the list {text.strip()!r}")
    return [_finite(v) for v in entries]


def _is_number(value) -> bool:  # an int or a float within the float range; no bool
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


_WANTS = {float: "a finite number", int: "an integer", list: "a list of finite numbers",
          str: "a string", dict: "an object"}


def _field(obj: dict, key: str, want: type, what: str):
    """obj[key] as ``want``, as ``_WANTS`` names it, else a UsageError naming ``what``."""
    if not isinstance(obj, dict):
        raise UsageError(f"{what} description must be an object, got {obj!r}")
    if key not in obj:
        raise UsageError(f"{what} description missing field {key!r}")
    value = obj[key]
    if want is list:
        ok = isinstance(value, list) and all(map(_is_number, value))
    elif want in (float, int):
        ok = _is_number(value) and (want is float or float(value).is_integer())
    else:
        ok = isinstance(value, want)
    if not ok:
        raise UsageError(f"{what} field {key!r} must be {_WANTS[want]}, got {value!r}")
    return want(value) if want in (float, int) else value


def _only(obj: dict, fields: tuple[str, ...], what: str) -> None:
    """Refuse a field of a description that its kind does not read, naming those it reads."""
    if unknown := sorted(set(obj) - set(fields)):
        raise UsageError(f"unknown {what} field {unknown[0]!r}; it reads {', '.join(fields)}")


_SEQUENCE_FIELDS = {"geometric": ("lambda0", "ratio", "count"), "explicit": ("values",),
                    "recursive_power": ("lambda_start", "start_index", "gamma", "count")}


def sequence_from_obj(obj) -> sequences_mod.ExponentSequence:
    field = functools.partial(_field, obj, what="sequence")
    kind = field("kind", str)
    if kind not in _SEQUENCE_FIELDS:
        raise UsageError(f"unknown sequence kind {kind!r}")
    _only(obj, ("kind", *_SEQUENCE_FIELDS[kind]), f"{kind} sequence")
    if kind == "geometric":
        return sequences_mod.generate_geometric(field("lambda0", float), field("ratio", float),
                                                field("count", int))
    if kind == "recursive_power":
        return sequences_mod.generate_recursive_power(
            field("lambda_start", float), field("start_index", int), field("gamma", float),
            field("count", int))
    return sequences_mod.ExponentSequence(tuple(field("values", list)))  # explicit


def parse_sequence(spec: str) -> sequences_mod.ExponentSequence:
    """geometric:l0,r,count | recursive:l,start,gamma,count | explicit:v1,... | file:path"""
    if spec.startswith("file:"):
        return sequence_from_obj(_load_json(spec[5:]))
    head, _, rest = spec.partition(":")
    kind = "recursive_power" if head == "recursive" else head
    if head == "recursive_power" or kind not in _SEQUENCE_FIELDS:
        raise UsageError(f"unknown sequence spec {spec!r}")
    fields, values = _SEQUENCE_FIELDS[kind], _floats(rest)
    if head == "explicit":
        values = [values]
    elif len(values) != len(fields):
        raise UsageError(f"{head} needs {','.join(fields)}")
    return sequence_from_obj({"kind": kind, **dict(zip(fields, values))})


def _atom(entry) -> tuple[float, float]:
    """(delta, mass) of [delta, mass], {"delta", "mass"} or {"log_delta", "mass"}."""
    if isinstance(entry, list) and len(entry) == 2:
        entry = {"delta": entry[0], "mass": entry[1]}
    mass = _field(entry, "mass", float, "atom")  # refuses an entry that is no object
    _only(entry, ("log_delta" if "log_delta" in entry else "delta", "mass"), "atom")
    if "log_delta" in entry:
        return materialize(_field(entry, "log_delta", float, "atom")), mass
    return _field(entry, "delta", float, "atom"), mass


_MEASURE_FIELDS = {"lebesgue": (), "atoms": ("atoms",), "density": ("name", "params"),
                   "restrict": ("base", "a", "b")}


def measure_from_obj(obj) -> measures_mod.Measure:
    field = functools.partial(_field, obj, what="measure")
    kind = field("kind", str)
    if kind not in _MEASURE_FIELDS:
        raise UsageError(f"unknown measure kind {kind!r}")
    _only(obj, ("kind", *_MEASURE_FIELDS[kind]), f"{kind} measure")
    if kind == "lebesgue":
        return measures_mod.Lebesgue()
    if kind == "atoms":
        if not isinstance(entries := obj.get("atoms"), list):
            raise UsageError(f"atoms measure needs a list of atoms, got {entries!r}")
        return measures_mod.atoms([_atom(entry) for entry in entries])
    if kind == "density":
        name = field("name", str)  # uniform is the density of alpha = 0
        allowed = {"uniform": ("scale",), "oneminus_power": ("scale", "alpha")}.get(name)
        if allowed is None:
            raise UsageError(f"unknown density name {name!r}; have uniform, oneminus_power")
        params = field("params", dict) if "params" in obj else {}
        if unknown := sorted(set(params) - set(allowed)):
            raise UsageError(f"unknown density param {unknown[0]!r}; have {', '.join(allowed)}")
        return measures_mod.DensityMeasure(
            **{k: _field(params, k, float, "density") for k in params})
    return measures_mod.restrict(measure_from_obj(field("base", dict)), field("a", float),
                                 field("b", float))  # restrict


def parse_measure(spec: str) -> measures_mod.Measure:
    """lebesgue | atoms:delta:mass,... | file:path.json, each read by ``measure_from_obj``"""
    if spec.startswith("file:"):
        return measure_from_obj(_load_json(spec[5:]))
    if spec == "lebesgue":
        return measure_from_obj({"kind": "lebesgue"})
    if not spec.startswith("atoms:"):
        raise UsageError(f"unknown measure spec {spec!r}")
    return measure_from_obj({"kind": "atoms", "atoms": [
        [float(v) for v in chunk.split(":")] for chunk in spec[6:].split(",")]})


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # nested too deep
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


def _log(x: float) -> float:
    """log x of a float x >= 0; -inf at 0 and NaN at NaN, which decides nothing."""
    return math.log(x) if x > 0.0 else x if math.isnan(x) else -math.inf


def _ratio(log_num: float, log_den: float) -> float | None:
    """exp(log_num - log_den); None where the denominator is 0 or inf or the
    numerator inf, which leaves the ratio undecided."""
    if log_num == math.inf or not -math.inf < log_den < math.inf:
        return None
    return materialize(log_num - log_den)


def _quotient(num: float, den: float) -> float | None:
    """num / den of floats >= 0, correctly rounded where both are finite; else ``_ratio``."""
    return num / den if 0.0 < den < math.inf and num < math.inf else _ratio(_log(num), _log(den))


def _decide(log_lhs, log_rhs, relation: str, rel_tol: float) -> tuple[str, dict]:
    """Status and note of lhs <= rhs (relation "<=") or lhs = rhs ("=") for every pair of
    two broadcast sides of logs, within log1p(rel_tol): FAIL where a pair that can be
    decided does not hold, else EVIDENCE where a side is +inf or NaN (no finite log),
    else PASS.  Two -inf sides are equal, a -inf lhs is <= any rhs but NaN; >= swaps sides."""
    lhs, rhs = np.broadcast_arrays(np.asarray(log_lhs, float), np.asarray(log_rhs, float))
    zero = (lhs == -math.inf) & ((relation == "<=") & ~np.isnan(rhs) | (rhs == -math.inf))
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = lhs - rhs if relation == "<=" else np.abs(lhs - rhs)
        decided = zero | (lhs + rhs < math.inf)
    holds = zero | (gap <= math.log1p(rel_tol))
    if (decided & ~holds).any():
        return "FAIL", {}
    return ("PASS", {}) if decided.all() else \
        ("EVIDENCE", {"note": "value beyond float range at this scale"})


def _decide_le(lhs, rhs) -> tuple[str, dict]:
    """``_decide`` of lhs <= rhs with no tolerance, on two broadcast sides of floats: a pair
    of finite floats is compared directly, since the logs of two floats one ulp apart may
    round to one float; a pair with an inf or NaN side takes the rule on logs."""
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, float), np.asarray(rhs, float))
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    if (lhs[finite] > rhs[finite]).any():
        return "FAIL", {}
    return _decide([_log(x) for x in lhs[~finite]], [_log(x) for x in rhs[~finite]], "<=", 0.0)


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


def _chain_check(spec, profile) -> tuple[float, str, dict]:
    """The chain sigma_{k+1} <= D*_k of a synthesis spectrum, D* the decreasing rearrangement
    of its D_n(2) profile: min_k (D*_k - sigma_{k+1}) and ``_decide``'s status and note.
    An SVD resolves sigma_k to about eps sigma_1, not eps sigma_k, so the slack
    1e-9 sigma_1 is added to each D*_k, on the logs of the profile."""
    log_dstar = np.sort(profile.log_values)[::-1]
    margin = min(materialize(d) - s for d, s in zip(log_dstar.tolist(), spec.singular_values))
    log_sigma = np.array([_log(s) for s in spec.singular_values])
    return margin, *_decide(log_sigma, np.logaddexp(log_dstar, math.log(1e-9) + log_sigma[0]),
                            "<=", 0.0)


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
    status, note = _decide([_log(low), _log(high)], 0.0, "=", 1e-9)
    checks.append(check("canonical-vectors-normalized", "lpnorm.gm_ratio_sample", status,
                        min_ratio=low, max_ratio=high, **note))
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
    if len(seq) < 2:
        raise UsageError(f"isometry-threshold needs at least two exponents, got {len(seq)}")
    checks = []
    n = min(N, len(seq))
    r_eps = bounds_mod.r_epsilon(p, eps)
    log_r = float(bounds_mod.log_shifted_ratios(seq, p).min())
    hyp = log_r >= _log(r_eps)
    checks.append(check("shifted-ratio-meets-threshold", "bounds.r_epsilon",
                        "PASS" if hyp else "UNMET",
                        r_epsilon=r_eps, min_shifted_ratio=materialize(log_r)))
    if p == 2.0:
        fb = hilbert.frame_bounds(seq, n)
        name, op, edges = "frame-within-eps", "hilbert.frame_bounds", {
            "sigma_min": fb.sigma_min, "sigma_max": fb.sigma_max}
    else:
        sample = lpnorm.gm_ratio_sample(seq, p, trials=200, seed=seed, n_count=n)
        name, op, edges = "sampled-ratios-within-eps", "lpnorm.gm_ratio_sample", {
            "min_ratio": sample.min_ratio, "max_ratio": sample.max_ratio}
    low, high = edges.values()
    # [low, high] within [1 - eps, 1 + eps]: a claim only under the hypothesis,
    # and a sample can refute that bracket but never prove it
    status, note = _decide_le([1.0 - eps, high], [low, 1.0 + eps])
    if not hyp or (status == "PASS" and p != 2.0):
        status, note = "EVIDENCE", {}
    checks.append(check(name, op, status, **edges, eps=eps, **note))
    return checks


def suite_pairing(seq, p) -> list[dict]:
    if len(seq) < 2:
        raise UsageError(f"pairing-dichotomy needs at least two exponents, got {len(seq)}")
    # the normalized pairing of adjacent monomials, q_{n+1}**(1/p) q_n**(1/p') /
    # ((p - 1) lam_n + lam_{n+1} + 1) with q = p lam + 1, is g(rho) = rho**(1/p) /
    # (1/p' + rho/p) of the shifted ratio rho = q_{n+1} / q_n alone, taken in logs
    log_rho = bounds_mod.log_shifted_ratios(seq, p)
    log_vals = log_rho / p - np.logaddexp(-math.log(bounds_mod.conjugate(p)),
                                          log_rho - math.log(p))
    vals = [materialize(v) for v in log_vals.tolist()]
    bounds = [materialize(-v) for v in log_rho.tolist()]
    return [check("pairing-above-lower-bound", "bounds.log_shifted_ratios", "EVIDENCE",
                  values=vals, bounds=bounds,
                  note="g(rho) >= 1/rho holds by algebra for every rho >= 1"),
            check("pairing-trend", "bounds.log_shifted_ratios", "EVIDENCE",
                  first=vals[0], last=vals[-1])]


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
                status, note = _decide_le(res.lhs, res.rhs)
                checks.append(check(f"crossterm-p={p:g}-alpha={alpha:g}-r={r:g}",
                                    "bounds.lemma31_bound", status,
                                    lhs=res.lhs, rhs=res.rhs, **note))
    return checks


def suite_diagonal(seq, measure, N, seed, tol, store) -> list[dict]:
    checks = []
    n = min(N, len(seq))
    spec = store.synthesis(measure, n)
    profile = store.dn(measure, dnp_mod.WeightScheme("inverse_lambda", 2.0), n, tol)
    ob = dnp_mod.operator_bounds(profile, measure, seq)
    margin, status, note = _chain_check(spec, profile)
    checks.append(check("singular-values-below-rearranged-profile", "hilbert.t_mu_spectrum",
                        status, margin=margin, tails_safe=profile.all_safe, **note))
    log_hs_sq, log_trace = 2.0 * _log(spec.schatten[2.0]), spec.extras["log_trace"]
    status, note = _decide(log_hs_sq, log_trace, "=", 1e-10)
    checks.append(check("hilbert-schmidt-equals-trace", "hilbert.t_mu_spectrum", status,
                        hs_squared=materialize(log_hs_sq), trace=materialize(log_trace), **note))
    for r in hilbert.SCHATTEN_ORDERS:
        status, note = _decide(_log(spec.schatten[r]), _log(ob.schatten[r]), "<=", 1e-9)
        checks.append(check(f"schatten-bound-r={r:g}", "dnp.operator_bounds", status,
                            spectrum=spec.schatten[r], bound=ob.schatten[r], **note))
    # ||sum_j b_j t^lam_j||_{L^2(mu)} vs (sum_j |b_j|^2 D_j^2 / lam_j)^(1/2), rows b,
    # summed in logs: w_j = 1/lam_j alone may overflow (lam_0 = 5e-324), and so may the sum
    b = lpnorm._uniform_rows(seed, 100, len(profile.values))
    log_wd2 = [2.0 * d - profile.weight.log_inv_weight(lam)
               for d, lam in zip(profile.log_values, seq.exponents)]
    with np.errstate(divide="ignore"):  # a coefficient drawn as 0 has the log -inf
        rhs = 0.5 * logsumexp(2.0 * np.log(np.abs(b)) + log_wd2, axis=1)
    lhs = lpnorm.log_lp_norms(seq, b, measure, 2.0)
    worst = max(materialize(l) - materialize(r) for l, r in zip(lhs.tolist(), rhs.tolist()))
    status, note = _decide(lhs, rhs, "<=", 1e-9)
    checks.append(check("random-vector-domination", "dnp.compute_dn", status,
                        worst_excess=worst, **note))
    return checks


def suite_blocksum(seq, p) -> list[dict]:
    # Each row is a block indicator 1_[0,n), n = 1, 2, 4, ... <= len(seq), as the
    # coefficients a_j = q_j**(-1/p), q_j = p lam_j + 1, of the normalized monomials
    # q_j**(1/p) t**lam_j.  Its ratio ||J a||_p / ||a||_p, with ||a||_p**p = sum_{j<n}
    # 1 / q_j, is at most ||J_Lambda||, which Props 3.2 and 3.3 bound by
    # jlambda_upper(p, r) for r the smallest shifted ratio q_{j+1} / q_j of the rows'
    # prefix (``bounds.log_shifted_ratios``): a FAIL is a counterexample.  The norms
    # are one ``log_lp_norms`` call on dt, whose smooth rows take the float panels,
    # as ``norm`` on dt does.
    lengths = [2 ** k for k in range(len(seq).bit_length())]
    rows = (np.arange(lengths[-1]) < np.array(lengths)[:, None]).astype(float)
    log_norms = lpnorm.log_lp_norms(seq, rows, measures_mod.DensityMeasure(), p)
    q = p * np.array(seq.exponents[:lengths[-1]]) + 1.0
    log_coeff = np.logaddexp.accumulate(-np.log(q))[np.array(lengths) - 1] / p
    log_ratios = log_norms - log_coeff
    ratios = [materialize(v) for v in log_ratios.tolist()]
    checks = [check("block-indicator-ratios", "lpnorm.log_lp_norms", "EVIDENCE",
                    lengths=lengths, ratios=ratios)]
    if lengths[-1] > 1:
        r = materialize(float(bounds_mod.log_shifted_ratios(seq, p)[:lengths[-1] - 1].min()))
        # r rounds to 1 where log r is below an ulp of 1 (lam of 1e-17); the bound -> inf
        bound = bounds_mod.jlambda_upper(p, r).upper_bound if r > 1.0 else math.inf
        status, note = _decide(log_ratios, math.log(bound), "<=", 1e-9)
        checks.append(check("block-ratios-below-jlambda", "bounds.jlambda_upper", status,
                            max_ratio=max(ratios), bound=bound, min_shifted_ratio=r, **note))
    return checks


def suite_carleson(seq, measure, p, q, N, tol, store) -> list[dict]:
    checks = []
    n = min(N, len(seq))
    cls = sequences_mod.classify(seq)
    logs = measures_mod.moments(measure, seq.exponents, p).tolist()
    log_tests = [_log(l) + m for l, m in zip(seq, logs)]  # the moment may underflow
    sup_m = materialize(max(log_tests))
    # the float last underflows to 0.0 where its log does not
    checks.append(check("monomial-test-constant", "measures.moments", "EVIDENCE",
                        sup=sup_m, last=materialize(log_tests[-1]), log_last=log_tests[-1]))
    sub = measures_mod.sublinear_norm(measure)
    checks.append(check("sublinear-norm", "measures.sublinear_norm", "EVIDENCE",
                        norm_s=sub.norm_s, attained_at=sub.attaining_epsilon))
    # decided in logs, as R may overflow (a ratio of 4.9e320) where its log does
    # not; the bound's float is the product wherever R is a float, to the last bit
    log_bound = math.log(3.0 * p) + cls.log_r_sup + max(log_tests)
    bound = 3.0 * p * cls.r_sup * sup_m if math.isfinite(cls.r_sup) else materialize(log_bound)
    # the scales eps ~ 1 / (p lam_n) that the monomials of the prefix see:
    # a sup attained outside them (an atom closer to 1) is no failure;
    # min(1, 1 / (p lam_0)) as 1 / max(1, p lam_0), since t**0 sees every eps;
    # empty where p lam_N < 1, as no monomial of the prefix sees an eps in (0, 1]
    window = [1.0 / (p * seq.exponents[-1]), 1.0 / max(1.0, p * seq.exponents[0])]
    seen = None if window[0] > window[1] else measures_mod.windowed_sublinear_sup(measure, *window)
    # PASS on norm_s within the bound; else FAIL needs the window sup above it
    status, note = _decide(_log(sub.norm_s), log_bound, "<=", 1e-12)
    if status != "PASS" and seen is None:
        status, note = "EVIDENCE", {"note": f"norm_s is not within the bound, and the window is "
                                            f"empty: p lam_N = {p * seq.exponents[-1]:.6g} < 1"}
    elif status != "PASS":
        status, note = _decide(_log(seen), log_bound, "<=", 1e-12)
        if status == "PASS":
            status, note = "EVIDENCE", {"note": (
                f"norm_s is attained outside eps in [{window[0]:.6g}, {window[1]:.6g}], the "
                "scales the monomials of the prefix see; the sup there is within the bound")}
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
        sup2 = max(profile2.values)
        status, note = _decide(_log(spec.sigma_max), max(profile2.log_values), "<=", 1e-9)
        checks.append(check("synthesis-norm-below-sup-profile", "hilbert.t_mu_spectrum", status,
                            sigma_max=spec.sigma_max, sup_profile=sup2, **note))
        emb = store.embedding(measure, n)
        checks.append(check("embedding-norm", "hilbert.embedding_spectrum", "EVIDENCE",
                            sigma_max=emb.sigma_max,
                            ratio_to_sup_profile=_quotient(emb.sigma_max, sup2)))
    return checks


def suite_compact(seq, measure, N, tol, store) -> list[dict]:
    checks = []
    profile = store.dn(measure, dnp_mod.WeightScheme("inverse_lambda", 1.0), len(seq), tol)
    half = profile.values[len(seq) // 2:]
    checks.append(check("monomial-test-decay", "dnp.compute_dn", "EVIDENCE",
                        first=half[0], last=half[-1], log_last=profile.log_values[-1]))
    sub = measures_mod.sublinear_norm(measure)
    prof = sub.vanishing_profile
    tail_ratio = prof[-1][1]
    head_ratio = max(r for _, r in prof)
    checks.append(check("vanishing-profile", "measures.sublinear_norm", "EVIDENCE",
                        smallest_eps_ratio=tail_ratio, max_ratio=head_ratio))
    cuts = [1.0 - 2.0 ** (-j) for j in range(1, 11)]
    sigma1 = hilbert.essential_norm_estimate(seq, measure, min(N, len(seq)), cuts)
    checks.append(check("restriction-spectrum-trend", "hilbert.essential_norm_estimate",
                        "EVIDENCE", sigma1=sigma1))
    pois = measures_mod.poisson_integral(measure)
    checks.append(check("order-boundedness-integral", "measures.poisson_integral",
                        "EVIDENCE", divergent=pois.divergent,
                        value=None if pois.divergent else pois.value.to_float()))
    return checks


def suite_hs(seq, measure, N, q, tol, store) -> list[dict]:
    # every square and ratio is the float of its log and every check is decided
    # on logs, so nothing overflows while its log is finite
    checks = []
    n = min(N, len(seq))
    hs_e = store.embedding(measure, n).schatten[2.0]
    hs_s = store.synthesis(measure, n).schatten[2.0]
    pois = measures_mod.poisson_integral(measure)
    kernel = {float(qv): hilbert.prop511_value(measure, qv) for qv in q}
    # a divergent Poisson integral is inf
    log_pois = math.inf if pois.divergent else -math.inf if pois.value.is_zero \
        else pois.value.log
    log_k2 = 2.0 * _log(kernel[2.0]) if 2.0 in kernel else None
    if not pois.divergent and log_k2 is not None:
        status, note = _decide(log_k2, log_pois, "=", 1e-9)
        checks.append(check("kernel-double-integral-matches-poisson", "hilbert.prop511_value",
                            status, kernel_sq=materialize(log_k2),
                            poisson=materialize(log_pois), **note))
    profile = store.dn(measure, dnp_mod.WeightScheme("inverse_lambda", 2.0), len(seq), tol)
    log_hs_sq, log_bound = 2.0 * _log(hs_s), logsumexp(2.0 * np.array(profile.log_values))
    status, note = _decide(log_hs_sq, log_bound, "<=", 1e-9)
    checks.append(check("synthesis-hs-below-profile-l2", "hilbert.t_mu_spectrum", status,
                        hs_squared=materialize(log_hs_sq), bound=materialize(log_bound), **note))
    ratios = {"embedding_over_synthesis": _quotient(hs_e, hs_s),
              "embedding_over_sqrt_poisson": _ratio(_log(hs_e), 0.5 * log_pois),
              "kernel2_sq_over_poisson": None if log_k2 is None else _ratio(log_k2, log_pois)}
    checks.append(check("hs-three-way", "hilbert.embedding_spectrum", "EVIDENCE",
                        hs_embedding=hs_e, hs_synthesis=hs_s,
                        poisson_divergent=pois.divergent,
                        poisson=None if pois.divergent else materialize(log_pois),
                        kernel={f"{qv:g}": v for qv, v in kernel.items()}, ratios=ratios,
                        note=("poisson integral divergent: truncated Hilbert-Schmidt norms "
                              "grow with the truncation instead of converging")
                        if pois.divergent else None))
    return checks


def _example(label, p, q, count, tol):
    """Construction ``label`` at p: the instance, its rows (n, lam_n, M_n(q) per q, and
    D_n(p) on B) and its checks, for ``suite_example`` and ``_cmd_example`` alike.

    Each claim on M_n(q) is decided at every reported n on L_n <= M_n <= U_n, M_n from
    the atoms and L_n, U_n from closed forms (``examples.log_monomial_bracket``).  A growth
    claim also takes M_n >= lam_n c_n x_n**(q lam_n), the atom at n alone, with
    n x_n**lam_n >= floor_n: M_n / log n >= floor_n**p (A, q = p) and M_n log n /
    n**(p - q) >= floor_n**q (B, q < p).  A's decay at q > p is a limit (U_3 > U_2 at
    every p), so its PASS attests the bracket.  The atom powers take their bracket
    [floor_n, 1]; B's D_n(p) (log n)**(1/p) is EVIDENCE, at its last safe index.
    """
    inst = examples_mod.build_example(label, p, count)
    ns = inst.n_range
    n, log_n = ns[-1], math.log(ns[-1])
    log_ns = np.log(np.array(ns, dtype=float))
    rows = [{"n": k, "lambda_n": lam} for k, lam in zip(ns, inst.seq)]
    prods, floors = examples_mod.atom_power_products(inst), examples_mod.atom_power_floors(inst)
    log_prods, log_floors = np.array([_log(v) for v in prods]), np.log(floors)
    status, note = _decide(np.concatenate([log_floors, log_prods]),
                           np.concatenate([log_prods, np.zeros(len(ns))]), "<=", 1e-9)
    checks = [check("atom-power-approaches-1-over-n", "examples.atom_power_products", status,
                    n=n, product=prods[-1], floor=floors[-1], **note)]
    for qv in q:
        log_m = examples_mod.log_monomial_tests(inst, qv)
        for row, v in zip(rows, log_m.tolist()):
            row[f"M_n(q={qv:g})"] = materialize(v)
        log_lower, log_upper = examples_mod.log_monomial_bracket(inst, qv)
        m = materialize(log_m[-1])
        if label == "A" and qv == p:
            log_lower = np.maximum(log_lower, p * log_floors + np.log(log_ns))
            name, value = "monomial-test-at-p-grows-like-log", {
                "ratio": m / log_n, "floor": floors[-1] ** p}
        elif label == "A" and qv > p:
            name, value = f"monomial-test-decays-at-q={qv:g}", {
                "value": m, "upper": materialize(log_upper[-1])}
        elif label == "B" and qv < p:
            log_lower = np.maximum(log_lower, qv * log_floors + (p - qv) * log_ns - np.log(log_ns))
            name, value = f"monomial-test-grows-at-q={qv:g}", {
                "scaled": m * log_n / n ** (p - qv), "floor": floors[-1] ** qv}
        else:
            continue
        status, note = _decide(np.concatenate([log_lower, log_m]),
                               np.concatenate([log_m, log_upper]), "<=", 1e-9)
        checks.append(check(name, "examples.log_monomial_bracket", status, n=n, **value, **note))
    if label == "B":
        profile = dnp_mod.compute_dn(inst.seq, inst.mu, dnp_mod.WeightScheme("inverse_lambda", p),
                                     n_count=len(ns), tol=tol)
        for row, v in zip(rows, profile.values):
            row["D_n(p)"] = v
        safe = [(k, d) for k, d, t in zip(ns, profile.values, profile.truncation) if t.safe]
        data = {"n": None, "scaled": None, "note": "no index has a safe tail"} if not safe else {
            "n": safe[-1][0], "scaled": safe[-1][1] * math.log(safe[-1][0]) ** (1.0 / p)}
        checks.append(check("diagonal-domination-decays-at-p", "dnp.compute_dn", "EVIDENCE",
                            **data))
    return inst, rows, checks


def suite_example(label, p, q, count, tol) -> list[dict]:
    return _example(label, p, q, count, tol)[2]


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
    "pairing-dichotomy": (suite_pairing, _reads("--seq", "--p")),  # g(shifted ratio)
    "envelope": (suite_envelope, _reads("--seq", "--alpha-list")),  # series vs (1-t)^-alpha
    # cross-term sum vs closed-form majorant, at fixed p values, r values and count
    "crossterm-bound": (functools.partial(suite_crossterm, (1.5, 2.0, 3.0, 5.0),
                                          (2.0, 4.0, 16.0), 30), _reads()),
    # singular values vs rearranged D profile (p = 2)
    "diagonal-domination": (suite_diagonal,
                            _reads("--seq", "--measure", "--N", "--seed", "--tol")),
    "blocksum-probe": (suite_blocksum, _reads("--seq", "--p")),  # block ratios vs ||J_Lambda||
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
    payload = {"command": "classify", "inputs": _recorded_inputs("classify", args),
               "classification": asdict(cls), "gap": seq.gap, "length": len(seq),
               "truncated": seq.truncated}
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
                     "monomial_test": materialize(_log(lam) + log_m)})
    _emit({"command": "moments", "inputs": _recorded_inputs("moments", args),
           "truncated": seq.truncated, "rows": rows},
          args, "moments", as_csv=args.format == "csv")
    return 0


def _cmd_dnp(args) -> int:
    seq = parse_sequence(args.seq)
    mu = parse_measure(args.measure)
    weight = dnp_mod.WeightScheme(args.weight, args.p)
    n_count = min(args.N, len(seq))
    profile = dnp_mod.compute_dn(seq, mu, weight, n_count=n_count, tol=args.tol)
    ob = dnp_mod.operator_bounds(profile, mu, seq)
    rows = [{"n": i, "lambda_n": seq[i], "D_n": profile.values[i],
             "cutoff_K": profile.truncation[i].cutoff,
             "tail_flag": "ok" if profile.truncation[i].safe else "unsafe"}
            for i in range(n_count)]
    payload = {"command": "dnp",
               "inputs": _recorded_inputs("dnp", args, n=n_count),
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
        try:
            q = [args.r ** k for k in range(args.count)]
        except OverflowError:
            raise UsageError(f"r**(count - 1) = {args.r:g}**{args.count - 1} is beyond the "
                             "float range") from None
        res = bounds_mod.lemma31_bound(args.p, args.alpha, q, args.r)
        formula, value = "crossterm", {"lhs": res.lhs, "rhs": res.rhs}
    else:  # envelope
        br = bounds_mod.envelope_check(parse_sequence(args.seq), args.alpha)
        value = {"ratio_min": br.ratio_min, "ratio_max": br.ratio_max,
                 "log_ratio_min": br.log_ratio_min, "log_ratio_max": br.log_ratio_max}
    _emit({"command": "bounds", "formula": formula, "inputs": _recorded_inputs("bounds", args),
           "value": value},
          args, "bounds")
    return 0


def _cmd_norm(args) -> int:
    seq = parse_sequence(args.seq)
    mu = parse_measure(args.measure)
    coeffs = _floats(Path(args.coeffs[5:]).read_text() if args.coeffs.startswith("file:")
                     else args.coeffs)
    value = materialize(lpnorm.log_lp_norms(seq, [coeffs], mu, args.p)[0])
    payload = {"command": "norm",
               "inputs": _recorded_inputs("norm", args, coefficients=coeffs),
               "value": value}
    if args.p == 2.0 and mu == measures_mod.DensityMeasure():
        payload["gram_value"] = float(lpnorm.l2_norm_gram(seq, [coeffs])[0])
    _emit(payload, args, "norm")
    return 0


def _cmd_probe(args) -> int:
    res = lpnorm.gm_ratio_sample(parse_sequence(args.seq), args.p, trials=args.trials,
                                 seed=args.seed)
    _emit({"command": "probe", "inputs": _recorded_inputs("probe", args),
           "min_ratio": res.min_ratio, "max_ratio": res.max_ratio, "trials": res.trials},
          args, "probe")
    return 0


def _cmd_spectrum(args) -> int:
    seq = parse_sequence(args.seq)
    n = min(args.N, len(seq))
    if args.operator == "frame":
        spec = hilbert.frame_bounds(seq, n)
    else:
        mu = parse_measure(args.measure)
        fn = hilbert.embedding_spectrum if args.operator == "embedding" \
            else hilbert.t_mu_spectrum
        spec = fn(seq, mu, n)
    payload = {"operator": spec.operator, "N": spec.n, "sigma": list(spec.singular_values),
               "schatten": {f"{r:g}": v for r, v in spec.schatten.items()},
               "drift": spec.drift}
    if args.operator == "synthesis":
        profile = dnp_mod.compute_dn(seq, mu, dnp_mod.WeightScheme("inverse_lambda", 2.0),
                                     n_count=n, tol=args.tol)
        # None where the chain is undecided past the float range
        payload["chain_ok"] = {"PASS": True, "FAIL": False}.get(_chain_check(spec, profile)[1])
    _emit({"command": "spectrum", "inputs": _recorded_inputs("spectrum", args), **payload},
          args, "spectrum")
    return 0


def _cmd_example(args) -> int:
    # with no --q, the q that verify's suite of this construction runs on
    q_list = _suite_inputs(f"ex-{args.label.lower()}", args)["q"]
    inst, rows, checks = _example(args.label, args.p, q_list, args.count, args.tol)
    _emit({"command": "example",
           "inputs": _recorded_inputs("example", args, q=list(q_list)),
           "rows": rows, "checks": checks, "truncated": inst.seq.truncated},
          args, f"example-{args.label}", as_csv=args.format == "csv")
    for c in checks:
        print(f"[{c['status']}] {c['name']}", file=sys.stderr)
    return 1 if any(c["status"] == "FAIL" for c in checks) else 0


def _recorded_inputs(cmd: str, args, **derived) -> dict:
    """The options a command read (``_COMMANDS``, the chosen branch of ``_BRANCHES``) but
    --out and --format, by dest name, with their values; ``derived`` adds or replaces some."""
    options = [o for o in _COMMAND_OPTIONS[cmd] if o not in ("--out", "--format")]
    if cmd in _BRANCHES:
        key, reads = _BRANCHES[cmd]
        options += reads[getattr(args, _dest(key))]
    return {**{_dest(o): getattr(args, _dest(o)) for o in options}, **derived}


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
               "summary": {s: sum(c["status"] == s for c in checks) for s in STATUSES}}
    _emit(payload, args, f"verify-{args.suite}")
    return 1 if payload["summary"]["FAIL"] else 0


def _cmd_report(args) -> int:
    if not args.out:
        raise UsageError("report needs --out DIRECTORY")
    inputs = _command_inputs(args, args.suites)
    index = []
    for suite in args.suites:
        checks = _run_suite(suite, args, inputs)
        payload = {"command": "verify", "suite": suite, "checks": checks}
        _emit(payload, args, f"verify-{suite}")
        index.append({"suite": suite, "fail": sum(c["status"] == "FAIL" for c in checks)})
    _emit({"command": "report", "suites": index}, args, "index")
    return 1 if any(entry["fail"] for entry in index) else 0


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
                      help="lebesgue | atoms:delta:mass,... | file:path.json, a description "
                           "of kind lebesgue, atoms, density or restrict, with only the fields "
                           "its kind reads; a density is uniform (params: scale) or "
                           "oneminus_power, scale * (1 - t)**alpha (params: scale, alpha); "
                           "lebesgue is the uniform density of scale 1"),
    "--p": dict(type=_finite, default=2.0),
    "--q": dict(type=_floats, default=()),
    "--N": dict(type=int, default=hilbert.DEFAULT_TRUNCATION),
    "--tol": dict(type=_finite, default=1e-12),
    "--seed": dict(type=int, default=0),
    "--eps": dict(type=_finite, default=0.5),
    "--count": dict(type=int, default=20),
    "--out": dict(default=None, help="directory for report files"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--decompose": dict(type=_finite, default=None,
                        help="also greedily split into r-lacunary parts"),
    "--weight": dict(choices=("inverse_lambda", "classical"), default="inverse_lambda"),
    "--formula": dict(required=True,
                      choices=("jlambda", "lemma31", "r_epsilon", "envelope")),
    "--r": dict(type=_finite, default=2.0),
    "--alpha": dict(type=_finite, default=1.0),
    "--coeffs": dict(default="1", help="c0,c1,... | file:path holding c0,c1,..."),
    "--trials": dict(type=int, default=100),
    "--operator": dict(choices=("embedding", "synthesis", "frame"), default="embedding"),
    "--label": dict(choices=("A", "B"), required=True),
    "--suite": dict(required=True, choices=SUITE_IDS),
    "--suites": dict(type=lambda s: s.split(","),
                     default=("basis", "pairing-dichotomy", "envelope",
                              "crossterm-bound", "diagonal-domination")),
    "--alpha-list": dict(type=_floats, default=(0.5, 1.0, 2.0)),
}

# name, help, handler and the options it reads on every branch (_BRANCHES adds the rest)
_COMMANDS = (
    ("classify", "prefix growth classification", _cmd_classify,
     ("--seq", "--decompose", "--out")),
    ("moments", "monomial moments against a measure", _cmd_moments,
     ("--seq", "--measure", "--p", "--out", "--format")),
    ("dnp", "diagonal-domination profile and bounds", _cmd_dnp,
     ("--seq", "--measure", "--p", "--N", "--tol", "--out", "--format", "--weight")),
    ("bounds", "closed-form constants and brackets", _cmd_bounds, ("--out", "--formula")),
    ("norm", "L^p(mu) norm of a coefficient vector", _cmd_norm,
     ("--seq", "--measure", "--p", "--out", "--coeffs")),
    ("probe", "ratio sampling", _cmd_probe, ("--seq", "--p", "--out", "--seed", "--trials")),
    ("spectrum", "truncated operator spectra (p=2)", _cmd_spectrum,
     ("--seq", "--N", "--out", "--operator")),
    ("example", "extremal constructions A and B", _cmd_example,
     ("--p", "--q", "--tol", "--count", "--out", "--format", "--label")),
    ("verify", "named verification suites", _cmd_verify, ("--out", "--suite")),
    ("report", "run a battery of suites into a directory", _cmd_report, ("--out", "--suites")),
)
_COMMAND_OPTIONS = {name: options for name, _, _, options in _COMMANDS}

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
                             "envelope": ("--seq", "--alpha")}),
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
            sp.add_argument(option, **_OPTIONS[option])
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
    except (ValueError, OSError) as exc:  # UsageError and a Gram that does not factor among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
