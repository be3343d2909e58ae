"""Fast checks of the benchmark's own machinery.

    python3 -m pytest -q perfbench/selftest_perfbench.py

The file name keeps it out of the repository's default test collection:
these tests pin the benchmark, not muntzlab.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, draw_atoms  # noqa: E402

import muntzlab  # noqa: E402
from muntzlab import cli, dnp, hilbert, measures, sequences  # noqa: E402


def _tracer_with(spans):
    """Tracer holding (name, parent, start, end) spans in one battery."""
    tracer = tracing.Tracer()
    for name, parent, start, end in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.battery.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.work.append(0)
    return tracer


class TestSelfTime:
    # A[0,100] -> B[10,50] -> B[20,30] (recursive);  A -> C[60,90] -> D[70,75]
    SPANS = [("A", -1, 0, 100), ("B", 0, 10, 50), ("B", 1, 20, 30),
             ("C", 0, 60, 90), ("D", 3, 70, 75)]

    def test_self_time_subtracts_children(self):
        a = _tracer_with(self.SPANS).arrays()
        st = tracing.self_times(a["parent"], a["start"], a["end"])
        assert st.tolist() == [30.0, 30.0, 10.0, 25.0, 5.0]
        assert st.sum() == 100.0  # self times partition the root

    def test_recursion_counted_once_in_total(self):
        tracer = _tracer_with(self.SPANS)
        stats = tracing.layer_stats(tracer, {"B": ("calls", "self_s", "total_s"),
                                             "A": ("self_s",), "E": ("calls",)})
        assert stats["B.calls"] == {0: 2.0}
        assert stats["B.self_s"][0] == pytest.approx(40e-9)
        assert stats["B.total_s"][0] == pytest.approx(40e-9)
        assert stats["A.self_s"][0] == pytest.approx(30e-9)
        assert stats["E.calls"] == {0: 0.0}

    def test_wrapped_recursion_records_parents(self):
        tracer = tracing.Tracer()

        def fact(n):
            return 1 if n == 0 else n * traced(n - 1)

        traced = tracer.wrap("m.fact", fact)
        with tracer.battery_span(0):
            assert traced(3) == 6
        a = tracer.arrays()
        assert [tracer.names[i] for i in a["name"]] == [tracing.ROOT] + ["m.fact"] * 4
        assert a["parent"].tolist() == [-1, 0, 1, 2, 3]
        st = tracing.self_times(a["parent"], a["start"], a["end"])
        assert st.sum() == pytest.approx(a["end"][0] - a["start"][0])
        assert (st >= 0).all()


class TestPatching:
    def test_no_unwrapped_reference_left(self):
        tracer = tracing.Tracer()
        originals = {id(fn): fn for _, fn, _ in tracer.targets()}
        assert len(originals) > 40
        tracer.patch()
        try:
            for mod in tracing.muntzlab_modules():
                for attr, obj in vars(mod).items():
                    assert originals.get(id(obj)) is not obj, f"{mod.__name__}.{attr}"
            # the copies made by `from ... import` are wrapped too
            assert hilbert.moment is measures.moment
            assert muntzlab.compute_dn is dnp.compute_dn
            assert hasattr(dnp.compute_dn, "__perfbench_original__")
        finally:
            tracer.unpatch()
        assert all(not hasattr(getattr(m, a), "__perfbench_original__")
                   for m in tracing.muntzlab_modules() for a, o in vars(m).items()
                   if callable(o))

    def test_drift_recursion_and_call_time_imports_traced(self):
        tracer = tracing.Tracer()
        tracer.patch()
        try:
            with tracer.battery_span(0):
                hilbert.t_mu_spectrum(sequences.generate_geometric(1.0, 2.0, 6),
                                      measures.Lebesgue(), 4)
        finally:
            tracer.unpatch()
        stats = tracing.layer_stats(tracer, {"hilbert.t_mu_spectrum": ("calls", "repeat_frac"),
                                             "dnp.compute_dn": ("calls", "repeat_frac")})
        assert stats["hilbert.t_mu_spectrum.calls"] == {0: 2.0}  # N and the N/2 drift
        assert stats["dnp.compute_dn.calls"] == {0: 2.0}
        assert stats["dnp.compute_dn.repeat_frac"] == {0: 0.0}

    def test_repeat_keys_on_values_not_identity(self):
        tracer = tracing.Tracer()
        tracer.patch()
        try:
            with tracer.battery_span(0):
                for _ in range(4):  # a fresh but equal measure object each time
                    measures.moment(measures.atoms([(0.5, 1.0), (0.25, 2.0)]), 3.0)
                measures.moment(measures.atoms([(0.5, 1.0)]), 3.0)
        finally:
            tracer.unpatch()
        stats = tracing.layer_stats(tracer, {"measures.moment": ("repeat_frac",)})
        assert stats["measures.moment.repeat_frac"][0] == pytest.approx(3 / 5)


class TestOracle:
    def test_matches_library_dn_at_p2(self):
        seq = sequences.generate_geometric(1.0, 2.0, 60)
        lib = dnp.compute_dn(seq, measures.Lebesgue(), dnp.WeightScheme("inverse_lambda", 2.0))
        ref = oracle.Reference(list(seq.exponents), None).dn(2, 60)
        worst = max(abs(a - b) / b for a, b in zip(lib.values, ref))
        assert worst < 1e-14

    def test_matches_library_on_atoms(self):
        atoms = draw_atoms(0)[:20]
        mu = measures.atoms(atoms)
        seq = sequences.generate_geometric(1.0, 2.0, 12)
        ref = oracle.Reference(list(seq.exponents), atoms)
        for a in (0.0, 1.0, 3.0, 1e6, 1e11):
            assert measures.moment(mu, a).to_float() == pytest.approx(float(ref.moment(a)),
                                                                      rel=1e-13)
        lib = dnp.compute_dn(seq, mu, dnp.WeightScheme("inverse_lambda", 2.0))
        assert lib.values == pytest.approx(ref.dn(2, 12), rel=1e-11)
        assert measures.poisson_integral(mu).value.to_float() == pytest.approx(ref.poisson(),
                                                                               rel=1e-13)

    def test_frame_bounds(self):
        seq = sequences.generate_geometric(1.0, 2.0, 8)
        fb = hilbert.frame_bounds(seq, 8)
        lo, hi = oracle.Reference(list(seq.exponents), None).frame_sigma(8)
        assert (fb.sigma_min, fb.sigma_max) == pytest.approx((lo, hi), rel=1e-11)

    def test_lebesgue_dn_multiple_sum(self):
        # p = 3, two exponents, by hand: D_0^3 = sum_{k,l} (l0 lk ll)^(1/3) / (l0+lk+ll+1)
        lams = [1.0, 8.0]
        by_hand = sum((lams[0] * a * b) ** (1 / 3) / (lams[0] + a + b + 1)
                      for a in lams for b in lams) ** (1 / 3)
        assert oracle.Reference(lams, None).dn(3, 1)[0] == pytest.approx(by_hand, rel=1e-15)


class TestWorkloads:
    def test_deterministic_per_seed(self):
        for w in WORKLOADS.values():
            assert w.argv(3, "out") == w.argv(3, "out")
            assert w.argv(3, "out") != w.argv(4, "out")
        assert draw_atoms(5) == draw_atoms(5)
        assert draw_atoms(5) != draw_atoms(6)

    def test_atom_spec_round_trips(self):
        argv = WORKLOADS["report-atoms64"].argv(0, "out")
        mu = cli.parse_measure(argv[argv.index("--measure") + 1])
        want = sorted(draw_atoms(0), key=lambda a: -a[0])
        assert [(a.delta, a.mass) for a in mu.atoms] == want

    def test_default_workload_uses_cli_defaults(self):
        args = cli.build_parser().parse_args(WORKLOADS["report-default"].argv(0, "out"))
        w = WORKLOADS["report-default"]
        assert (args.seq, args.N, args.p, tuple(args.suites)) == (
            "geometric:1,2,16", w.n, w.p, w.suites)


class _FakeCli:
    """Stands in for muntzlab.cli: writes the report files, or fails."""

    def __init__(self, workload, out_dir, mode="ok"):
        self.workload, self.out_dir, self.mode = workload, out_dir, mode
        self.calls = 0

    def run(self, argv):
        self.calls += 1
        if self.mode == "raise":
            raise ZeroDivisionError("float division by zero")
        if self.mode == "usage":
            return 2
        for suite, names in self.workload.check_names.items():
            checks = [{"name": n, "status": "FAIL" if n == names[0] else "PASS", "data": {}}
                      for n in names]
            if self.mode == "drift" and self.calls > 1:
                checks[0]["data"] = {"x": self.calls}
            (self.out_dir / f"verify-{suite}.json").write_text(json.dumps(
                {"generated_unix": float(self.calls), "checks": checks}))
        (self.out_dir / "index.json").write_text(json.dumps({"generated_unix": 0.0}))
        return 1


class TestValidation:
    W = WORKLOADS["report-p3"]

    def _batteries(self, tmp_path, mode):
        fake = _FakeCli(self.W, tmp_path, mode)
        batteries = []
        run.run_loop(fake, self.W, [], tmp_path, 0.0, 3, batteries)
        return batteries

    def test_good_batteries_pass(self, tmp_path):
        bs = self._batteries(tmp_path, "ok")
        assert [b.failure for b in bs] == [None] * 3
        assert [b.fails for b in bs] == [2] * 3  # one FAIL per suite, timestamps ignored

    def test_traceback_is_a_failure_not_an_abort(self, tmp_path):
        bs = self._batteries(tmp_path, "raise")
        assert len(bs) == 3
        assert all(b.failure.startswith("raised") and "ZeroDivisionError" in b.failure
                   for b in bs)

    def test_usage_exit_is_a_failure(self, tmp_path):
        assert all(b.failure.startswith("exit code 2") for b in self._batteries(tmp_path, "usage"))

    def test_changed_output_is_a_failure(self, tmp_path):
        bs = self._batteries(tmp_path, "drift")
        assert bs[0].failure is None
        assert all(b.failure == "output differs from the previous battery's" for b in bs[1:])

    def test_missing_number_and_floors(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        empty = run.Battery(1.0, 0.01, None, 0, {s: {"checks": []} for s in self.W.suites})
        metrics, items = run.end_to_end(spec, self.W, [empty], [0.2], 40.0)
        assert empty.failure.startswith("oracle: reported number missing")
        assert items == [] and metrics["oracle_relerr"]["value"] == 1.0
        assert metrics["op_fail_frac"]["value"] == 1.0
        assert metrics["checks_fail"]["value"] == run.FLOORS["checks_fail"]
        assert all(m["value"] > 0 and math.isfinite(m["value"]) for m in metrics.values())


class TestSpeedProbe:
    def test_rescale_removes_probe_time_and_weights_by_speed(self):
        probe = run.SpeedProbe(periodic=False)
        probe.samples = [run.PROBE_REF_S, 2 * run.PROBE_REF_S]  # full speed, then half
        probe.overhead = 0.5
        assert probe.rescale(4.5) == pytest.approx(4.0 * 0.75)

    def test_periodic_samples_and_restores_handler(self):
        import signal
        import time
        before = signal.getsignal(signal.SIGALRM)
        with run.SpeedProbe() as probe:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
        assert len(probe.samples) >= 4 and probe.overhead > 0.0
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
