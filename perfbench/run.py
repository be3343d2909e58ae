"""Benchmark of muntzlab's `report` battery: one workload, one seed, one run.

    python3 perfbench/run.py --workload report-default --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  Batteries run in process through
`muntzlab.cli.run`, one after another (a closed loop with one client, no
worker threads), at least two, and more while the next still fits in
--seconds.  Every battery's output is validated; the first valid one is
compared with independent reference values (oracle.py).  The last line of
stdout is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced run with --trace 1.
BENCHMARK.json names the metrics; README.md defines them.
"""
from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the battery runs on one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SPAWNS = 7
SETUP_CODE = "import muntzlab.cli as cli; cli.build_parser()"
# Metrics that are legitimately 0 read as this floor instead, because a
# bound is a share of the parent's median.  checks_fail and op_fail_frac
# move off the floor with the first failure.  oracle_relerr below 1e-10 is
# rounding, not a wrong answer (the CLI's own check tolerances are 1e-9 and
# looser), so a change of summation order cannot register as a regression.
FLOORS = {"checks_fail": 1e-3, "op_fail_frac": 1e-6, "oracle_relerr": 1e-10}
# Reported times are rescaled to a fixed machine speed.  On the shared 2-vCPU
# VM this benchmark was built on, one battery's wall time swings by up to 2x
# in phases of seconds to minutes, in CPU time as much as in wall time.  A
# small fixed probe, timed every PROBE_INTERVAL_S during a battery, follows
# that swing; see SpeedProbe.  PROBE_REF_S is the probe's time on an
# uncontended core of that VM (Intel Xeon, 2.1 GHz), so rescaled times read
# as seconds there.
PROBE_INTERVAL_S = 0.04
PROBE_END_SAMPLES = 8
PROBE_REF_S = 3.0e-4
_PROBE_X = np.linspace(0.0, 1.0, 64)


@dataclass
class Battery:
    wall: float           # wall time, probe time included
    seconds: float        # time at reference speed (SpeedProbe.rescale)
    failure: str | None   # why the battery failed validation, None if it passed
    fails: int            # FAIL statuses in its checks
    outputs: dict | None  # parsed report files, without generated_unix


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_seconds() -> float:
    """Time of a fixed small mix of interpreter work and numpy calls, as in a battery."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += math.exp(-1e-4 * i)
    for _ in range(60):
        acc += float(np.dot(_PROBE_X, np.exp(-_PROBE_X)))
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the machine's speed while a timed block runs.

    The probe runs PROBE_END_SAMPLES times on entry and on exit and, with
    ``periodic``, every PROBE_INTERVAL_S of wall time from a SIGALRM
    handler, which Python runs in the main thread between bytecodes.
    ``rescale(wall)`` removes the time spent probing and weights the rest by
    the mean probe speed, so the block's time at reference speed comes out
    however the speed varied.
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.samples: list[float] = []
        self.overhead = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(probe_seconds())
        self.overhead += time.perf_counter() - start

    def __enter__(self):
        self.samples += [probe_seconds() for _ in range(PROBE_END_SAMPLES)]
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples += [probe_seconds() for _ in range(PROBE_END_SAMPLES)]

    def rescale(self, wall: float) -> float:
        speed = statistics.fmean(PROBE_REF_S / s for s in self.samples)
        return (wall - self.overhead) * speed


def setup_seconds() -> list[float]:
    """Rescaled times of fresh interpreters importing the CLI and building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_SPAWNS + 1):  # the first spawn may compile bytecode
        # no periodic probe: it would run beside the child, not inside its time
        with SpeedProbe(periodic=False) as probe:
            start = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - start
        if i:
            times.append(probe.rescale(wall))
    return times


def blas_threads() -> int | None:
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def read_outputs(workload, out_dir: Path) -> dict:
    """Parsed report files; raises ValueError when one is missing or wrong."""
    outputs = {}
    for suite in workload.suites + ("index",):
        name = "index.json" if suite == "index" else f"verify-{suite}.json"
        try:
            obj = json.loads((out_dir / name).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from exc
        obj.pop("generated_unix", None)
        outputs[suite] = obj
        if suite != "index":
            names = tuple(c["name"] for c in obj["checks"])
            if names != workload.check_names[suite]:
                raise ValueError(f"{name}: check names {names} differ from the recorded list")
    return outputs


def run_battery(cli, workload, argv, out_dir: Path, previous: dict | None) -> Battery:
    for old in out_dir.glob("*.json"):
        old.unlink()
    sink = io.StringIO()
    code, failure = None, None
    with SpeedProbe() as probe:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a library traceback is a failed battery, not a failed benchmark
            failure = "raised:\n" + traceback.format_exc()
        wall = time.perf_counter() - start
    outputs, fails = None, 0
    if failure is None and code not in (0, 1):
        failure = f"exit code {code}: {sink.getvalue()[-500:]}"
    if failure is None:
        try:
            outputs = read_outputs(workload, out_dir)
        except (ValueError, KeyError, TypeError) as exc:
            failure = f"invalid output: {exc}"
    if outputs is not None:
        if previous is not None and outputs != previous:
            failure = "output differs from the previous battery's"
        fails = sum(c["status"] == "FAIL" for s in workload.suites for c in outputs[s]["checks"])
    return Battery(wall, probe.rescale(wall), failure, fails,
                   outputs if failure is None else None)


def run_loop(cli, workload, argv, out_dir, seconds, min_count, batteries, tracer=None):
    """Append at least `min_count` batteries, then more while the next one,
    judged by the last one's time, still ends within `seconds`."""
    deadline = time.perf_counter() + seconds
    count = 0
    while count < min_count or time.perf_counter() + batteries[-1].wall <= deadline:
        previous = next((b.outputs for b in reversed(batteries) if b.outputs), None)
        if tracer is None:
            batteries.append(run_battery(cli, workload, argv, out_dir, previous))
        else:
            with tracer.battery_span(len(batteries)):
                batteries.append(run_battery(cli, workload, argv, out_dir, previous))
        count += 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(spec, workload, batteries, setup, peak_rss_mb) -> tuple[dict, list]:
    import oracle
    valid = [b for b in batteries if b.failure is None]
    items = []
    if valid:
        try:
            items = oracle.compare(workload, workload.atoms(),
                                   {s: valid[0].outputs[s] for s in workload.suites})
        except KeyError as exc:
            valid[0].failure = f"oracle: reported number missing: {exc}"
            valid = valid[1:]
    relerr = max((it.relerr for it in items), default=1.0)  # no answer: wrong by 100 %
    failed = sum(b.failure is not None for b in batteries)
    values = {
        "battery_s": statistics.median(b.seconds for b in batteries),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "checks_fail": statistics.median(b.fails for b in valid) if valid else 0.0,
        "op_fail_frac": failed / len(batteries),
        "oracle_relerr": min(relerr, 1e300),
    }
    metrics = {}
    for m in spec["end_to_end"]:
        v = float(values[m["name"]])
        metrics[m["name"]] = metric(max(v, FLOORS.get(m["name"], 0.0)), m["unit"])
    return metrics, items


def per_layer(spec, tracer, batteries, n_untraced: int) -> dict:
    """Per-layer metrics; batteries[n_untraced:] ran traced."""
    import tracing
    wanted = {}
    for m in spec["per_layer"]:
        span, _, stat = m["name"].rpartition(".")
        if span != "trace":
            wanted.setdefault(span, []).append(stat)
    stats = tracing.layer_stats(tracer, wanted)
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_frac":
            value = (statistics.median(b.seconds for b in batteries[n_untraced:])
                     / statistics.median(b.seconds for b in batteries[:n_untraced]) - 1.0)
        else:
            per_battery = stats[m["name"]]
            if m["unit"] == "s":  # rescaled by the battery's probe speed, as battery_s
                per_battery = {i: v * batteries[i].seconds / batteries[i].wall
                               for i, v in per_battery.items()}
            value = statistics.median(per_battery.values())
        metrics[m["name"]] = metric(value, m["unit"])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "muntzlab" / "cli.py").is_file():
        print(f"perfbench: no muntzlab source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup = setup_seconds() if not args.trace else []
    from muntzlab import cli
    out_dir = WORK_DIR / f"out-{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    argv_cli = workload.argv(args.seed, str(out_dir))
    batteries: list[Battery] = []
    try:
        if not args.trace:
            run_loop(cli, workload, argv_cli, out_dir, args.seconds, 2, batteries)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, items = end_to_end(spec, workload, batteries, setup, peak)
        else:
            import tracing
            run_loop(cli, workload, argv_cli, out_dir, args.seconds / 2, 1, batteries)
            n_untraced = len(batteries)
            tracer = tracing.Tracer()
            tracer.patch()
            try:
                run_loop(cli, workload, argv_cli, out_dir, args.seconds / 2, 1, batteries, tracer)
            finally:
                tracer.unpatch()
            tracer.save(WORK_DIR / f"spans-{workload.name}-seed{args.seed}.npz")
            metrics = per_layer(spec, tracer, batteries, n_untraced)
            items = []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = [b for b in batteries if b.failure is not None]
    for b in failed[:3]:
        print(f"perfbench: failed battery: {b.failure}", file=sys.stderr)
    worst = max(items, key=lambda it: it.relerr, default=None)
    print(f"perfbench: workload={workload.name} seed={args.seed} batteries={len(batteries)} "
          f"blas_threads={blas_threads()} "
          f"wall_s=[{', '.join(f'{b.wall:.4f}' for b in batteries)}] "
          f"rescaled_s=[{', '.join(f'{b.seconds:.4f}' for b in batteries)}]"
          + (f" worst_oracle_item={worst.label} reported={worst.reported!r} "
             f"reference={worst.reference!r} relerr={worst.relerr:.3e}" if worst else ""))
    print(json.dumps({"correct": not failed, "attempted": len(batteries),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
