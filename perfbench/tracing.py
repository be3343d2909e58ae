"""Span tracing of muntzlab's public functions, for the per-layer metrics.

`Tracer.patch()` wraps every public function defined in a muntzlab module
and rebinds each name that refers to it in any muntzlab namespace: the
module attribute, the `from ... import` copies in other modules and the
package root, and so the recursive drift calls too.  `cli._run_suite` is
wrapped as `cli.suite_<suite id>`.  Each call records a span (name, start,
end, parent span, battery id) in flat arrays; nothing is written until
`save()`.
"""
from __future__ import annotations

import array
import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LIBRARY_MODULES = ("logdomain", "sequences", "measures", "dnp", "bounds", "lpnorm",
                   "hilbert", "examples")
# functions whose repeat_frac is reported: the share of calls whose argument
# values (not object identities: the CLI re-parses the measure per suite)
# were already seen earlier in the same battery
REPEAT_KEYED = ("measures.moment", "dnp.compute_dn", "hilbert.t_mu_spectrum")
# work counts (log_sum.terms, measure_nodes.nodes), read off one call
WORK = {
    "logdomain.log_sum": lambda args, kwargs, result: len(args[0]),
    "measures.measure_nodes": lambda args, kwargs, result: len(result[0]),
}
ROOT = "cli.other"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("q")
        self.parent = array.array("q")
        self.battery = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.work = array.array("q")
        self.keys: dict[int, list[tuple[int, tuple]]] = {}
        self._stack = [-1]
        self._battery = -1
        self._fingerprints: dict[int, tuple[object, str]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.battery.append(self._battery)
        self.end.append(0)
        self.work.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def battery_span(self, battery: int):
        """Root span of one battery; its self time is the CLI's own work."""
        self._battery = battery
        self._fingerprints.clear()
        i = self._open(self.name_id(ROOT))
        try:
            yield
        finally:
            self._close(i)
            self._fingerprints.clear()

    def _fingerprint(self, value) -> object:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (tuple, list)):
            return tuple(self._fingerprint(v) for v in value)
        hit = self._fingerprints.get(id(value))
        if hit is None or hit[0] is not value:
            # the object is held until the battery ends, so its id is not reused
            hit = (value, repr(value))
            self._fingerprints[id(value)] = hit
        return hit[1]

    def wrap(self, qualname: str, fn, name_of=None):
        """Traced stand-in for fn; name_of(args) overrides the span name."""
        nid = self.name_id(qualname)
        work = WORK.get(qualname)
        keyed = qualname in REPEAT_KEYED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(tracer.name_id(name_of(args, kwargs)) if name_of else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if work is not None:
                tracer.work[i] = work(args, kwargs, result)
            if keyed:
                key = (tracer._fingerprint(args), tracer._fingerprint(sorted(kwargs.items())))
                tracer.keys.setdefault(nid, []).append((tracer._battery, key))
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def targets(self):
        """(qualified name, function, span-name override) for everything wrapped."""
        cli = sys.modules["muntzlab.cli"]
        out = []
        for short in LIBRARY_MODULES:
            mod = sys.modules[f"muntzlab.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out.append((f"{short}.{attr}", obj, None))
        out.append(("cli._run_suite", cli._run_suite,
                    lambda args, kwargs: f"cli.suite_{args[0]}"))
        return out

    def patch(self) -> None:
        wrappers = {id(fn): (fn, self.wrap(q, fn, name_of)) for q, fn, name_of in self.targets()}
        for mod in muntzlab_modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def unpatch(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(getattr(self, k), dtype=np.int64).copy()
                for k in ("name", "parent", "battery", "start", "end", "work")}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def muntzlab_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "muntzlab" or k.startswith("muntzlab."))]


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children of one span never overlap (one thread), so the covered time is
    the sum of their durations.
    """
    dur = (end - start).astype(float)
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def outermost(name: np.ndarray, parent: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """For the spans at idx: True where no ancestor has the same name.

    A recursive call then counts once towards its function's total time.
    """
    out = np.ones(len(idx), dtype=bool)
    for pos, i in enumerate(idx):
        j = parent[i]
        while j >= 0:
            if name[j] == name[i]:
                out[pos] = False
                break
            j = parent[j]
    return out


def layer_stats(tracer: Tracer, wanted: dict[str, tuple[str, ...]]) -> dict[str, dict[int, float]]:
    """Per-battery `<span name>.<stat>` values for the span names in ``wanted``.

    Stats: calls, self_s, total_s (outermost spans only), repeat_frac and
    the work count named in WORK.  Spans never opened read 0.
    """
    a = tracer.arrays()
    name, parent, battery = a["name"], a["parent"], a["battery"]
    selft = self_times(parent, a["start"], a["end"]) * 1e-9
    dur = (a["end"] - a["start"]) * 1e-9
    batteries = sorted(set(battery.tolist()))
    out: dict[str, dict[int, float]] = {}
    for span, stats in wanted.items():
        nid = tracer._ids.get(span, -1)
        mask = name == nid
        top = mask.copy()
        if "total_s" in stats:
            idx = np.nonzero(mask)[0]
            top[idx] = outermost(name, parent, idx)
        keys = tracer.keys.get(nid, [])
        for stat in stats:
            per = {}
            for b in batteries:
                in_b = mask & (battery == b)
                if stat == "calls":
                    per[b] = float(in_b.sum())
                elif stat == "self_s":
                    per[b] = float(selft[in_b].sum())
                elif stat == "total_s":
                    per[b] = float(dur[top & (battery == b)].sum())
                elif stat == "repeat_frac":
                    seen = [k for bb, k in keys if bb == b]
                    per[b] = 1.0 - len(set(seen)) / len(seen) if seen else 0.0
                else:
                    per[b] = float(a["work"][in_b].sum())
            out[f"{span}.{stat}"] = per
    return out
