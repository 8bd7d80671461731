"""Span tracing of the dualentropy layers from outside the package.

``Tracer.install`` wraps every public function of each ``dualentropy``
module in every module namespace that binds it, plus the state validators,
the Hamiltonian build and four ``numpy.linalg`` kernels. Each call made
while the tracer is active records one span (name, start, end, parent) in
flat in-memory arrays; ``save`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

LINALG = ("eigh", "eigvalsh", "svd", "qr")
# (module, class, attribute, span name)
METHODS = (
    ("states", "PureState", "__post_init__", "states.PureState"),
    ("states", "DensityMatrix", "__post_init__", "states.DensityMatrix"),
    ("dynamics", "SpinHamiltonian", "matrix", "dynamics.SpinHamiltonian.matrix"),
)
# The cli handlers are the cli layer's own parsing, formatting and writing,
# so only the entry point is wrapped and their time stays in its self time.
CLI_ENTRY = "main"
LAYERS = ("states", "entropy", "measures", "convexroof", "monogamy",
          "dynamics", "network", "cli", "linalg", "bench")
ITEM = "bench.item"
BEST_TOL = 1e-6

# Functions whose .calls and .self_ms are reported as per-layer metrics.
REPORTED = (
    "states.PureState", "states.DensityMatrix", "states.spectrum",
    "states.schmidt_spectrum", "states.reduced_state", "states.partial_trace",
    "states.load_state",
    "entropy.g", "entropy.shannon", "entropy.total_classical",
    "entropy.tsallis_total", "entropy.s_total", "entropy.von_neumann",
    "measures.e_t_pure", "measures.eof_pure", "measures.concurrence_two_qubit",
    "convexroof.convex_roof", "convexroof.hjw_ensemble",
    "convexroof.average_measure",
    "monogamy.residual_tangle", "monogamy.pairwise_marginal",
    "monogamy.scan_example3", "monogamy.scan_example6",
    "dynamics.SpinHamiltonian.matrix", "dynamics.entropy_trajectory",
    "network.polygon_check", "network.one_to_group",
    "network.party_marginal_spectrum",
    "cli.main",
    "linalg.eigh", "linalg.eigvalsh", "linalg.svd", "linalg.qr",
)


def _roof_hook(counts, result):
    values = result.restart_values
    best = min(values)
    counts["roof.iterations"] += result.iterations_used
    counts["roof.restarts"] += len(values)
    counts["roof.restarts_at_best"] += sum(v - best <= BEST_TOL for v in values)


def _trajectory_hook(counts, result):
    counts["dynamics.samples"] += len(result.times)


HOOKS = {"convexroof.convex_roof": _roof_hook,
         "dynamics.entropy_trajectory": _trajectory_hook}


def self_time(start, end, parent):
    """Per-span duration minus the time its direct children cover."""
    start, end, parent = (np.asarray(a, dtype=np.int64) for a in (start, end, parent))
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child.astype(np.int64)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.active = False
        self.counts: Counter = Counter()
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self.item_nid = self.name_id(ITEM)  # root span the harness opens per item

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, hook=None):
        """Record a span per call of ``fn`` while active (``begin`` inlined for speed)."""
        nid = self.name_id(name)
        name_add, parent_add, start_add, end_add = (
            self.name.append, self.parent.append, self.start.append, self.end.append)
        end, stack = self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(end)
            name_add(nid)
            parent_add(stack[-1])
            end_add(0)
            stack.append(idx)
            start_add(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self.counts, out)
            return out

        return traced

    def install(self, package) -> None:
        """Apply the wrappers; the patch list is built on the first call."""
        if not self._patches:
            self._patches = self._plan(package)
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self, package) -> list:
        prefix = package.__name__ + "."
        mods = [m for n, m in sys.modules.items()
                if n == package.__name__ or n.startswith(prefix)]
        patches = []
        for mod in mods:
            if mod is package:
                continue
            layer = mod.__name__[len(prefix):]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer == "cli" and attr != CLI_ENTRY)):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, HOOKS.get(name))
                patches += [(owner, bound, fn, traced)  # every namespace binding fn
                            for owner in mods for bound, value in vars(owner).items()
                            if value is fn]
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[prefix + layer], cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original, self.wrap(name, original)))
        for kernel in LINALG:
            original = getattr(np.linalg, kernel)
            patches.append((np.linalg, kernel, original, self.wrap(f"linalg.{kernel}", original)))
        return patches

    def arrays(self):
        return tuple(np.frombuffer(a, dtype=np.int64)
                     for a in (self.name, self.parent, self.start, self.end))

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def summarize(tracer: Tracer, untraced_ns: int, traced_ns: int):
    """Per-layer metrics {name: (value, unit)} and the report tables."""
    name, parent, start, end = tracer.arrays()
    k = len(tracer.names)
    dur = end - start
    selft = self_time(start, end, parent)
    calls = np.bincount(name, minlength=k)
    self_ns = np.bincount(name, weights=selft, minlength=k)
    incl_ns = np.bincount(name, weights=dur, minlength=k)
    ids = tracer._ids

    def of(arr, fn):
        return float(arr[ids[fn]]) if fn in ids else 0.0

    m = {}
    for fn in REPORTED:
        m[f"{fn}.calls"] = (int(of(calls, fn)), "count")
        m[f"{fn}.self_ms"] = (of(self_ns, fn) / 1e6, "ms")

    evals = int(of(calls, "convexroof.hjw_ensemble"))
    eval_ns = of(incl_ns, "convexroof.hjw_ensemble") + of(incl_ns, "convexroof.average_measure")
    c = tracer.counts
    m["convexroof.evaluations"] = (evals, "count")
    m["convexroof.iterations"] = (int(c["roof.iterations"]), "count")
    m["convexroof.eval_us"] = (eval_ns / evals / 1e3 if evals else 0.0, "us")
    m["convexroof.restarts_at_best_frac"] = (
        c["roof.restarts_at_best"] / c["roof.restarts"] if c["roof.restarts"] else 0.0, "frac")

    samples = int(c["dynamics.samples"])
    traj_ns = of(incl_ns, "dynamics.entropy_trajectory")
    if samples:
        is_traj = name == ids["dynamics.entropy_trajectory"]
        excluded = np.isin(name, [ids.get("dynamics.SpinHamiltonian.matrix", -1),
                                  ids.get("linalg.eigh", -1)])
        in_traj = excluded & (parent >= 0)
        in_traj[in_traj] = is_traj[parent[in_traj]]
        traj_ns -= float(dur[in_traj].sum())
    m["dynamics.samples"] = (samples, "count")
    m["dynamics.sample_us"] = (traj_ns / samples / 1e3 if samples else 0.0, "us")

    m["cli.output_bytes"] = (int(c["cli.output_bytes"]), "bytes")
    m["bench.unattributed_ms"] = (of(self_ns, ITEM) / 1e6, "ms")
    m["bench.trace_overhead_frac"] = (traced_ns / untraced_ns - 1.0, "frac")

    item_ns = of(incl_ns, ITEM)
    layers = {layer: {"calls": 0, "self_ms": 0.0} for layer in LAYERS}
    for fn, i in ids.items():
        row = layers[fn.split(".", 1)[0]]
        row["calls"] += int(calls[i]) if fn != ITEM else 0
        row["self_ms"] += float(self_ns[i]) / 1e6
    for layer, row in layers.items():
        row["share"] = row["self_ms"] * 1e6 / item_ns if item_ns else 0.0
        m[f"{layer}.self_share"] = (row["share"], "frac")

    # linalg kernels attributed to the span that called them
    by_parent = Counter()
    by_parent_calls = Counter()
    for kernel in LINALG:
        kid = ids.get(f"linalg.{kernel}")
        if kid is None:
            continue
        sel = (name == kid) & (parent >= 0)
        for pid, ns in zip(name[parent[sel]], dur[sel]):
            key = (f"linalg.{kernel}", tracer.names[pid])
            by_parent[key] += int(ns)
            by_parent_calls[key] += 1
    linalg_parents = [{"kernel": k, "parent": p, "calls": by_parent_calls[(k, p)],
                       "ms": ns / 1e6} for (k, p), ns in by_parent.most_common()]
    return m, {"layers": layers, "linalg_by_parent": linalg_parents}
