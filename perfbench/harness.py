"""Closed-loop timing, host-speed scaling, the latency percentile rule and provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np

TAIL_BEYOND = 10
# A run goes on past its time budget until MIN_ITEMS items have completed,
# so the tail rule reaches at least p72, but never past MAX_STRETCH times it.
MIN_ITEMS = 36
MAX_STRETCH = 2.0
# The host-speed reference (see NOTES.md): the time one ``_reference_once``
# takes on the reference host in a quiet phase, and the share of each
# item's latency spent re-measuring it after the item.
REF_NOMINAL_NS = 400_000
REF_SHARE = 0.05
REF_MIN_NS = 1_000_000
_REF_A = np.random.default_rng(0).standard_normal((4, 4)) * (1 + 1j)
_REF_H = _REF_A @ _REF_A.conj().T


@dataclass
class Record:
    kind: str
    latency_ns: int
    raised: bool
    message: str | None = None  # None when the item passed its check
    host_ns: float | None = None  # reference time around the item

    @property
    def ok(self) -> bool:
        return self.message is None

    @property
    def scaled_ns(self) -> float:
        """Latency at nominal host speed: scaled by the reference measured around it."""
        return self.latency_ns * REF_NOMINAL_NS / self.host_ns


def _reference_once() -> None:
    """Small-matrix LAPACK calls through numpy, the items' most common work."""
    for _ in range(25):
        np.linalg.eigvalsh(_REF_H)
        np.linalg.svd(_REF_A, compute_uv=False)


def reference(budget_ns: float) -> float:
    """Mean ns per ``_reference_once``, repeated until ``budget_ns`` have passed."""
    reps, t0 = 0, perf_counter_ns()
    while True:
        _reference_once()
        reps += 1
        elapsed = perf_counter_ns() - t0
        if elapsed >= budget_ns:
            return elapsed / reps


def tail(latencies, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ``beyond`` samples above it.

    By nearest rank the k-th smallest of n samples has n - k samples above
    it, so the answer is the (n - beyond)-th smallest, at percentile
    100 (n - beyond) / n. With ``beyond`` samples or fewer no percentile
    qualifies and the maximum is returned at percentile 100.
    """
    xs = sorted(latencies)
    k = len(xs) - beyond
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def run_item(item, tracer=None) -> tuple[Record, object]:
    """Time one item; its check runs after the timed interval ends.

    An exception counts as a failure and never aborts the run. With a
    tracer, spans are recorded only inside the item, under one root span.
    """
    if item.out and os.path.exists(item.out):
        os.remove(item.out)  # a stale output must not pass the next check
    result, error, raised = None, None, False
    if tracer:
        tracer.active = True
        idx = tracer.begin(tracer.item_nid)
    t0 = perf_counter_ns()
    try:
        result = item.call()
    except Exception:  # the loop must survive any item failure
        error, raised = traceback.format_exc(), True
    t1 = perf_counter_ns()
    if tracer:
        tracer.finish(idx)
        tracer.active = False
    if error is None:
        try:
            error = item.check(result)
        except Exception:
            error = "check raised: " + traceback.format_exc()
    return Record(item.kind, t1 - t0, raised, error), result


def closed_loop(items, seconds: float, on_result=None,
                min_items: int = MIN_ITEMS) -> list[Record]:
    """One client: each item starts after the previous one has finished.

    Walks ``items`` in order, wrapping around, until ``seconds`` of timed
    item time have passed and ``min_items`` items have completed, or
    ``MAX_STRETCH * seconds`` have passed; the item in flight completes.
    The host-speed reference runs before the first item and after each one, for
    ``REF_SHARE`` of the item's latency; an item's ``host_ns`` is the mean
    of the two references around it.
    """
    records, timed = [], 0
    before = reference(REF_MIN_NS)
    while timed < seconds * 1e9 or (len(records) < min_items
                                     and timed < MAX_STRETCH * seconds * 1e9):
        i = len(records)
        item = items[i % len(items)]
        rec, result = run_item(item)
        after = reference(max(REF_MIN_NS, REF_SHARE * rec.latency_ns))
        rec.host_ns, before = (before + after) / 2, after
        if on_result is not None:
            on_result(i, item, rec, result)
        records.append(rec)
        timed += rec.latency_ns
    return records


def traced_loop(items, seconds: float, tracer, package, on_result=None):
    """Like ``closed_loop``, but each item runs untraced and then traced.

    Running the pair back to back exposes both to the same host load, so
    their ratio measures the tracing overhead. The tracer is installed only
    around the traced run; ``seconds`` bounds the untraced item time.
    """
    untraced, traced, timed = [], [], 0
    while timed < seconds * 1e9:
        i = len(untraced)
        item = items[i % len(items)]
        for records, tr in ((untraced, None), (traced, tracer)):
            if tr:
                tr.install(package)
            try:
                rec, result = run_item(item, tr)
            finally:
                if tr:
                    tr.uninstall()
            if tr and item.out and os.path.exists(item.out):
                tr.counts["cli.output_bytes"] += os.path.getsize(item.out)
            if on_result is not None:
                on_result(i, item, rec, result)
            records.append(rec)
        timed += untraced[-1].latency_ns
    return untraced, traced


def latency_metrics(records) -> dict:
    """Throughput and latency as {name: (value, unit, samples, note)}.

    The named metrics use host-scaled latencies; the ``raw.`` ones the
    wall-clock latencies as measured, and ``host.ref_ms`` the reference.
    """
    done = sum(not r.raised for r in records)
    n = len(records)
    metrics = {}
    for prefix, lat_ms in (("", [r.scaled_ns / 1e6 for r in records]),
                           ("raw.", [r.latency_ns / 1e6 for r in records])):
        value, pct = tail(lat_ms)
        metrics.update({
            prefix + "items_per_s": (done / (sum(lat_ms) / 1e3), "1/s", n,
                                     "items completed / timed s"),
            prefix + "item_p50_ms": (statistics.median(lat_ms), "ms", n, "p50"),
            prefix + "item_tail_ms": (value, "ms", n, f"p{pct:.1f}"),
        })
    metrics["host.ref_ms"] = (statistics.median(r.host_ns for r in records) / 1e6, "ms", n,
                              f"nominal {REF_NOMINAL_NS / 1e6} ms")
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, src: Path, workload, seed: int, argv) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "argv": list(argv),
        "workload": workload.name,
        "seed": seed,
        "item_kinds": workload.config,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(src),
    }
