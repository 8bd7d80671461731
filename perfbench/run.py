#!/usr/bin/env python3
"""Run one dualentropy benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload roof --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run it from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results and spans go to ``perfbench/out/``; NOTES.md
describes the workloads and metrics.
"""

import os
import sys

# Single-threaded BLAS: within nproc, steadier on a shared host, and
# bit-reproducible for the determinism check. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("roof", "cli")
SETUP_REPEATS = 7
END_TO_END = ("items_per_s", "item_p50_ms", "item_tail_ms", "setup_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import dualentropy from this checkout's src/, never from elsewhere."""
    if not (SRC / "dualentropy" / "__init__.py").is_file():
        raise SystemExit(f"error: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dualentropy
    if Path(dualentropy.__file__).resolve().parent != SRC / "dualentropy":
        raise SystemExit(f"error: imported dualentropy from {dualentropy.__file__}")
    return dualentropy


def self_command(args, workload, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def time_setup(args, harness) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh process until its set-up is done.

    The child reports the system-wide monotonic clock when its import,
    input generation and file writing have finished, so neither process
    teardown nor the parent's wait polling enters the sample. Returns the
    raw samples and the samples scaled to nominal host speed by the
    reference run before and after each child.
    """
    raw, scaled = [], []
    before = harness.reference(harness.REF_MIN_NS)
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        done = subprocess.run(self_command(args, args.workload, "--setup-only"), cwd=ROOT,
                              check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        raw.append(float(done.stdout.split()[-1]) - t0)
        after = harness.reference(max(harness.REF_MIN_NS, harness.REF_SHARE * raw[-1] * 1e9))
        scaled.append(raw[-1] * harness.REF_NOMINAL_NS / ((before + after) / 2))
        before = after
    return raw, scaled


def emit(correct, attempted, failed, metrics) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}))


def print_table(title, metrics) -> None:
    print(title)
    for name, (value, unit, *rest) in metrics.items():
        extra = "  ".join(str(x) for x in rest if x != "")
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {extra}")


def print_layers(summary) -> None:
    print(f"  {'layer':<12} {'calls':>10} {'self_ms':>12} {'share':>7}")
    for layer, row in summary["layers"].items():
        print(f"  {layer:<12} {row['calls']:>10} {row['self_ms']:>12.1f} {row['share']:>7.1%}")
    print("  linalg kernels by calling span:")
    for row in summary["linalg_by_parent"]:
        print(f"    {row['kernel']:<16} <- {row['parent']:<34} {row['calls']:>8} calls "
              f"{row['ms']:>10.1f} ms")


def run_workload(args) -> int:
    de = import_library()
    import harness
    import workloads

    if args.setup_only:
        work = OUT / f"setup-{os.getpid()}"
        try:
            workloads.build(args.workload, args.seed, work)
            print(monotonic())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    setup_raw, setup = ([], []) if args.trace else time_setup(args, harness)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    first = {}

    def observe(i, item, rec, result):
        if not rec.ok:
            print(f"FAIL {args.workload} item {i} ({item.kind}): {rec.message}", file=sys.stderr)
        elif i == 0 and "digest" not in first:
            first["digest"] = item.digest(result)

    try:
        wl = workloads.build(args.workload, args.seed, work)
        if args.trace:
            import tracer as tracing
            tr = tracing.Tracer()
            records, traced = harness.traced_loop(wl.items, args.seconds / 2, tr, de, observe)
            metrics, summary = tracing.summarize(
                tr, sum(r.latency_ns for r in records), sum(r.latency_ns for r in traced))
            records += traced
        else:
            records = harness.closed_loop(wl.items, args.seconds, observe)
            metrics = harness.latency_metrics(records)

        # determinism: rebuild the inputs from the seed and rerun the first item
        again = workloads.build(args.workload, args.seed, work / "determinism")
        det, result = harness.run_item(again.items[0])
        if det.ok and again.items[0].digest(result) != first.get("digest"):
            det.message = "rerun of the first item is not bit-identical"
        if not det.ok:
            print(f"FAIL {args.workload} determinism: {det.message}", file=sys.stderr)
        det.kind = "determinism:" + det.kind
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records) + 1
    failed = sum(not r.ok for r in records) + (not det.ok)
    info = {"failed_frac": (failed / attempted, "frac", attempted, f"{failed} failed")}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup), "median")
        metrics["raw.setup_s"] = (statistics.median(setup_raw), "s", len(setup_raw), "median")
        metrics["peak_rss_mb"] = (harness.peak_rss_mb(), "MB", 1, "ru_maxrss")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_doc = {
        "provenance": harness.provenance(ROOT, SRC, wl, args.seed, sys.argv),
        "metrics": {k: list(v) for k, v in {**metrics, **info}.items()},
        "setup_samples_s": setup,
        "setup_raw_samples_s": setup_raw,
        "items": [{"kind": r.kind, "latency_ms": r.latency_ns / 1e6,
                   "host_ref_ms": r.host_ns and r.host_ns / 1e6, "ok": r.ok,
                   "message": r.message} for r in records + [det]],
    }
    if args.trace:
        result_doc["layers"] = summary
        tr.save(OUT / f"{stem}.spans.npz")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(result_doc, fh, indent=1)

    prov = result_doc["provenance"]
    title = (f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"(nproc {prov['nproc']}, python {prov['python']}, numpy {prov['numpy']}, "
             f"{prov['blas']['name']} {prov['blas']['version']}, "
             f"BLAS threads {prov['blas_threads'].get('OPENBLAS_NUM_THREADS')})")
    print_table(title, info if args.trace else {**metrics, **info})
    if args.trace:
        print_layers(summary)
        print_table("per-layer metrics", metrics)
    else:
        metrics = {k: metrics[k] for k in END_TO_END}
    emit(failed == 0, attempted, failed, metrics)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports stay separate."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(self_command(args, name), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        combined.update({f"{name}.{k}": (v["value"], v["unit"]) for k, v in res["metrics"].items()})
    emit(correct, attempted, failed, combined)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
