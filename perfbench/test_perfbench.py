"""Tests of the benchmark harness: percentile rule, self time, generators, tracing."""

import time

import numpy as np
import pytest

import dualentropy as de
import harness
import tracer
import workloads


def test_tail_leaves_at_least_ten_samples_above():
    xs = list(range(1, 31))  # 30 samples, shuffled order must not matter
    value, pct = harness.tail(xs[::-1])
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)
    assert sum(x > value for x in xs) == 10
    assert harness.tail(range(1, 12)) == (1, pytest.approx(100 / 11))


def test_tail_with_too_few_samples_is_the_maximum():
    assert harness.tail([5.0, 1.0, 3.0]) == (5.0, 100.0)
    assert harness.tail(range(10)) == (9, 100.0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert tracer.self_time(start, end, parent).tolist() == [30, 20, 10, 40]
    assert tracer.self_time(start, end, parent).sum() == 100


def _inputs_equal(a, b):
    return len(a) == len(b) and all(
        x.kind == y.kind and all(np.array_equal(u, v) for u, v in zip(x.inputs, y.inputs))
        for x, y in zip(a, b))


def _state_files(items):
    return [open(arg).read() for item in items if item.kind.startswith("entropy")
            for arg in item.inputs if arg.endswith(".json") and "state-" in arg]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    work = str(tmp_path / "work")
    first = workloads.build(name, 5, work).items
    files = _state_files(first)
    again = workloads.build(name, 5, work).items
    assert _inputs_equal(first, again)
    assert files == _state_files(again)
    other = workloads.build(name, 6, str(tmp_path / "other")).items
    assert [i.kind for i in other] != [i.kind for i in first] or not _inputs_equal(first, other)


def test_cli_entropy_reference_matches_known_spectrum():
    rho = np.diag([0.5, 0.25, 0.25, 0.0])
    s, st, t2 = workloads._reference_entropies(rho)
    assert s == pytest.approx(1.5)
    assert st == pytest.approx(de.s_total(de.DensityMatrix(rho, (4,))))
    assert t2 == pytest.approx(de.t_total_q(de.DensityMatrix(rho, (4,)), 2.0))


def test_tracer_records_nested_spans_and_restores_bindings():
    rho = de.DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))
    original = (de.s_total, de.entropy.spectrum, np.linalg.eigvalsh)
    tr = tracer.Tracer()
    tr.install(de)
    try:
        assert de.s_total is not original[0] and de.entropy.spectrum is not original[1]
        tr.active = True
        value = de.s_total(rho)
        tr.active = False
        de.s_total(rho)  # inactive: no spans
    finally:
        tr.uninstall()
    assert (de.s_total, de.entropy.spectrum, np.linalg.eigvalsh) == original
    assert value == original[0](rho)
    name, parent, start, end = tr.arrays()
    names = [tr.names[i] for i in name]
    assert names[:2] == ["entropy.s_total", "states.spectrum"]
    assert "linalg.eigvalsh" in names and "entropy.total_classical" in names
    spectrum_at = names.index("states.spectrum")
    assert parent[names.index("linalg.eigvalsh")] == spectrum_at
    assert parent[0] == -1 and np.all(end >= start)
    assert len(names) == len(set(names)) + names.count("states.spectrum") - 1


def test_failures_are_recorded_without_aborting():
    def boom():
        raise RuntimeError("x")

    items = [workloads.Item("ok", (), lambda: 1, lambda r: None, str),
             workloads.Item("raises", (), boom, lambda r: None, str),
             workloads.Item("wrong", (), lambda: 2, lambda r: f"got {r}", str)]
    records = [harness.run_item(item)[0] for item in items]
    assert [r.ok for r in records] == [True, False, False]
    assert [r.raised for r in records] == [False, True, False]
    assert records[2].message == "got 2"


def test_closed_loop_wraps_around_until_the_time_budget_is_spent():
    items = [workloads.Item(k, (), lambda: time.sleep(0.002), lambda r: None, str)
             for k in "abc"]
    records = harness.closed_loop(items, seconds=0.02, min_items=0)
    timed = [r.latency_ns for r in records]
    assert [r.kind for r in records] == list("abc" * 4)[:len(records)]
    assert sum(timed) >= 0.02e9 > sum(timed[:-1])
    assert harness.closed_loop(items, seconds=0.0, min_items=0) == []


def test_closed_loop_runs_past_its_budget_until_min_items():
    items = [workloads.Item("a", (), lambda: time.sleep(0.002), lambda r: None, str)]
    # 10 ms pass after five 2 ms items; the sixth completes min_items
    assert len(harness.closed_loop(items, seconds=0.01, min_items=6)) == 6
    # the stretch cap wins over min_items: 2 x 5 ms holds at most five 2 ms items
    assert len(harness.closed_loop(items, seconds=0.005, min_items=100)) <= 5


def test_scaled_latency_divides_out_the_host_reference():
    rec = harness.Record("k", 3_000_000, False, host_ns=2 * harness.REF_NOMINAL_NS)
    assert rec.scaled_ns == 1_500_000
    rec.host_ns = harness.REF_NOMINAL_NS / 2
    assert rec.scaled_ns == 6_000_000


def test_reference_runs_for_at_least_its_budget():
    t0 = time.perf_counter_ns()
    per_rep = harness.reference(2_000_000)
    assert time.perf_counter_ns() - t0 >= 2_000_000
    assert 0 < per_rep <= time.perf_counter_ns() - t0


def test_closed_loop_brackets_each_item_with_the_reference():
    items = [workloads.Item("a", (), lambda: time.sleep(0.002), lambda r: None, str)]
    records = harness.closed_loop(items, seconds=0.006, min_items=0)
    assert all(r.host_ns > 0 for r in records)
    metrics = harness.latency_metrics(records)
    assert metrics["raw.items_per_s"][0] == pytest.approx(
        len(records) / sum(r.latency_ns / 1e9 for r in records))
    assert metrics["items_per_s"][0] == pytest.approx(
        len(records) / sum(r.scaled_ns / 1e9 for r in records))


def test_traced_loop_pairs_runs_and_traces_only_the_second():
    rho = de.DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
    items = [workloads.Item("s_total", (), lambda: de.s_total(rho), lambda r: None, str)]
    tr = tracer.Tracer()
    untraced, traced = harness.traced_loop(items, 1e-9, tr, de)
    assert len(untraced) == len(traced) == 1
    names = [tr.names[i] for i in tr.arrays()[0]]
    assert names[:2] == ["bench.item", "entropy.s_total"]
    assert not hasattr(de.s_total, "__wrapped__")
