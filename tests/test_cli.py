import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualentropy import (H5_COUPLINGS, H6_COUPLINGS, DensityMatrix, entropy_trajectory,
                         example5_report, heisenberg, norm_factor, one_to_group,
                         plus_state, random_density, random_fields, random_network,
                         random_pure, scan_example3, scan_example6, state_to_json)
from dualentropy import cli
from dualentropy.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_entropy_mixed6_s_total(capsys):
    code, _, err = run(capsys, "entropy", "--preset", "mixed:6",
                       "--entropy", "s_total")
    assert code == 0
    assert "s_total = 3.900135" in err


def test_entropy_bell_von_neumann(capsys):
    code, _, err = run(capsys, "entropy", "--preset", "bell",
                       "--entropy", "von_neumann", "s_total")
    assert code == 0
    assert "von_neumann = 1.000000" in err
    assert "s_total = 2.000000" in err


def test_entropy_q1_is_domain_error(capsys):
    code, _, err = run(capsys, "entropy", "--preset", "bell",
                       "--entropy", "tsallis", "-q", "1.0")
    assert code == 3
    assert "q must be" in err


def test_entropy_unknown_name_is_domain_error(capsys):
    code, _, err = run(capsys, "entropy", "--preset", "bell",
                       "--entropy", "bogus")
    assert code == 3


def test_entropy_bad_state_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "entropy", "--state", str(p))
    assert exc.value.code == 2


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "4", "--out", str(target)])
        assert exc.value.code == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_out_files_get_the_mode_open_gives_them(tmp_path, capsys, umask):
    target, plain = tmp_path / "r4.csv", tmp_path / "plain.csv"
    old = os.umask(umask)
    try:
        plain.write_text("")
        assert main(["reproduce", "4", "--out", str(target)]) == 0
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        target.chmod(0o600)
        assert main(["reproduce", "4", "--out", str(target)]) == 0  # replaces the file
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    finally:
        os.umask(old)


def test_out_writes_without_touching_the_process_umask(tmp_path, capsys, monkeypatch):
    # setting the umask, even to read it, changes it for every thread of the process
    def refuse(mask):
        raise AssertionError("os.umask called")

    target = tmp_path / "r4.csv"
    monkeypatch.setattr(os, "umask", refuse)
    assert main(["reproduce", "4", "--out", str(target)]) == 0
    code, out, _ = run(capsys, "reproduce", "4")
    with open(target, newline="") as fh:
        written = fh.read()
    # the same table; only the "# command:" line differs, by the --out argument
    assert code == 0 and written.splitlines()[1:] == out.splitlines()[1:]
    assert list(tmp_path.iterdir()) == [target]


def test_entropy_state_file_with_nan_is_bad_state(tmp_path, capsys):
    p = tmp_path / "nan.json"
    p.write_text('{"dims": [2], "re": [NaN, 0.0], "im": [0.0, 0.0]}')
    with pytest.raises(SystemExit) as exc:
        run(capsys, "entropy", "--state", str(p))
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["entropy", "roof"])
@pytest.mark.parametrize("size", [4, 16], ids=["pure", "density"])
@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_state_file_with_a_non_finite_entry_is_bad_state(tmp_path, capsys, command, size,
                                                         part, literal):
    entries = {"re": ["0.5"] * size, "im": ["0"] * size}
    entries[part][1] = literal
    p = tmp_path / "bad.json"
    p.write_text('{"dims": [2, 2], "re": [%s], "im": [%s]}'
                 % (", ".join(entries["re"]), ", ".join(entries["im"])))
    with pytest.raises(SystemExit) as exc:
        main([command, "--state", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "non-finite" in err
    assert "Warning" not in err


def test_entropy_state_file_whose_dims_product_overflows_int64(tmp_path, capsys):
    # 4611686018427387905 * 4 wraps to 4 in int64
    p = tmp_path / "huge.json"
    p.write_text('{"dims": [4611686018427387905, 4], "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}')
    with pytest.raises(SystemExit) as exc:
        run(capsys, "entropy", "--state", str(p))
    assert exc.value.code == 2


@pytest.mark.parametrize("payload", [
    '[1, 2]', '"x"', 'null',
    '{"dims": 5, "re": [1, 0, 0, 0, 0], "im": [0, 0, 0, 0, 0]}',
    '{"dims": [2, "2"], "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}',
    '{"dims": [2.5], "re": [1, 0], "im": [0, 0]}',
    '{"dims": [true, 2], "re": [1, 0], "im": [0, 0]}',
    '{"dims": [2], "re": "10", "im": [0, 0]}',
    '{"dims": [2], "re": [[1, 0]], "im": [[0, 0]]}',
    '{"dims": [2], "re": [1, null], "im": [0, 0]}',
    '{"dims": [2], "re": [1, 0], "im": [0]}',
    '{"dims": [2], "re": [1, 0]}',
    pytest.param('{"dims": [2], "re": [1%s, 0], "im": [0, 0]}' % ("0" * 400),
                 id="int-beyond-float-range"),
])
def test_entropy_malformed_state_file_is_bad_state(tmp_path, capsys, payload):
    p = tmp_path / "malformed.json"
    p.write_text(payload)
    with pytest.raises(SystemExit) as exc:
        run(capsys, "entropy", "--state", str(p))
    assert exc.value.code == 2
    assert "cannot load state file" in capsys.readouterr().err


def test_entropy_json_stdout_parses(capsys):
    code, out, err = run(capsys, "entropy", "--preset", "mixed:6",
                         "--entropy", "von_neumann", "s_total", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [name for name, _ in payload["rows"]] == ["von_neumann", "s_total"]
    assert "s_total = 3.900135" in err


def test_metadata_records_the_argv_given_to_main(capsys):
    argv = ["entropy", "--preset", "bell", "--entropy", "s_total", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["metadata"]["command"] == "dualentropy " + " ".join(argv)


def test_metadata_records_the_numpy_version(capsys):
    code, out, _ = run(capsys, "entropy", "--preset", "bell", "--format", "json")
    assert code == 0
    assert json.loads(out)["metadata"]["numpy"] == np.__version__


def test_entropy_state_file_and_json_output(tmp_path, capsys):
    sp = tmp_path / "state.json"
    sp.write_text(json.dumps(state_to_json(random_pure((2, 3), 0))))
    out_path = tmp_path / "table.json"
    code, out, _ = run(capsys, "entropy", "--state", str(sp),
                       "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["columns"] == ["entropy", "value"]
    meta = payload["metadata"]
    assert "command" in meta and "version" in meta
    # entropy takes neither a seed nor a norm policy, so it records neither
    assert "seed" not in meta and "norm" not in meta


def test_network_metadata_records_seed_and_norm(capsys):
    code, out, _ = run(capsys, "network", "--parties", "4", "--seed", "5",
                       "--normalized", "--norm", "explicit:7", "--format", "json")
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["seed"] == 5 and meta["norm"] == "explicit:7"


def test_network_norm_alone_applies_the_policy(capsys):
    # argparse reads --norm as an abbreviation of --normalized
    net = random_network(4, 0.8, seed=5)
    for flags in (("--norm", "explicit:7"), ("--normalized", "explicit:7"),
                  ("--normalized", "--norm", "explicit:7")):
        code, out, _ = run(capsys, "network", "--parties", "4", "--seed", "5", *flags,
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["norm"] == "explicit:7" and doc["metadata"]["normalized"]
        for party, value, _ in doc["rows"]:
            assert value == one_to_group(net, party) / norm_factor(7)


@pytest.mark.parametrize("argv", [
    ("entropy", "--seed", "1"), ("entropy", "--norm", "a"), ("reproduce", "1", "--norm", "a"),
    ("scan", "example3", "--seed", "1"), ("scan", "example3", "--norm", "a"),
    ("roof", "--state", "x.json", "--norm", "a"), ("roof", "--state", "x.json", "--preset", "bell"),
])
def test_options_no_command_reads_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reproduce_records_only_the_norm_it_fixes(capsys):
    for rid, norm in (("3", "explicit:4"), ("5", None)):
        code, out, _ = run(capsys, "reproduce", rid, "--format", "json")
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta.get("norm") == norm and "seed" not in meta


@pytest.mark.parametrize("argv, seed, norm", [
    (("reproduce", "1", "--seed", "99"), None, None),
    (("reproduce", "2", "--seed", "99"), 99, None),
    (("network", "--triangle-bell", "--seed", "5"), None, None),
    (("network", "--parties", "4", "--seed", "5"), 5, None),
    (("network", "--triangle-bell", "--normalized", "--norm", "explicit:9"),
     None, "explicit:9"),
    (("network", "--triangle-bell", "--seed", "5", "--norm", "explicit:9"), None, "explicit:9"),
    (("network", "--parties", "4", "--seed", "5", "--norm", "explicit:9"), 5, "explicit:9"),
])
def test_metadata_records_seed_and_norm_only_where_the_run_reads_them(capsys, argv,
                                                                      seed, norm):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta.get("seed") == seed and meta.get("norm") == norm
    assert ("seed" in meta) == (seed is not None) and ("norm" in meta) == (norm is not None)


def test_back_to_back_calls_share_no_parsed_state(capsys):
    code, out, _ = run(capsys, "reproduce", "1", "--grid", "3", "--format", "json")
    assert code == 0 and json.loads(out)["metadata"]["grid"] == 3
    code, out, _ = run(capsys, "reproduce", "1", "--format", "json")
    assert code == 0 and json.loads(out)["metadata"]["grid"] == 50
    code, out, _ = run(capsys, "entropy", "--entropy", "s_total", "--format", "json")
    assert code == 0 and [n for n, _ in json.loads(out)["rows"]] == ["s_total"]
    code, out, _ = run(capsys, "entropy", "--format", "json")
    assert code == 0 and [n for n, _ in json.loads(out)["rows"]] == ["von_neumann", "s_total"]


def _library_rows(rid):
    """The rows reproduce <rid> writes, rebuilt element by element from the
    library's arrays (seed 0)."""
    if rid == "2":
        rows = []
        for label, n, couplings in (("H5", 5, H5_COUPLINGS), ("H6", 6, H6_COUPLINGS)):
            ham = heisenberg(n, couplings, random_fields(n, 0))
            traj = entropy_trajectory(plus_state(n), ham, np.linspace(0.0, 100.0, 200))
            rows += [[label, float(t), cut, float(traj.entropies[ti, ci]),
                      float(traj.total_entropies[ti, ci])]
                     for ti, t in enumerate(traj.times)
                     for ci, cut in enumerate(traj.cut_labels)]
        return rows
    if rid == "3":
        e_t, eof = scan_example3("e_t", 1.0), scan_example3("eof", 1.0)
        return [[float(t), float(a), float(b)]
                for t, a, b in zip(e_t.axes["theta"], e_t.values, eof.values)]
    if rid in ("5", "6"):
        res = example5_report() if rid == "5" else scan_example6()
        cols = [*res.axes.values(), res.values]
        return [[float(c[i]) for c in cols] for i in range(len(res.values))]
    return None


@pytest.mark.parametrize("rid", ["1", "2", "3", "4", "5", "6"])
def test_reproduce_json_stdout_parses_and_matches_the_rows(capsys, rid):
    code, out, _ = run(capsys, "reproduce", rid, "--format", "json")
    assert code == 0
    assert "\n" not in out  # one compact line
    payload = json.loads(out)
    code, out_csv, _ = run(capsys, "reproduce", rid)
    assert code == 0
    lines = out_csv.splitlines(keepends=True)
    table = "".join(line for line in lines if not line.startswith("#"))
    data = list(csv.reader(io.StringIO(table)))
    assert [[str(v) for v in row] for row in payload["rows"]] == data[1:]
    want = _library_rows(rid)
    if want is not None:
        # the very text json.dumps and csv.writer give the library's rows
        assert out == json.dumps({**payload, "rows": want})
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(payload["columns"])
        w.writerows(want)
        assert table == buf.getvalue()


# floats the encoders spell out in full: signed zeros, NaN, infinities, subnormals
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-320,
                  2.2250738585072014e-308, 0.1, 1 / 3, -1e300, 1.0]
TEXT_PIECES = [", ", ",", '"', "'", "\n", "\r\n", "\\", "é", "√2", "日本", "x", " ", ""]


@st.composite
def tables(draw):
    """Columns of equal length: float arrays with many repeats, ints, strings, mixtures."""
    n = draw(st.integers(0, 12))
    cells = lambda s: st.lists(s, min_size=n, max_size=n)
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "str", "mixed"]),
                              min_size=1, max_size=5)):
        if kind == "float":
            pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                                 min_size=1, max_size=4))
            columns.append(np.array(draw(cells(st.sampled_from(pool))), dtype=float))
        elif kind == "int":
            columns.append(draw(cells(st.integers(-2 ** 70, 2 ** 70))))
        elif kind == "str":
            pieces = st.lists(st.sampled_from(TEXT_PIECES), max_size=4).map("".join)
            columns.append(draw(cells(pieces | st.text(max_size=4))))
        else:
            columns.append(draw(cells(st.sampled_from([1, 1.0, True, 0, -0.0, False, "a, b"]))))
    return [f"c{i}" for i in range(len(columns))], columns


@settings(max_examples=300)
@given(tables(), st.sampled_from(["json", "csv"]))
@example((["c0", "c1", "c2"], [np.array([]), [], []]), "json")  # zero rows
@example((["c0", "c1", "c2"], [np.array([]), [], []]), "csv")
@example((["c0"], [np.array([0.0, -0.0, math.nan, -0.0, math.inf, 0.0, -math.inf])]), "json")
@example((["c0"], [np.array([0.0, -0.0, math.nan, -0.0, math.inf, 0.0, -math.inf])]), "csv")
def test_table_writer_matches_json_dumps_and_csv_writer(table, fmt):
    header, columns = table
    meta = {"command": "dualentropy reproduce 1", "grid": 3}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_table(argparse.Namespace(format=fmt, out=None), header, columns, meta)
    rows = [list(row) for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                       for c in columns))]
    if fmt == "json":
        want = json.dumps({"metadata": meta, "columns": header, "rows": rows})
    else:
        buf = io.StringIO()
        buf.write("# command: dualentropy reproduce 1\n# grid: 3\n")
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        want = buf.getvalue()
    assert out.getvalue() == want


def test_reproduce_fig1_csv(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, out, _ = run(capsys, "reproduce", "fig1", "--grid", "10",
                       "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")]
    assert header[0] == "p1,p2,H,H_t"
    assert len(header) - 1 == 66  # triangular grid, 11*12/2 points
    assert any(l.startswith("# command:") for l in lines)


def test_reproduce_fig1_rows_in_simplex_order(capsys):
    code, out, _ = run(capsys, "reproduce", "1", "--grid", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r[:2] for r in rows] == [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
                                     [0.5, 0.0], [0.5, 0.5], [1.0, 0.0]]
    assert rows[1][2:] == [1.0, 2.0]  # (0, 1/2, 1/2): H = 1, H_t = 2 g(1/2)


def test_reproduce_dynamics(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    code, _, err = run(capsys, "reproduce", "2", "--out", str(out_path))
    assert code == 0
    assert "FAIL" not in err
    with open(out_path) as fh:
        rows = [r for r in csv.reader(l for l in fh if not l.startswith("#"))]
    assert rows[0] == ["hamiltonian", "time", "cut", "S", "S_t"]
    assert {r[0] for r in rows[1:]} == {"H5", "H6"}


def test_reproduce_example3(tmp_path, capsys):
    code, _, err = run(capsys, "reproduce", "3", "--out", str(tmp_path / "e3.csv"))
    assert code == 0
    assert "PASS" in err and "FAIL" not in err


def test_reproduce_example4(tmp_path, capsys):
    code, _, err = run(capsys, "reproduce", "4", "--out", str(tmp_path / "e4.csv"))
    assert code == 0
    assert "E_t(A|BC) = 1.000000" in err
    assert "0.951965" in err
    assert "crossover alpha = 15" in err
    assert "FAIL" not in err


def test_reproduce_example4_json_stdout_parses(capsys):
    code, out, err = run(capsys, "reproduce", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["quantity", "value"]
    assert dict(payload["rows"])["crossover"] == 15
    assert "PASS" in err


def test_reproduce_example5(tmp_path, capsys):
    code, _, err = run(capsys, "reproduce", "5", "--out", str(tmp_path / "e5.csv"))
    assert code == 0
    assert "FAIL" not in err


def test_reproduce_example6(tmp_path, capsys):
    code, _, err = run(capsys, "reproduce", "6", "--out", str(tmp_path / "e6.csv"))
    assert code == 0
    assert "positive residuals present: True; negative: True" in err


def test_reproduce_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "reproduce", "3", "--out", str(a))
    run(capsys, "reproduce", "3", "--out", str(b))
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("# command:")]
    assert strip(a) == strip(b)


def test_scan_example3(capsys):
    code, out, err = run(capsys, "scan", "example3", "--measure", "eof",
                       "--grid", "21")
    assert code == 0
    assert "tau range:" in err
    assert "# family: example3" in out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "theta,tau"
    assert len(lines) == 22


def test_scan_example3_rejects_extra_gammas(capsys):
    code, out, err = run(capsys, "scan", "example3", "--gamma", "1", "2", "3")
    assert code == 3
    assert "[2.0, 3.0]" in err
    assert out == ""


def test_scan_rejects_non_finite_gamma(capsys):
    for argv in (("scan", "example3", "--gamma", "nan"),
                 ("scan", "example6", "--gamma", "nan"),
                 ("scan", "example6", "--gamma", "1", "inf")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "gamma must be finite" in err


def test_scan_example6_q1_is_domain_error(capsys):
    code, out, err = run(capsys, "scan", "example6", "-q", "0.5", "1")
    assert code == 3
    assert out == ""
    assert "q must be positive and != 1, got [1.0]" in err


def test_scan_example6_above_the_row_bound_is_domain_error(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan_example6 called for a rejected table")

    monkeypatch.setattr(cli.monogamy, "scan_example6", no_scan)
    n_q = len(cli.monogamy.EXAMPLE6_QS)
    n_gamma = cli.MAX_SCAN_ROWS // (cli.MAX_GRID * n_q) + 1
    gammas = [str(g) for g in range(1, n_gamma + 1)]
    for q_args in ((), ("-q", *[str(1.5 + 0.1 * i) for i in range(n_q)])):
        code, out, err = run(capsys, "scan", "example6", "--grid", str(cli.MAX_GRID),
                             *q_args, "--gamma", *gammas)
        assert code == 3, q_args
        assert out == ""
        rows = cli.MAX_GRID * n_q * n_gamma
        assert f"would write {rows} rows" in err and f"more than {cli.MAX_SCAN_ROWS}" in err
    # the largest default table, one gamma on the default q grid, stays valid
    assert cli.MAX_GRID * n_q <= cli.MAX_SCAN_ROWS


def test_scan_example6_at_the_row_bound_runs(capsys, monkeypatch):
    argv = ("scan", "example6", "--grid", "3", "-q", "0.5", "2", "--gamma", "1", "2",
            "--format", "json")
    monkeypatch.setattr(cli, "MAX_SCAN_ROWS", 3 * 2 * 2)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 12
    monkeypatch.setattr(cli, "MAX_SCAN_ROWS", 3 * 2 * 2 - 1)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "would write 12 rows" in err


def test_network_rejects_edge_prob_outside_unit_interval(capsys):
    for p in ("nan", "5", "-1", "inf"):
        code, out, err = run(capsys, "network", "--edge-prob", p)
        assert code == 3, p
        assert out == ""
        assert "edge_prob must be in [0, 1]" in err


def test_network_rejects_a_normalization_dimension_below_two(capsys):
    # at edge prob 0 every party has dim 1, and no d is used
    for prob in ("0", "0.8"):
        for norm in ("explicit:1", "explicit:0"):
            code, out, err = run(capsys, "network", "--parties", "3", "--edge-prob", prob,
                                 "--normalized", norm)
            assert (code, out) == (3, ""), (prob, norm)
            assert "normalization dimension must be >= 2" in err


def test_network_with_forty_parties_runs(capsys):
    # party 0 of this network has 32 edges: at least 2^32 spectrum
    # entries, which the power-sum path never builds
    code, out, err = run(capsys, "network", "--parties", "40", "--edge-prob", "0.8",
                         "--seed", "1", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [party for party, _, _ in rows] == list(range(40))
    assert max(tau for _, _, tau in rows) <= 1e-9


def test_network_parties_above_the_bound_is_usage_error(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("network drawn for a rejected --parties")

    monkeypatch.setattr(cli.network, "random_network", no_draw)
    for extra in ((), ("--triangle-bell",)):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "network", "--parties", str(cli.MAX_PARTIES + 1), *extra)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"--parties must be at most {cli.MAX_PARTIES}, got {cli.MAX_PARTIES + 1}" in out.err
    assert cli.MAX_PARTIES >= 40


def test_entropy_rejects_oversized_presets(capsys):
    # both sizes fail before any allocation; plus:40 would need 2^40 amplitudes
    for preset in ("plus:40", "plus:0", "mixed:10000000", "mixed:0"):
        code, out, err = run(capsys, "entropy", "--preset", preset)
        assert code == 3, preset
        assert out == ""
        assert "needs 1 <=" in err


def test_network_triangle_bell(tmp_path, capsys):
    out_path = tmp_path / "net.csv"
    code, _, err = run(capsys, "network", "--triangle-bell", "--out", str(out_path))
    assert code == 0
    assert "tau = -3.245112" in err
    assert f"wrote {out_path}" in err
    text = out_path.read_text()
    assert "party,one_to_group,tau" in text
    assert "# normalized: False" in text


@pytest.mark.parametrize("norm", ["min", "b", "explicit:100000000000000000000"])
def test_network_normalized_when_the_rest_dim_exceeds_int64(capsys, norm):
    code, out, _ = run(capsys, "network", "--parties", "10", "--seed", "1",
                       "--normalized", "--norm", norm, "--format", "json")
    assert code == 0
    net = random_network(10, 0.8, seed=1)
    dims = [net.party_dim(p) for p in range(10)]
    for party, value, _ in json.loads(out)["rows"]:
        d_a = dims[party]
        d_b = math.prod(d for p, d in enumerate(dims) if p != party)
        d = {"min": min(d_a, d_b), "b": d_b}.get(norm, 10 ** 20)
        assert abs(value - one_to_group(net, party) / norm_factor(d)) <= 1e-12


def test_network_normalized_with_an_isolated_party(capsys):
    net = random_network(6, 0.2, seed=5)
    isolated = [p for p in range(6) if not net.incident(p)]
    assert isolated
    code, out, err = run(capsys, "network", "--parties", "6", "--edge-prob", "0.2",
                         "--seed", "5", "--normalized", "--format", "json")
    assert code == 0, err
    values = {party: value for party, value, _ in json.loads(out)["rows"]}
    assert all(values[p] == 0.0 for p in isolated)
    assert all(values[p] > 0.0 for p in range(6) if p not in isolated)


def test_network_normalized_when_the_rest_dim_exceeds_the_float_range(capsys):
    code, out, err = run(capsys, "network", "--parties", "40", "--seed", "1",
                         "--normalized", "b", "--format", "json")
    assert code == 0, err
    net = random_network(40, 0.8, seed=1)
    dims = [net.party_dim(p) for p in range(40)]
    total = math.prod(dims)
    assert min(total // d for d in dims) > 10 ** 400
    rows = json.loads(out)["rows"]
    assert [party for party, _, _ in rows] == list(range(40))
    for party, value, tau in rows:
        assert math.isfinite(value) and math.isfinite(tau)
        want = one_to_group(net, party) / norm_factor(total // dims[party])
        assert abs(value - want) <= 1e-12


def test_network_random_polygon_holds(capsys):
    code, _, err = run(capsys, "network", "--parties", "3", "--seed", "7")
    assert code == 0
    for line in err.splitlines():
        if "tau = " in line:
            assert float(line.split("tau = ")[1]) <= 1e-9


def test_roof_two_qubit(tmp_path, capsys):
    sp = tmp_path / "rho.json"
    sp.write_text(json.dumps(state_to_json(random_density((2, 2), rank=2, seed=1))))
    code, _, err = run(capsys, "roof", "--state", str(sp),
                       "--restarts", "8", "--iters", "100")
    assert code == 0
    roof = float(err.split("convex roof  = ")[1].split()[0])
    analytic = float(err.split("analytic h(C) = ")[1].split()[0])
    assert abs(roof - analytic) < 1e-3


def _negative_zeros(x):
    if isinstance(x, float):
        return int(x == 0.0 and math.copysign(1.0, x) < 0)
    if isinstance(x, (list, dict)):
        return sum(_negative_zeros(y) for y in (x.values() if isinstance(x, dict) else x))
    return 0


def test_zero_entropies_are_written_as_positive_zero(tmp_path, capsys):
    product = tmp_path / "product.json"
    product.write_text('{"dims": [2, 2], "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}')
    separable = tmp_path / "separable.json"
    separable.write_text(json.dumps(state_to_json(DensityMatrix(np.diag([0.5, 0, 0, 0.5]),
                                                                (2, 2)))))
    for argv in (["reproduce", "1"], ["reproduce", "2"],
                 ["entropy", "--state", str(product), "--entropy", "von_neumann", "s_total"],
                 ["roof", "--state", str(separable), "--restarts", "3", "--iters", "10"]):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert _negative_zeros(json.loads(out)) == 0
        assert "-0.000000" not in err
    assert "analytic h(C) = 0.000000" in err


def test_roof_rejects_non_two_qubit(tmp_path, capsys):
    sp = tmp_path / "rho.json"
    sp.write_text(json.dumps(state_to_json(random_density((3,), seed=0))))
    code, _, err = run(capsys, "roof", "--state", str(sp))
    assert code == 3
    assert "two-qubit" in err


def test_roof_trace_writes_one_line_per_restart_to_stderr(tmp_path, capsys):
    sp = tmp_path / "rho.json"
    sp.write_text(json.dumps(state_to_json(random_density((2, 2), rank=2, seed=1))))
    # one iteration is too short a budget: no restart's gradient norm falls below tol
    code, out, err = run(capsys, "roof", "--state", str(sp), "--restarts", "3",
                         "--iters", "1", "--trace", "--format", "json")
    assert code == 0
    lines = [line for line in err.splitlines() if line.startswith("restart ")]
    assert [line.split(":")[0] for line in lines] == ["restart 0", "restart 1", "restart 2"]
    assert all("iterations 1," in line and "converged False" in line for line in lines)
    norms = [float(line.split("gradient norm ")[1].split(",")[0]) for line in lines]
    assert min(norms) >= 1e-6
    rows = dict(json.loads(out)["rows"])
    assert rows["iterations"] == 3 and rows["converged"] == 0
    # the default config converges: every gradient norm is below tol = 1e-6
    code, out, err = run(capsys, "roof", "--state", str(sp), "--trace", "--format", "json")
    assert code == 0
    lines = [line for line in err.splitlines() if line.startswith("restart ")]
    assert len(lines) == 20 and all("converged True" in line for line in lines)
    assert all(float(line.split("gradient norm ")[1].split(",")[0]) < 1e-6 for line in lines)
    assert dict(json.loads(out)["rows"])["converged"] == 1


def test_roof_rejects_bad_config(tmp_path, capsys):
    sp = tmp_path / "rho.json"
    sp.write_text(json.dumps(state_to_json(random_density((2, 2), rank=2, seed=1))))
    for flag, value in (("--restarts", "0"), ("--iters", "-1")):
        code, out, err = run(capsys, "roof", "--state", str(sp), flag, value)
        assert code == 3
        assert out == ""
        assert "must be >=" in err


def test_roof_rejects_a_negative_seed(tmp_path, capsys):
    sp = tmp_path / "rho.json"
    sp.write_text(json.dumps(state_to_json(random_density((2, 2), rank=2, seed=1))))
    code, out, err = run(capsys, "roof", "--state", str(sp), "--seed", "-1")
    assert code == 3
    assert out == ""
    assert "seed must be a non-negative integer" in err


def test_grid_below_one_is_domain_error(capsys):
    for argv in (("reproduce", "1", "--grid", "0"), ("scan", "example3", "--grid", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "--grid must be at least 1" in err


def test_grid_on_a_reproduce_id_that_reads_none_is_a_usage_error(capsys):
    for grid in ("7", "-2"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "reproduce", "3", "--grid", grid)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--grid applies only to reproduce 1" in out.err


def test_grid_above_max_grid_is_domain_error(capsys):
    # rejected before any allocation: reproduce 1 at this size would ask for
    # a (grid + 1)^2 index mask
    big = str(cli.MAX_GRID + 1)
    for argv in (("reproduce", "1", "--grid", big), ("scan", "example6", "--grid", big)):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"--grid must be at most {cli.MAX_GRID}" in err
    assert cli.MAX_GRID >= 101  # the reproduce and scan defaults stay valid
