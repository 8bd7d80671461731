import csv
import json
import math

import numpy as np
import pytest

from dualentropy import (H5_COUPLINGS, H6_COUPLINGS, entropy_trajectory,
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


def test_entropy_state_file_with_nan_is_bad_state(tmp_path, capsys):
    p = tmp_path / "nan.json"
    p.write_text('{"dims": [2], "re": [NaN, 0.0], "im": [0.0, 0.0]}')
    with pytest.raises(SystemExit) as exc:
        run(capsys, "entropy", "--state", str(p))
    assert exc.value.code == 2


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
    (("network", "--triangle-bell", "--seed", "5", "--norm", "explicit:9"), None, None),
    (("network", "--parties", "4", "--seed", "5", "--norm", "explicit:9"), 5, None),
    (("network", "--triangle-bell", "--normalized", "--norm", "explicit:9"),
     None, "explicit:9"),
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
    """The rows reproduce <rid> writes, rebuilt from the library (seed 0)."""
    if rid == "2":
        rows = []
        for label, n, couplings in (("H5", 5, H5_COUPLINGS), ("H6", 6, H6_COUPLINGS)):
            ham = heisenberg(n, couplings, random_fields(n, 0))
            traj = entropy_trajectory(plus_state(n), ham, np.linspace(0.0, 100.0, 200))
            rows += [[label, *row] for row in traj.rows()]
        return rows
    if rid == "3":
        return [[t, a, b] for (t, a), (_, b) in zip(scan_example3("e_t", 1.0).rows(),
                                                   scan_example3("eof", 1.0).rows())]
    if rid == "5":
        return example5_report().rows()
    if rid == "6":
        return scan_example6().rows()
    return None


@pytest.mark.parametrize("rid", ["1", "2", "3", "4", "5", "6"])
def test_reproduce_json_stdout_parses_and_matches_the_rows(capsys, rid):
    code, out, _ = run(capsys, "reproduce", rid, "--format", "json")
    assert code == 0
    assert "\n" not in out  # one compact line
    rows = json.loads(out)["rows"]
    code, out, _ = run(capsys, "reproduce", rid)
    assert code == 0
    data = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    assert [[str(v) for v in row] for row in rows] == data[1:]
    want = _library_rows(rid)
    assert want is None or rows == want


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


def test_network_rejects_edge_prob_outside_unit_interval(capsys):
    for p in ("nan", "5", "-1", "inf"):
        code, out, err = run(capsys, "network", "--edge-prob", p)
        assert code == 3, p
        assert out == ""
        assert "edge_prob must be in [0, 1]" in err


def test_network_with_an_oversized_party_is_domain_error(capsys):
    # party 0 of this network has about 31 edges: at least 2^31 spectrum entries
    code, out, err = run(capsys, "network", "--parties", "40", "--edge-prob", "0.8",
                         "--seed", "1")
    assert code == 3
    assert out == ""
    assert "MAX_SPECTRUM" in err


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
    # parties 3 and 4 of this network have no edges
    code, out, err = run(capsys, "network", "--parties", "6", "--edge-prob", "0.2",
                         "--seed", "3", "--normalized", "--format", "json")
    assert code == 0, err
    values = {party: value for party, value, _ in json.loads(out)["rows"]}
    assert values[3] == 0.0 and values[4] == 0.0


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
