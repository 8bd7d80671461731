"""Command-line surface: entropy tables, scenario reproduction, scans.

Tables go to stdout (or ``--out``) as CSV or one-line JSON and embed the
command line, the tool and numpy versions, and the seed and normalization
policy where the run reads them: the seed of ``reproduce 2``, of ``roof``
and of a random ``network``, and the norm of ``network --normalized``
(``reproduce 3`` and ``scan example3`` record the norm they fix). Every
command hands ``_emit_table`` its table as columns: the float64 arrays it
already holds, or lists of cells. Each distinct value of the array columns
is formatted once, to the text ``json.dumps`` or ``csv.writer`` would give
it. Files are written atomically, with the mode a plain ``open`` would give
a new file.
Headline values, PASS/FAIL lines and other diagnostics go to stderr, so
stdout carries only data. Exit codes: 2 invalid state file, unwritable
``--out`` or usage error, 3 domain error, 4 reproduced value missed its
tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import shlex
import sys

import numpy as np

from . import __version__
from . import convexroof, dynamics, entropy, measures, monogamy, network, states

EXIT_USAGE = 2  # also what argparse exits with on a usage error
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4
# Largest --grid of reproduce and scan: reproduce 1 evaluates (grid + 1)^2 / 2
# simplex points in one array call, so its memory grows with grid^2.
MAX_GRID = 1000
# Most rows of a scan example6 table, grid * |q| * |gamma|: at 4e5 rows its peak
# memory stays below that of reproduce 1 at MAX_GRID.
MAX_SCAN_ROWS = 400_000
# Largest --parties of network, the largest size the acceptance tests check:
# at --edge-prob 1, 200 parties (19,900 edges) take about 0.05 s to draw and
# 0.09 s to check, 300 parties (44,850) 0.15 s and 0.24 s (2 cores).
MAX_PARTIES = 200
FIG1_GRID = 50  # the --grid of reproduce 1, the only reproduce id that reads one

# Every entropy the cli offers is a functional of the target's spectrum p;
# von_neumann, s_total and t_total_q are the operator names of shannon,
# total_classical and tsallis_total.
ENTROPIES = {
    "von_neumann": lambda p, q: entropy.shannon(p),
    "shannon": lambda p, q: entropy.shannon(p),
    "s_total": lambda p, q: entropy.total_classical(p),
    "total_classical": lambda p, q: entropy.total_classical(p),
    "tsallis": entropy.tsallis,
    "tsallis_total": entropy.tsallis_total,
    "t_total_q": entropy.tsallis_total,
}


def _note(msg: str) -> None:
    """Diagnostics go to stderr; stdout carries only the table."""
    print(msg, file=sys.stderr)


def _metadata(args, extra=None) -> dict:
    meta = {
        "command": shlex.join(["dualentropy", *args.argv]),
        "seed": None,
        "norm": None,
        "version": __version__,
        "numpy": np.__version__,
        **(extra or {}),
    }
    # seed and norm keep their place; each stays only where the run reads it
    # and passes it in ``extra``
    return {k: v for k, v in meta.items() if v is not None or k not in ("seed", "norm")}


def _atomic_write(path: str, text: str) -> None:
    # a fresh name in the target's directory, created as open() creates any
    # file, so the kernel gives it the mode of a plain new file; os.replace
    # then swaps it in whole
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-dualentropy-{os.urandom(8).hex()}")
    fh = open(tmp, "x")  # outside the try: a name that exists is not ours to unlink
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _array_texts(columns, format_values):
    """Cell texts of the table's float64 array columns, one list per column.

    The array columns share one pass that formats each distinct value once.
    Values are told apart by their bits, so 0.0 and -0.0 keep their own text.
    ``format_values`` maps a list of floats to their texts.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in columns if isinstance(c, np.ndarray)]
    if not arrays:
        return
    bits, inverse = np.unique(np.concatenate(arrays).view(np.int64), return_inverse=True)
    texts = np.array(format_values(bits.view(np.float64).tolist()), dtype=object)
    cells, start = texts[inverse.ravel()].tolist(), 0
    for a in arrays:
        yield cells[start:start + a.size]
        start += a.size


def _json_list_texts(column) -> list[str]:
    """The JSON token ``json.dumps`` writes for each cell of a list column."""
    if set(map(type, column)) <= {str}:
        memo = {s: json.dumps(s) for s in set(column)}
        return list(map(memo.__getitem__, column))
    # no memo, which would merge 1, 1.0 and True; one encoder call splits into
    # one token per cell unless a cell's own token holds ", "
    cells = json.dumps(column)[1:-1].split(", ")
    return cells if len(cells) == len(column) else [json.dumps(cell) for cell in column]


def _emit_table(args, header, columns, meta) -> None:
    """Write a table given as columns: float64 ndarrays or lists of cells."""
    if args.format == "json":
        # the encoder's own tokens, NaN and +-Infinity included
        arrays = _array_texts(columns, lambda v: json.dumps(v)[1:-1].split(", "))
        texts = [next(arrays) if isinstance(c, np.ndarray) else _json_list_texts(c)
                 for c in columns]
        rows = list(map(", ".join, zip(*texts, strict=True)))
        head = json.dumps({"metadata": meta, "columns": header})
        body = "[[" + "], [".join(rows) + "]]" if rows else "[]"
        text = f'{head[:-1]}, "rows": {body}}}'
    else:
        # csv.writer writes a float as its repr, and any other cell as it is given
        arrays = _array_texts(columns, lambda v: list(map(repr, v)))
        buf = io.StringIO()
        for k, v in meta.items():
            buf.write(f"# {k}: {v}\n")
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(zip(*(next(arrays) if isinstance(c, np.ndarray) else c
                          for c in columns), strict=True))
        text = buf.getvalue()
    if args.out:
        try:
            _atomic_write(args.out, text)
        except OSError as exc:
            _note(f"error: cannot write {args.out}: {exc.strerror or exc}")
            raise SystemExit(EXIT_USAGE) from None
        _note(f"wrote {args.out}")
    else:
        print(text, end="")


def _parse_norm(spec: str) -> measures.NormPolicy:
    if spec in ("min", "min_dim"):
        return measures.MIN_DIM
    if spec == "a":
        return measures.DIM_A
    if spec == "b":
        return measures.DIM_B
    if spec.startswith("explicit:"):
        return measures.explicit(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown norm policy {spec!r}")


def _load_state_arg(args):
    if args.state is not None:
        try:
            return states.load_state(args.state)
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            _note(f"error: cannot load state file: {exc}")
            raise SystemExit(EXIT_USAGE)
    preset = args.preset
    if preset == "bell":
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        return states.PureState(v, (2, 2))
    if preset.startswith("mixed:"):
        d, top = int(preset.split(":")[1]), 2 ** dynamics.MAX_QUBITS
        if not 1 <= d <= top:
            raise ValueError(f"mixed:d needs 1 <= d <= {top}, got {d}")
        return states.DensityMatrix(np.eye(d) / d, (d,))
    if preset.startswith("plus:"):
        return dynamics.plus_state(int(preset.split(":")[1]))
    _note(f"error: unknown preset {preset!r}")
    raise SystemExit(EXIT_USAGE)


# --- entropy ----------------------------------------------------------------

def cmd_entropy(args) -> int:
    state = _load_state_arg(args)
    if isinstance(state, states.PureState):
        # entropies of a pure global state act on the first-subsystem marginal
        target = states.reduced_state(state, (0,))
    else:
        target = state
    p = states.spectrum(target)
    values = []
    for name in args.entropy:
        if name not in ENTROPIES:
            raise ValueError(f"unknown entropy {name!r}")
        val = ENTROPIES[name](p, args.q)
        values.append(float(val))
        _note(f"{name} = {val:.6f}")
    _emit_table(args, ["entropy", "value"], [args.entropy, values], _metadata(args))
    return 0


# --- reproduce --------------------------------------------------------------

def _headline(name, value, expected, tol):
    ok = abs(value - expected) <= tol
    _note(f"{name} = {value:.6f} (expected {expected:.6f}, tol {tol:g}) "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


def _bound(name, value, bound, tol):
    ok = value <= bound + tol
    _note(f"{name} = {value:.3e} (<= {bound:g} + {tol:g}) {'PASS' if ok else 'FAIL'}")
    return ok


def _reproduce_fig1(args):
    n = _checked_grid(FIG1_GRID if args.grid is None else args.grid)
    i, k = np.triu_indices(n + 1)  # all i + j <= n, as k = i + j, in (i, j) order
    p1, p2 = i / n, (k - i) / n
    p = np.stack([p1, p2, 1.0 - p1 - p2], axis=-1)
    _emit_table(args, ["p1", "p2", "H", "H_t"],
                [p1, p2, entropy.shannon(p), entropy.total_classical(p)],
                _metadata(args, {"grid": n}))
    return True


def _reproduce_dynamics(args):
    ok = True
    labels, cuts, arrays = [], [], []  # rows time-major within each Hamiltonian
    times = np.linspace(0.0, 100.0, 200)
    for label, n, couplings in (("H5", 5, dynamics.H5_COUPLINGS),
                                ("H6", 6, dynamics.H6_COUPLINGS)):
        fields = dynamics.random_fields(n, args.seed)
        ham = dynamics.heisenberg(n, couplings, fields)
        traj = dynamics.entropy_trajectory(dynamics.plus_state(n), ham, times)
        gap = float(np.max(traj.entropies - traj.total_entropies))
        gap2 = float(np.max(traj.total_entropies - 2.0 * traj.entropies))
        ok &= _bound(f"{label} max(S - S_t)", gap, 0.0, 1e-9)
        ok &= _bound(f"{label} max(S_t - 2S)", gap2, 0.0, 1e-9)
        labels += [label] * traj.entropies.size
        cuts += traj.cut_labels * len(traj.times)
        arrays.append((np.repeat(traj.times, len(traj.cut_labels)), traj.entropies.ravel(),
                       traj.total_entropies.ravel()))
    t, s, s_t = map(np.concatenate, zip(*arrays))
    _emit_table(args, ["hamiltonian", "time", "cut", "S", "S_t"], [labels, t, cuts, s, s_t],
                _metadata(args, {"seed": args.seed}))
    return ok


def _reproduce_example3(args):
    res_et = monogamy.scan_example3("e_t", 1.0)
    res_ef = monogamy.scan_example3("eof", 1.0)
    ok = _bound("max |tau_EOF|", float(np.max(np.abs(res_ef.values))), 0.0, 1e-9)
    ok &= _bound("max tau_Et", float(np.max(res_et.values)), 0.0, 1e-9)
    e_ac = monogamy.pairwise_e_t_example3(1.0, 0.0)[1]
    ok &= _headline("E_t(rho_AC)", e_ac, 2.0 / measures.norm_factor(4), 1e-12)
    _emit_table(args, ["theta", "tau_e_t", "tau_eof"],
                [res_et.axes["theta"], res_et.values, res_ef.values],
                _metadata(args, {"norm": "explicit:4"}))
    return ok


def _reproduce_example4(args):
    psi = monogamy.example4_state()
    bip = measures.cut(psi, (0,))
    e_group = measures.e_t_pure(psi, bip, measures.MIN_DIM)
    ok = _headline("E_t(A|BC)", e_group, 1.0, 1e-12)
    pair = monogamy.pairwise_e_t_example4()[0]
    ok &= _headline("pairwise E_t", pair, 0.9520, 5e-4)
    eof_group = measures.eof_pure(psi, bip)
    ok &= _headline("E_f(A|BC)", eof_group, float(np.log2(6)), 1e-12)
    rho_ab = states.reduced_state(psi, (0, 1))
    # flat roof: every decomposition component shares one marginal spectrum
    w, v = np.linalg.eigh(rho_ab.matrix)
    comp = states.PureState(v[:, -1], rho_ab.dims)
    eof_ab = entropy.shannon(states.schmidt_spectrum(comp, (0,)))
    ok &= _headline("E_f(rho_AB)", eof_ab, 1.5, 1e-12)
    sq = eof_group ** 2 - 2 * eof_ab ** 2
    ok &= _bound("-(E_f^2 gap)", -sq, 0.0, 1e-9)
    cross = monogamy.power_crossover(e_group, [pair, pair])
    okc = cross == 15
    _note(f"power crossover alpha = {cross} (expected 15) {'PASS' if okc else 'FAIL'}")
    ok &= okc
    spec_ab = states.spectrum(rho_ab)
    _emit_table(args, ["quantity", "value"],
                [["E_t(A|BC)", "pairwise_E_t", "E_f(A|BC)", "E_f(rho_AB)", "crossover",
                  "rho_AB_top_eigenvalue"],
                 [e_group, pair, eof_group, eof_ab, cross, float(spec_ab[0])]],
                _metadata(args))
    return ok


def _reproduce_example5(args):
    res = monogamy.example5_report()
    ok = _bound("max tau", float(np.max(res.values)), 0.0, 1e-9)
    _emit_scan(args, res)
    return ok


def _reproduce_example6(args):
    res = monogamy.scan_example6()
    has_pos = bool(np.any(res.values > 1e-12))
    has_neg = bool(np.any(res.values < -1e-12))
    _note(f"positive residuals present: {has_pos}; negative: {has_neg} "
          f"{'PASS' if has_pos and has_neg else 'FAIL'}")
    g1 = res.values[np.asarray(res.axes['gamma']) == 1.0]
    _note(f"gamma=1 slice max tau = {float(np.max(g1)):.3e} (non-positive; "
          "published closed form disagrees with spectra and is not asserted)")
    _emit_scan(args, res)
    return has_pos and has_neg


def _emit_scan(args, res) -> None:
    _emit_table(args, res.columns(), [*res.axes.values(), res.values],
                _metadata(args, res.metadata))


def _checked_grid(grid: int) -> int:
    if grid < 1:
        raise ValueError(f"--grid must be at least 1, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"--grid must be at most {MAX_GRID}, got {grid}")
    return grid


def cmd_reproduce(args) -> int:
    if args.grid is not None and args.id not in ("1", "fig1"):
        build_parser().error("--grid applies only to reproduce 1")
    dispatch = {
        "1": _reproduce_fig1, "fig1": _reproduce_fig1,
        "2": _reproduce_dynamics, "fig2": _reproduce_dynamics,
        "3": _reproduce_example3, "fig4": _reproduce_example3,
        "4": _reproduce_example4,
        "5": _reproduce_example5, "fig6": _reproduce_example5,
        "6": _reproduce_example6, "fig7": _reproduce_example6,
    }
    ok = dispatch[args.id](args)
    _note("PASS" if ok else "FAIL")
    return 0 if ok else EXIT_TOLERANCE


# --- scan, network, roof ------------------------------------------------------

def cmd_scan(args) -> int:
    n = _checked_grid(args.grid)
    if args.family == "example3":
        if len(args.gamma) > 1:
            raise ValueError("scan example3 takes one --gamma; extra values "
                             f"{args.gamma[1:]}")
        res = monogamy.scan_example3(args.measure, args.gamma[0],
                                     np.linspace(0, np.pi / 2, n))
    elif args.family == "example6":
        qs = np.array(args.q or monogamy.EXAMPLE6_QS)
        rows = n * len(qs) * len(args.gamma)
        if rows > MAX_SCAN_ROWS:
            raise ValueError(f"scan example6 would write {rows} rows ({n} theta x {len(qs)} q "
                             f"x {len(args.gamma)} gamma), more than {MAX_SCAN_ROWS}")
        res = monogamy.scan_example6(np.linspace(0.01, np.pi / 2 - 0.01, n), qs=qs,
                                     gammas=tuple(args.gamma))
    else:
        raise ValueError(f"unknown family {args.family!r}")
    _note(f"tau range: [{res.values.min():.6g}, {res.values.max():.6g}]")
    _emit_scan(args, res)
    return 0


def cmd_network(args) -> int:
    if args.parties > MAX_PARTIES:
        build_parser().error(f"--parties must be at most {MAX_PARTIES}, got {args.parties}")
    if args.triangle_bell:
        bell = states.PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        net = network.NetworkTopology(3, (network.Edge(0, 1, bell), network.Edge(0, 2, bell),
                                          network.Edge(1, 2, bell)))
    else:
        net = network.random_network(args.parties, args.edge_prob, seed=args.seed)
    norm = None if args.normalized is None else _parse_norm(args.normalized)
    report = network.polygon_check(net, norm)
    for p, (v, t) in enumerate(zip(report.values, report.taus)):
        _note(f"party {p}: E = {v:.6f}, tau = {t:.6f}")
    meta = _metadata(args, {"seed": None if args.triangle_bell else args.seed,
                            "norm": args.normalized, "normalized": norm is not None})
    _emit_table(args, ["party", "one_to_group", "tau"],
                [list(range(len(report.values))), report.values, report.taus], meta)
    return 0


def cmd_roof(args) -> int:
    state = _load_state_arg(args)
    if isinstance(state, states.PureState):
        state = state.density()
    if state.dims != (2, 2):
        _note("error: roof comparison expects a two-qubit state")
        return EXIT_DOMAIN
    bip = measures.Bipartition.of(state.dims, (0,))
    cfg = convexroof.RoofConfig(restarts=args.restarts, max_iters=args.iters,
                                seed=args.seed)
    result = convexroof.convex_roof(state, bip, measures.e_t_pure, cfg)
    analytic = measures.e_t_two_qubit(state)
    _note(f"convex roof  = {result.value:.6f}")
    _note(f"analytic h(C) = {analytic:.6f}")
    _note(f"difference    = {result.value - analytic:.3e}")
    if args.trace:
        for r, (value, iters, accepted, step, grad, converged) in enumerate(zip(
                result.restart_values, result.restart_iterations, result.restart_accepted,
                result.restart_final_steps, result.restart_grad_norms,
                result.restart_converged)):
            rate = accepted / iters if iters else 0.0
            _note(f"restart {r}: value {value:.9f}, iterations {iters}, "
                  f"accepted {accepted} ({rate:.2f}), final step {step:.3g}, "
                  f"gradient norm {grad:.3g}, converged {converged}")
    _emit_table(args, ["quantity", "value"],
                [["roof", "analytic", "converged", "iterations"],
                 [result.value, analytic, int(result.converged), result.iterations_used]],
                _metadata(args, {"seed": args.seed}))
    return 0


# --- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The cli's parser, built once per process; every default is immutable."""
    p = argparse.ArgumentParser(prog="dualentropy",
                                description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False):
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("entropy", help="entropy table for a state or preset")
    sp.add_argument("--state", help="JSON state file {dims, re, im}")
    sp.add_argument("--preset", default="bell",
                    help="bell | mixed:d | plus:n (ignored when --state given)")
    sp.add_argument("--entropy", nargs="+", default=("von_neumann", "s_total"),
                    help="entropy names to evaluate")
    sp.add_argument("-q", type=float, default=2.0, dest="q")
    common(sp)
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("reproduce", help="reproduce a reference scenario")
    sp.add_argument("id", choices=["1", "2", "3", "4", "5", "6",
                                   "fig1", "fig2", "fig4", "fig6", "fig7"])
    sp.add_argument("--grid", type=int, default=None,
                    help=f"simplex grid of reproduce 1 (default {FIG1_GRID})")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("scan", help="residual-tangle scan over a state family")
    sp.add_argument("family", choices=["example3", "example6"])
    sp.add_argument("--measure", default="e_t", choices=["e_t", "eof"])
    sp.add_argument("--gamma", type=float, nargs="+", default=(1.0,))
    sp.add_argument("-q", type=float, nargs="+", default=None, dest="q")
    sp.add_argument("--grid", type=int, default=101)
    common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("network", help="polygon check on a quantum network")
    sp.add_argument("--parties", type=int, default=3)
    sp.add_argument("--edge-prob", type=float, default=0.8)
    sp.add_argument("--triangle-bell", action="store_true",
                    help="use the fixed triangle of Bell pairs")
    sp.add_argument("--normalized", nargs="?", const="min", metavar="POLICY",
                    help="divide by r(d), d chosen by POLICY: min (the default) | "
                         "a | b | explicit:N")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_network)

    sp = sub.add_parser("roof", help="convex roof vs analytic two-qubit value")
    sp.add_argument("--state", required=True)
    sp.add_argument("--restarts", type=int, default=20)
    sp.add_argument("--iters", type=int, default=200)
    sp.add_argument("--trace", action="store_true",
                    help="one line per restart on stderr: value, iterations, "
                         "accepted steps, final step, gradient norm, converged")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_roof)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except SystemExit:
        raise
    except BrokenPipeError:
        # downstream reader (e.g. `| head`) closed early; not an error
        sys.stderr.close()
        return 0
    except (ValueError, IndexError) as exc:
        _note(f"error: {exc}")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
