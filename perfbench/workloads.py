"""The benchmark workloads: ``roof`` and ``cli``.

Each workload builds a pool of items from its seed. An item is one timed
call into the library (``call``) plus a correctness check and a result
digest that run outside the timed interval. The timed loop walks the pool
in order and wraps around; see NOTES.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dualentropy as de
import dualentropy.cli

# criterion-5 configuration of the acceptance suite
ROOF_RESTARTS = 20
ROOF_ITERS = 150
ROOF_TOL = 1e-3
FLAT_TOL = 1e-6
BOUND_SLACK = 1e-9
CLI_ENTROPIES = ("von_neumann", "s_total", "t_total_q")
CLI_Q = 2.0
ENTROPY_TOL = 1e-10
TAU_TOL = 1e-9
POOL_CYCLES = {"roof": 9, "cli": 4}


@dataclass
class Item:
    kind: str
    inputs: tuple  # the generated inputs this item passes to the library
    call: Callable[[], object]
    check: Callable[[object], str | None]  # failure message, None when correct
    digest: Callable[[object], str]
    out: str | None = None  # output file a cli item writes


@dataclass
class Workload:
    name: str
    items: list[Item]
    config: dict  # argv or config of each item kind, for provenance


def _hex(*values) -> str:
    return " ".join(float(v).hex() for v in values)


def _random_density(rng, d: int, rank: int) -> np.ndarray:
    v = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    v /= np.linalg.norm(v)
    return v @ v.conj().T


def _random_pure(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


# --- roof ------------------------------------------------------------------

def _roof_cfg(rng) -> de.RoofConfig:
    return de.RoofConfig(restarts=ROOF_RESTARTS, max_iters=ROOF_ITERS,
                         seed=int(rng.integers(2 ** 31)))


def _roof_value(cfg, norm):
    def pairwise(rho):
        bip = de.Bipartition.of(rho.dims, (0,))
        return de.convex_roof(rho, bip, lambda p, b: de.e_t_pure(p, b, norm), cfg).value
    return pairwise


def _two_qubit_item(rng) -> Item:
    rho = de.DensityMatrix(_random_density(rng, 4, 2), (2, 2))
    cfg = _roof_cfg(rng)

    def call():
        return de.convex_roof(rho, de.Bipartition.of((2, 2), (0,)), de.e_t_pure, cfg)

    def check(res):
        exact = de.e_t_two_qubit(rho)
        diff = res.value - exact
        if abs(diff) <= ROOF_TOL and diff >= -BOUND_SLACK:
            return None
        return f"roof {res.value!r} vs analytic h(C) {exact!r} (diff {diff:.3e})"

    return Item("two_qubit", (rho.matrix, cfg.seed), call, check,
                lambda res: _hex(res.value, *res.restart_values))


def _residual_check(group, pairs, want_group, want_pairs):
    got = [v for _, v in pairs]
    if (abs(group - want_group) <= BOUND_SLACK
            and all(abs(a - b) <= FLAT_TOL and a >= b - BOUND_SLACK
                    for a, b in zip(got, want_pairs))):
        return None
    return f"one_to_group {group!r} vs {want_group!r}; pairwise {got} vs {list(want_pairs)}"


def _example3_item(rng) -> Item:
    theta = float(rng.uniform(0.0, np.pi / 2))
    cfg = _roof_cfg(rng)
    norm = de.explicit(4)
    alpha, beta = np.cos(theta), np.sin(theta)

    def call():
        return de.residual_tangle(de.example3_family(theta), 0,
                                  lambda p, b: de.e_t_pure(p, b, norm),
                                  _roof_value(cfg, norm))

    def check(rep):
        return _residual_check(rep.one_to_group, rep.pairwise,
                               de.e_t_example3_one_to_group(alpha, beta),
                               de.pairwise_e_t_example3(alpha, beta))

    return Item("example3", (theta, cfg.seed), call, check,
                lambda rep: _hex(rep.tau, *(v for _, v in rep.pairwise)))


def _example4_item(rng) -> Item:
    cfg = _roof_cfg(rng)

    def call():
        return de.residual_tangle(de.example4_state(), 0, de.e_t_pure,
                                  _roof_value(cfg, de.MIN_DIM))

    def check(rep):
        return _residual_check(rep.one_to_group, rep.pairwise, 1.0,
                               de.pairwise_e_t_example4())

    return Item("example4", (cfg.seed,), call, check,
                lambda rep: _hex(rep.tau, *(v for _, v in rep.pairwise)))


# example3 items are the cheapest and example4 the dearest, so with this
# rotation the 36-odd items of a run sort into 20% example3, 40% two_qubit
# and 40% example4: the median falls inside the two_qubit latencies and the
# tail rule's p72 inside the example4 ones, each several items from a
# boundary between kinds, where one item more or less would move it.
ROOF_ROTATION = ("two_qubit", "example3", "example4", "two_qubit", "example4")


def build_roof(rng, work_dir) -> Workload:
    make = {"two_qubit": _two_qubit_item, "example3": _example3_item,
            "example4": _example4_item}
    items = [make[kind](rng) for _ in range(POOL_CYCLES["roof"]) for kind in ROOF_ROTATION]
    roof = {"restarts": ROOF_RESTARTS, "max_iters": ROOF_ITERS, "seed": "per item"}
    config = {
        "two_qubit": {"state": "random rank-2 two-qubit density", "measure": "e_t_pure",
                      "roof": roof, "check": f"|roof - h(C)| <= {ROOF_TOL}, roof >= h(C)"},
        "example3": {"state": "example3_family(theta), theta ~ U[0, pi/2]",
                     "norm": "explicit:4", "pairwise": "convex_roof", "roof": roof},
        "example4": {"state": "example4_state()", "norm": "min_dim",
                     "pairwise": "convex_roof", "roof": roof},
    }
    return Workload("roof", items, config)


# --- cli -------------------------------------------------------------------

def _read_rows(path) -> list:
    with open(path) as fh:
        return json.load(fh)["rows"]


def _reference_entropies(rho: np.ndarray) -> list[float]:
    """von Neumann, total and Tsallis-total (q=2) entropies from eigvalsh."""
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    w = w / w.sum()
    nz, r = w[w > 0], 1.0 - w
    r = r[r > 0]
    s = float(-np.sum(nz * np.log2(nz)))
    return [s, s - float(np.sum(r * np.log2(r))),
            float(np.sum(1.0 - w ** CLI_Q - (1.0 - w) ** CLI_Q) / (CLI_Q - 1.0))]


def _cli_item(kind, argv, out, check_rows) -> Item:
    argv = argv + ["--format", "json", "--out", out]

    def call():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = dualentropy.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, err.getvalue()

    def check(res):
        code, err = res
        if code != 0:
            return f"{argv}: exit code {code}: {err.strip()}"
        try:
            rows = _read_rows(out)
        except (OSError, ValueError, KeyError) as exc:
            return f"{argv}: output does not parse: {exc}"
        msg = check_rows(rows)
        return None if msg is None else f"{argv}: {msg}"

    return Item(kind, tuple(argv), call, check,
                lambda res: f"{res[0]} {json.dumps(_read_rows(out))}", out)


def _no_check(rows):
    return None


def _network_check(rows):
    worst = max(row[2] for row in rows)
    return None if worst <= TAU_TOL else f"polygon tau {worst!r} > {TAU_TOL}"


def _entropy_check(reference):
    def check(rows):
        got = [float(v) for _, v in rows]
        if [n for n, _ in rows] == list(CLI_ENTROPIES) and all(
                abs(a - b) <= ENTROPY_TOL for a, b in zip(got, reference)):
            return None
        return f"entropies {rows} vs eigvalsh reference {reference}"
    return check


def _write_state(path, dims, flat) -> None:
    with open(path, "w") as fh:
        json.dump({"dims": list(dims), "re": flat.real.tolist(),
                   "im": flat.imag.tolist()}, fh)


PURE_DIMS = ((2, 2), (2, 3), (2, 4), (3, 3), (2, 5),
             (3, 4), (2, 6), (2, 7), (3, 5), (2, 8), (4, 4))


def _entropy_argv(rng, path, pure: bool):
    if pure:
        da, db = PURE_DIMS[int(rng.integers(len(PURE_DIMS)))]
        amps = _random_pure(rng, da * db)
        _write_state(path, (da, db), amps)
        m = amps.reshape(da, db)
        rho = m @ m.conj().T  # the cli scores the first-subsystem marginal
    else:
        d = int(rng.integers(2, 17))
        rho = _random_density(rng, d, int(rng.integers(1, d + 1)))
        _write_state(path, (d,), rho.ravel())
    return ["entropy", "--state", path, "--entropy", *CLI_ENTROPIES], rho


def build_cli(rng, work_dir) -> Workload:
    out = os.path.join(work_dir, "out.json")
    items = []
    for cycle in range(POOL_CYCLES["cli"]):
        batch = [_cli_item(f"reproduce{i}", ["reproduce", str(i), "--seed",
                                             str(int(rng.integers(2 ** 31)))],
                           out, _no_check) for i in range(1, 7)]
        batch += [_cli_item(f"network{k}", ["network", "--parties", str(k), "--seed",
                                            str(int(rng.integers(2 ** 31)))],
                            out, _network_check) for k in range(3, 9)]
        for j in range(6):
            pure = j % 2 == 0
            path = os.path.join(work_dir, f"state-{cycle}-{j}.json")
            argv, rho = _entropy_argv(rng, path, pure)
            ref = _reference_entropies(rho)
            batch.append(_cli_item("entropy_pure" if pure else "entropy_mixed",
                                   argv, out, _entropy_check(ref)))
        items += [batch[i] for i in rng.permutation(len(batch))]
    config = {
        "reproduce": "reproduce <1..6> --seed <s> --format json --out <file>",
        "network": "network --parties <3..8> --seed <s> --format json --out <file>",
        "entropy": f"entropy --state <file> --entropy {' '.join(CLI_ENTROPIES)} "
                   "--format json --out <file>; pure dims da x db <= 16 "
                   "(first-subsystem marginal), mixed dims (d,) with d in 2..16",
    }
    return Workload("cli", items, config)


BUILDERS = {"roof": build_roof, "cli": build_cli}


def build(name: str, seed: int, work_dir) -> Workload:
    """Inputs depend only on (name, seed); cli state files go to ``work_dir``."""
    os.makedirs(work_dir, exist_ok=True)
    return BUILDERS[name](np.random.default_rng(seed), work_dir)
