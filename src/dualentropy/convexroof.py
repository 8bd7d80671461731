"""Numerical convex-roof estimation over pure-state ensembles.

Every ensemble realizing a mixed state arises from an isometry applied to
its eigendecomposition, so the search space is the manifold of m x rank
matrices with orthonormal columns. The optimizer runs seeded random
restarts, each refined by multiplicative skew-Hermitian steps; its value is
always an upper bound on the true convex roof.

All restarts advance in lockstep as one (R, m, rank) stack of isometries.
Each active restart takes its directions from its own seeded stream, drawn
in blocks of up to DRAW_BLOCK iterations. Each iteration makes one stacked
QR, one orthonormality check, one product that builds every ensemble
member and one call to the measure. A roof measure is therefore called as
``measure(stack, bipartition)`` on a ``PureStack`` and returns one value
per state, as the pure-state measures of ``dualentropy.measures`` do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import Bipartition
from .states import DensityMatrix, PureStack, PureState

EIGENVALUE_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-14
ISOMETRY_TOL = 1e-10
ACCEPT_MARGIN = 1e-15
# Directions are drawn up to DRAW_BLOCK iterations at a time per restart,
# fewer when the block of all restarts would exceed DRAW_BYTES (a large
# ensemble); a restart's stream yields the same values in one call as in many.
DRAW_BLOCK = 16
DRAW_BYTES = 2 ** 23


@dataclass(frozen=True)
class EnsembleDecomposition:
    """Weights and pure states whose mixture reconstructs a target state."""

    weights: np.ndarray
    states: tuple[PureState, ...]

    def stack(self) -> PureStack:
        return PureStack(np.array([s.amplitudes for s in self.states]),
                         self.states[0].dims)

    def reconstruct(self) -> np.ndarray:
        a = self.stack().amplitudes
        return (a.T * self.weights) @ a.conj()


@dataclass(frozen=True)
class RoofConfig:
    ensemble_size: int | None = None  # default: rank^2 capped at 16
    restarts: int = 20
    max_iters: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.ensemble_size is not None and not self.ensemble_size >= 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if not self.restarts >= 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not self.max_iters >= 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.tol > 0:  # also rejects NaN
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class RoofResult:
    """Best value over the restarts, with one entry per restart in each tuple.

    ``converged`` holds only when every restart's step fell below ``tol``;
    ``iterations_used`` sums the iterations of all restarts.
    """

    value: float
    best_ensemble: EnsembleDecomposition
    converged: bool
    iterations_used: int
    restart_values: tuple[float, ...] = ()
    restart_iterations: tuple[int, ...] = ()
    restart_accepted: tuple[int, ...] = ()
    restart_final_steps: tuple[float, ...] = ()
    restart_converged: tuple[bool, ...] = ()

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "converged": self.converged,
            "iterations_used": self.iterations_used,
            "weights": np.asarray(self.best_ensemble.weights).tolist(),
            "restart_values": list(self.restart_values),
            "restart_iterations": list(self.restart_iterations),
            "restart_accepted": list(self.restart_accepted),
            "restart_final_steps": list(self.restart_final_steps),
            "restart_converged": list(self.restart_converged),
        }


def _eig_support(rho: DensityMatrix):
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > EIGENVALUE_FLOOR
    w, v = w[keep][::-1], v[:, keep][:, ::-1]
    return w, v


def _members(u: np.ndarray, lam: np.ndarray, phi: np.ndarray, dims):
    """Weights (..., m) and members (a stack of shape (..., m)) of isometries u.

    ``u`` stacks m x rank isometries; row i of each gives the unnormalized
    member sum_j u_ij sqrt(lambda_j) |phi_j>, whose squared norm is its
    weight. A member below WEIGHT_FLOOR gets weight 0, and |0...0> stands in
    for it so that the stack stays valid.
    """
    gram = u.conj().swapaxes(-1, -2) @ u
    if not np.max(np.abs(gram - np.eye(lam.size))) <= ISOMETRY_TOL:
        raise ValueError("columns are not orthonormal")
    raw = (u * np.sqrt(lam)) @ phi.T
    w = np.sum(np.abs(raw) ** 2, axis=-1)
    keep = w >= WEIGHT_FLOOR
    amps = raw / np.sqrt(np.where(keep, w, 1.0))[..., None]
    amps[~keep] = np.eye(1, raw.shape[-1])
    return np.where(keep, w, 0.0), PureStack(amps, dims)


def _values(measure, stack: PureStack, bipartition: Bipartition) -> np.ndarray:
    vals = np.asarray(measure(stack, bipartition), dtype=float)
    if vals.shape != stack.shape:
        raise ValueError(f"measure returned shape {vals.shape} for a stack of shape "
                         f"{stack.shape}; a roof measure returns one value per state")
    return vals


def hjw_ensemble(rho: DensityMatrix, isometry: np.ndarray) -> EnsembleDecomposition:
    """Ensemble generated by an m x rank isometry acting on the eigenensemble.

    Row i gives the unnormalized state sum_j u_ij sqrt(lambda_j) |phi_j>;
    weights are the squared norms. The mixture reconstructs ``rho`` exactly.
    """
    lam, phi = _eig_support(rho)
    u = np.asarray(isometry, dtype=complex)
    if u.ndim != 2 or u.shape[1] != lam.size or u.shape[0] < lam.size:
        raise ValueError(f"isometry shape {u.shape} incompatible with rank {lam.size}")
    w, stack = _members(u, lam, phi, rho.dims)
    kept = w > 0
    return EnsembleDecomposition(
        w[kept], tuple(PureState(a, rho.dims) for a in stack.amplitudes[kept]))


def _random_isometry(m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    q, _ = np.linalg.qr(z)
    return q


def _perturb(u: np.ndarray, step: np.ndarray, z: np.ndarray) -> np.ndarray:
    """QR of u + step K u, K the unit skew-Hermitian part of z, for each slice."""
    k = (z - z.conj().swapaxes(-1, -2)) / 2.0
    k /= np.maximum(np.linalg.norm(k, axis=(-2, -1), keepdims=True), 1e-30)
    q, _ = np.linalg.qr(u + step[:, None, None] * (k @ u))
    return q


def average_measure(ensemble: EnsembleDecomposition, bipartition: Bipartition,
                    measure) -> float:
    return float(ensemble.weights @ _values(measure, ensemble.stack(), bipartition))


def convex_roof(rho: DensityMatrix, bipartition: Bipartition, measure,
                cfg: RoofConfig = RoofConfig()) -> RoofResult:
    """Minimize the ensemble-averaged pure-state measure over isometries.

    ``measure(stack, bipartition)`` maps a ``PureStack`` to one value per
    state; a ValueError is raised when it returns another shape. Restart r
    draws from its own stream ``default_rng([seed, r])``, so the result is
    deterministic for a fixed config and restart r does not depend on how
    many restarts run beside it. A step is accepted when it lowers the
    restart's value by more than ACCEPT_MARGIN; it then grows by 1.5 (to at
    most 1), and after 3 rejections in a row it halves. A restart stops
    after ``max_iters`` iterations or once its step falls below ``tol``,
    which counts as converged. Non-convergence is reported in the result,
    never as an exception.
    """
    lam, phi = _eig_support(rho)
    rank = lam.size
    if rank == 1:
        ens = hjw_ensemble(rho, np.eye(1))
        val = average_measure(ens, bipartition, measure)
        return RoofResult(val, ens, True, 0, (val,), (0,), (0,), (0.0,), (True,))

    m = cfg.ensemble_size if cfg.ensemble_size is not None else min(rank * rank, 16)
    m = max(int(m), rank)
    n = cfg.restarts

    def evaluate(u):
        w, stack = _members(u, lam, phi, rho.dims)
        return np.sum(w * _values(measure, stack, bipartition), axis=-1)

    rngs = [np.random.default_rng([cfg.seed, r]) for r in range(n)]
    u = np.array([np.eye(m, rank)] + [_random_isometry(m, rank, g) for g in rngs[1:]],
                 dtype=complex)
    val = evaluate(u)
    step = np.full(n, 0.5)
    iters, accepted, rejects = (np.zeros(n, dtype=int) for _ in range(3))
    block = max(1, min(DRAW_BLOCK, DRAW_BYTES // (16 * n * m * m)))
    blocks = np.empty((n, block, 2, m, m))  # (re, im) of each direction
    while True:
        act = np.flatnonzero((iters < cfg.max_iters) & (step >= cfg.tol))
        if act.size == 0:
            break
        # every active restart has run the same number of iterations
        slot = iters[act[0]] % block
        if slot == 0:
            for r in act:
                rngs[r].standard_normal(out=blocks[r])
        z = blocks[act, slot, 0] + 1j * blocks[act, slot, 1]
        cand = _perturb(u[act], step[act], z)
        cval = evaluate(cand)
        ok = cval < val[act] - ACCEPT_MARGIN
        up, down = act[ok], act[~ok]
        u[up], val[up] = cand[ok], cval[ok]
        step[up] = np.minimum(step[up] * 1.5, 1.0)
        accepted[up] += 1
        rejects[up] = 0
        rejects[down] += 1
        shrink = down[rejects[down] >= 3]  # retry a few directions before shrinking
        step[shrink] *= 0.5
        rejects[shrink] = 0
        iters[act] += 1

    best = int(np.argmin(val))
    converged = step < cfg.tol
    return RoofResult(float(val[best]), hjw_ensemble(rho, u[best]),
                      bool(converged.all()), int(iters.sum()), tuple(val.tolist()),
                      tuple(iters.tolist()), tuple(accepted.tolist()),
                      tuple(step.tolist()), tuple(converged.tolist()))
