"""Convex-roof estimation by Riemannian descent over ensembles.

Every ensemble realizing rho = sum_j lambda_j |phi_j><phi_j| comes from an
m x rank isometry U: member i is the unnormalized state
sum_j U_ij sqrt(lambda_j) |phi_j>, and its squared norm is its weight. The
roof minimizes F(U) = sum_i w_i E(psi_i) over these isometries, so every
value found is an upper bound on the roof.

A roof measure is called as ``measure(stack, bipartition)`` and returns
one value per state of the stack. The roof passes it a ``SchmidtStack``:
Schmidt spectra across the cut, never amplitudes. So a roof measure depends
only on the Schmidt spectrum, as every pure-state entanglement measure does
(local-unitary invariance), and the public pure measures work on it
unchanged; one that reads amplitudes raises ValueError. The spectra yield
the gradient. Let a member have Schmidt spectrum x, regrouped amplitudes M
(k x n, k the smaller side) and V the eigenvectors of M M^dagger. Then w E
has the derivative G M, with G = V diag(E') V^dagger + (E - sum_k x_k E'_k) 1;
for k = 2, x and G come in closed form from the entries of M M^dagger,
without an eigensolver. The differences E'_j - E'_0 are central differences
of the measure itself at the probe spectra x +- d_j (e_j - e_0), 2 (k - 1)
per member, evaluated in the same measure call as the members' x.

All restarts advance in lockstep as one (R, m, rank) stack. Each iteration
makes one batched value-and-gradient pass over the active restarts at
their trial points. A trial point retracts U + alpha D, where D is the
L-BFGS direction of the last MEMORY steps, started from the
Barzilai-Borwein scale of the newest, and then shortened to length at
most 1 (the first direction is the bounded negative gradient). The
retraction is the Q factor of a QR whose R has a real positive diagonal,
so a small step moves the ensemble by a small amount. A trial that lowers
F by the Armijo fraction ARMIJO of its first-order decrease is accepted
and resets alpha to 1; otherwise alpha halves. So no trial step alpha D is
longer than 1, and an overlong quasi-Newton direction cannot cost a long
run of halvings. A restart has converged once its Riemannian gradient norm is below ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import Bipartition
from .states import DensityMatrix, PureStack, SchmidtStack, _cut_matrix, _gram2

EIGENVALUE_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-14
ISOMETRY_TOL = 1e-10
# probe offset relative to the Schmidt coefficient it moves
PROBE_STEP = 1e-4
ARMIJO = 1e-4
MEMORY = 4  # (s, y) pairs kept for the quasi-Newton direction


@dataclass(frozen=True)
class EnsembleDecomposition:
    """Weights and a stack of pure states whose mixture reconstructs a target state."""

    weights: np.ndarray
    members: PureStack

    def reconstruct(self) -> np.ndarray:
        a = self.members.amplitudes
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

    ``converged`` holds only when every restart's Riemannian gradient norm,
    reported in ``restart_grad_norms``, fell below ``tol``.
    ``iterations_used`` sums the iterations of all restarts;
    ``restart_final_steps`` holds the length of each restart's last accepted
    step (0 when none was accepted).
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
    restart_grad_norms: tuple[float, ...] = ()


def _eig_support(rho: DensityMatrix):
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > EIGENVALUE_FLOOR
    w, v = w[keep][::-1], v[:, keep][:, ::-1]
    return w, v


def _members(u: np.ndarray, lam: np.ndarray, phi: np.ndarray):
    """Weights (..., m) and member amplitudes (..., m, D) of isometries u.

    ``u`` stacks m x rank isometries; row i of each gives the unnormalized
    member sum_j u_ij sqrt(lambda_j) |phi_j>, whose squared norm is its
    weight. A member below WEIGHT_FLOOR gets weight 0, and |0...0> stands in
    for it so that the members stay normalized.
    """
    raw = (u * np.sqrt(lam)) @ phi.T
    w = np.sum(raw.real ** 2 + raw.imag ** 2, axis=-1)
    keep = w >= WEIGHT_FLOOR
    amps = raw / np.sqrt(np.where(keep, w, 1.0))[..., None]
    amps[~keep] = np.eye(1, raw.shape[-1])
    return np.where(keep, w, 0.0), amps


def _values(measure, stack, bipartition: Bipartition) -> np.ndarray:
    vals = np.asarray(measure(stack, bipartition), dtype=float)
    if vals.shape != stack.shape:
        raise ValueError(f"measure returned shape {vals.shape} for a stack of shape "
                         f"{stack.shape}; a roof measure returns one value per state")
    return vals


class _Objective:
    """F(U) and its Riemannian gradient for isometry stacks of one target."""

    def __init__(self, rho: DensityMatrix, bipartition: Bipartition, measure):
        self.lam, self.phi = _eig_support(rho)
        self.bipartition, self.measure = bipartition, measure
        idx, _ = _cut_matrix(np.arange(rho.dim), rho.dims, bipartition.side_a)
        self.idx = idx if idx.shape[0] <= idx.shape[1] else idx.T  # (k, n), k <= n
        self.inverse = np.argsort(self.idx.ravel())
        k = self.idx.shape[0]
        self.probe_dirs = np.eye(k)[1:] - np.eye(k)[0]  # e_j - e_0, j = 1 .. k-1
        # the Euclidean gradient in U of a member gradient z is z (sqrt(lam) phi^T)^dagger
        self.back = self.phi.conj() * np.sqrt(self.lam)

    def value_and_gradient(self, u: np.ndarray):
        """F (...,) and the Riemannian gradient (..., m, rank) at isometries u."""
        w, amps = _members(u, self.lam, self.phi)
        mat = amps[..., self.idx]
        k = mat.shape[-2]
        if k == 2:
            p, q, c, hi, lo = _gram2(mat)
            x = np.stack([hi, lo], axis=-1)
        else:
            mu, v = np.linalg.eigh(mat @ mat.conj().swapaxes(-1, -2))
            x, v = np.maximum(mu[..., ::-1], 0.0), v[..., ::-1]
        # the members' x, then the probes x +- d_j (e_j - e_0) with d_j = PROBE_STEP x_j
        d = PROBE_STEP * x[..., 1:]
        shift = d[..., None] * self.probe_dirs
        x1 = x[..., None, :]
        vals = _values(self.measure, SchmidtStack(
            np.concatenate([x1, x1 + shift, x1 - shift], axis=-2),
            self.bipartition.side_a), self.bipartition)
        e = vals[..., 0]
        # E'_j - E'_0 for j >= 1; E'_0 is set to 0, as G depends only on the differences
        de = (vals[..., 1:k] - vals[..., k:2 * k - 1]) / np.where(d > 0, 2.0 * d, 1.0)
        de = np.concatenate([np.zeros(de.shape[:-1] + (1,)), de], axis=-1)
        g = de + (e - np.sum(x * de, axis=-1))[..., None]
        if k == 2:
            # G = g_0 1 + (g_1 - g_0) P with P = (hi 1 - M M^dagger) / (hi - lo) the
            # projector on the lower eigenvector; at hi = lo the measure's symmetry
            # makes g_1 = g_0 and the term is dropped
            shifted = np.stack([np.stack([hi - p, -c], axis=-1),
                              np.stack([-c.conj(), hi - q], axis=-1)], axis=-2)
            coef = (g[..., 1] - g[..., 0]) / np.where(hi > lo, hi - lo, np.inf)
            gmat = g[..., 0, None, None] * np.eye(2) + coef[..., None, None] * shifted
        else:
            gmat = (v * g[..., None, :]) @ v.conj().swapaxes(-1, -2)
        z = gmat @ mat
        z *= np.sqrt(w)[..., None, None]
        egrad = 2.0 * (z.reshape(amps.shape)[..., self.inverse] @ self.back)
        return np.sum(w * e, axis=-1), _tangent(u, egrad)


def _retract(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Q factor of u + t whose R has a real positive diagonal, for each slice."""
    q, r = np.linalg.qr(u + t)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _tangent(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Projection of a onto the tangent space at u: a - u herm(u^dagger a)."""
    uh_a = u.conj().swapaxes(-1, -2) @ a
    return a - u @ ((uh_a + uh_a.conj().swapaxes(-1, -2)) / 2.0)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a^dagger b) of each (m, rank) slice: the metric of the search."""
    return np.einsum("...ij,...ij->...", a.conj(), b).real


def _bounded(d: np.ndarray) -> np.ndarray:
    """Each (m, rank) slice of d scaled to length at most 1 in the ``_inner`` metric."""
    return d / np.maximum(np.sqrt(_inner(d, d)), 1.0)[..., None, None]


def _quasi_newton(g: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the steps s and gradient changes y.

    ``g`` is (k, m, rank) and ``s``, ``y`` are (k, MEMORY, m, rank), newest
    first. A pair with s.y <= 0, such as an unused all-zero slot, is skipped;
    H starts from the Barzilai-Borwein scale s.y / y.y of the newest pair.
    """
    sy = _inner(s, y)
    rho = np.where(sy > 0, 1.0 / np.where(sy > 0, sy, 1.0), 0.0)
    q, a = g.copy(), np.empty(sy.shape)
    for j in range(MEMORY):
        a[:, j] = rho[:, j] * _inner(s[:, j], q)
        q -= a[:, j, None, None] * y[:, j]
    yy = _inner(y[:, 0], y[:, 0])
    scale = np.where((sy[:, 0] > 0) & (yy > 0), sy[:, 0] / np.where(yy > 0, yy, 1.0), 1.0)
    q *= scale[:, None, None]
    for j in reversed(range(MEMORY)):
        b = rho[:, j] * _inner(y[:, j], q)
        q += (a[:, j] - b)[:, None, None] * s[:, j]
    return -q


def hjw_ensemble(rho: DensityMatrix, isometry: np.ndarray) -> EnsembleDecomposition:
    """Ensemble generated by an m x rank isometry acting on the eigenensemble.

    Row i gives the unnormalized state sum_j u_ij sqrt(lambda_j) |phi_j>;
    weights are the squared norms. The mixture reconstructs ``rho`` exactly.
    """
    lam, phi = _eig_support(rho)
    u = np.asarray(isometry, dtype=complex)
    if u.ndim != 2 or u.shape[1] != lam.size or u.shape[0] < lam.size:
        raise ValueError(f"isometry shape {u.shape} incompatible with rank {lam.size}")
    if not np.max(np.abs(u.conj().T @ u - np.eye(lam.size))) <= ISOMETRY_TOL:
        raise ValueError("columns are not orthonormal")
    return _ensemble(u, lam, phi, rho.dims)


def _ensemble(u: np.ndarray, lam: np.ndarray, phi: np.ndarray, dims) -> EnsembleDecomposition:
    """The members of one isometry u with a nonzero weight."""
    w, amps = _members(u, lam, phi)
    kept = w > 0
    return EnsembleDecomposition(w[kept], PureStack(amps[kept], dims))


def _start(m: int, rank: int, restarts: int, seed: int) -> np.ndarray:
    """Restart 0 at the eigendecomposition, restart r at an isometry from
    ``default_rng([seed, r])``: one (restarts, m, rank) stack, one QR."""
    z = np.array([(g.standard_normal((m, rank)) + 1j * g.standard_normal((m, rank)))
                  for g in (np.random.default_rng([seed, r]) for r in range(1, restarts))])
    q, _ = np.linalg.qr(z.reshape(-1, m, rank))
    return np.concatenate([np.eye(m, rank, dtype=complex)[None], q])


def average_measure(ensemble: EnsembleDecomposition, bipartition: Bipartition,
                    measure) -> float:
    return float(ensemble.weights @ _values(measure, ensemble.members, bipartition))


def convex_roof(rho: DensityMatrix, bipartition: Bipartition, measure,
                cfg: RoofConfig = RoofConfig()) -> RoofResult:
    """Minimize the ensemble-averaged pure-state measure over isometries.

    ``measure(stack, bipartition)`` receives a ``SchmidtStack`` of
    Schmidt spectra across ``bipartition`` and returns one value per state,
    as every public pure-state measure does; a ValueError is raised when it
    returns another shape or reads amplitudes. Restart 0
    starts at the eigendecomposition and restart r > 0 at a random isometry
    from ``default_rng([seed, r])``, so the result is deterministic for a
    fixed config and restart r does not depend on how many restarts run
    beside it. A restart stops once its Riemannian gradient norm is below
    ``tol``, which counts as converged, or after ``max_iters`` iterations.
    Non-convergence is reported in the result, never as an exception.
    """
    obj = _Objective(rho, bipartition, measure)
    rank = obj.lam.size
    m = cfg.ensemble_size if cfg.ensemble_size is not None else min(rank * rank, 16)
    m = rank if rank == 1 else max(int(m), rank)
    n = 1 if rank == 1 else cfg.restarts
    u = _start(m, rank, n, cfg.seed)
    val, grad = obj.value_and_gradient(u)
    if rank == 1:
        v0 = float(val[0])
        return RoofResult(v0, _ensemble(u[0], obj.lam, obj.phi, rho.dims), True, 0, (v0,),
                          (0,), (0,), (0.0,), (True,), (0.0,))

    gnorm = np.sqrt(_inner(grad, grad))
    direction = _bounded(-grad)
    step = np.ones(n)
    # steps and gradient changes of the last MEMORY accepted trials, newest first
    s_mem, y_mem = np.zeros((2, n, MEMORY, m, rank), dtype=complex)
    iters, accepted = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    while True:
        act = np.flatnonzero((iters < cfg.max_iters) & (gnorm >= cfg.tol))
        if act.size == 0:
            break
        trial = _retract(u[act], step[act, None, None] * direction[act])
        tval, tgrad = obj.value_and_gradient(trial)
        ok = tval <= val[act] + ARMIJO * step[act] * _inner(grad[act], direction[act])
        up, down = act[ok], act[~ok]
        s_mem[up], y_mem[up] = np.roll(s_mem[up], 1, axis=1), np.roll(y_mem[up], 1, axis=1)
        s_mem[up, 0], y_mem[up, 0] = trial[ok] - u[up], tgrad[ok] - grad[up]
        u[up], val[up], grad[up] = trial[ok], tval[ok], tgrad[ok]
        gnorm[up] = np.sqrt(_inner(grad[up], grad[up]))
        direction[up] = _bounded(_tangent(u[up], _quasi_newton(grad[up], s_mem[up],
                                                               y_mem[up])))
        step[up] = 1.0
        step[down] /= 2.0
        accepted[up] += 1
        iters[act] += 1

    best = int(np.argmin(val))
    converged = gnorm < cfg.tol
    last_step = np.sqrt(_inner(s_mem[:, 0], s_mem[:, 0]))
    return RoofResult(float(val[best]), _ensemble(u[best], obj.lam, obj.phi, rho.dims),
                      bool(converged.all()), int(iters.sum()), tuple(val.tolist()),
                      tuple(iters.tolist()), tuple(accepted.tolist()),
                      tuple(last_step.tolist()), tuple(converged.tolist()),
                      tuple(gnorm.tolist()))
