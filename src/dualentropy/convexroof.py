"""Convex-roof estimation by Riemannian descent over ensembles.

Every ensemble realizing rho = sum_j lambda_j |phi_j><phi_j| comes from an
m x rank isometry U: member i is the unnormalized state
sum_j U_ij sqrt(lambda_j) |phi_j>, and its squared norm is its weight. The
roof minimizes F(U) = sum_i w_i E(psi_i) over these isometries, so every
value found is an upper bound on the roof.

A roof measure is called once per pass as ``measure(stack, bipartition)``
on a ``SchmidtStack`` of the members' Schmidt spectra x (..., k) across the
cut, never their amplitudes, and returns the pair (E, E'): the values E
(...,) and the exact derivative E'(x) (..., k), as every public pure measure
does, and a wrapper such as ``lambda p, b: e_t_pure(p, b, explicit(4))``
passes on. So a roof measure depends only on the Schmidt spectrum, as every
pure-state entanglement measure does (local-unitary invariance). The pair
yields the gradient. Let a member have Schmidt spectrum x, regrouped amplitudes M
(k x n, k the smaller side) and V the eigenvectors of M M^dagger. Then w E
has the derivative G M, with G = V diag(E') V^dagger + (E - sum_k x_k E'_k) 1;
for k <= 3, x and G come in closed form from the entries of M M^dagger,
without an eigensolver (``states._spectral``): at k = 3 by deflation, the
eigenvalue with the larger gap and its eigenvector first, then the 2 x 2
closed form on the complement. A constant added to E' cancels in G. Where E'
diverges at x_k = 0, the measures mask it to 0 (a log or a power of a zero
base), and the sqrt(x_k) factor of M along that eigenvector keeps G M
finite.

The members are never formed during the search: everything above needs
only their k x k Gram matrices. With A_j = sqrt(lambda_j) phi_j regrouped
across the cut, member i of U has Gram matrix sum_jl u_ij u_il* K_jl, with
K_jl = A_j A_l^dagger fixed per target, and its weight is the trace; the
Euclidean gradient is 2 sum_j u_ij tr(G_i K_jl). So one matmul with the K_jl
gives every member's Gram matrix and weight, and one with their transposes
maps the G_i back to U.

All restarts advance in lockstep as one (R, m, rank) stack. Each iteration
makes one batched value-and-gradient pass over the active restarts at
their trial points. The search reads each (m, rank) slice of a gradient,
direction or step as a real vector of its 2 m rank real and imaginary
parts, a view and not a copy, so that the metric Re tr(A^dagger B) is one
dot product. A trial point retracts U + alpha D, where D is the L-BFGS
direction of the last MEMORY steps, started from the Barzilai-Borwein
scale of the newest, and then shortened to length at most 1 (the first
direction is the bounded negative gradient). The steps, gradient changes
and their inner products sit in per-restart ring buffers of MEMORY slots,
and the first-order decrease <grad, D> is kept with D. The retraction
orthonormalizes the columns of U + alpha D in one classical Gram-Schmidt
pass: for a tangent T, (U + T)^dagger (U + T) = 1 + T^dagger T, so a step
of length at most 1 leaves a condition number of at most sqrt(2), and one
pass is orthonormal to rounding. It gives the Q factor of a QR whose R has
a real positive diagonal, so a small step moves the ensemble by a small
amount. A trial that lowers F by the Armijo fraction ARMIJO of its
first-order decrease is accepted and resets alpha to 1; otherwise alpha
halves. So no trial step alpha D is longer than 1, and an overlong
quasi-Newton direction cannot cost a long run of halvings. A restart has
converged once its Riemannian gradient norm is below ``tol``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .measures import Bipartition
from .states import DensityMatrix, PureState, SchmidtStack, _schmidt_index, _side, _spectral

EIGENVALUE_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-14
ARMIJO = 1e-4
MEMORY = 4  # (s, y) pairs kept for the quasi-Newton direction


@dataclass(frozen=True)
class EnsembleDecomposition:
    """Weights and a stack of pure states whose mixture reconstructs a target state."""

    weights: np.ndarray
    members: PureState


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
        # None would draw a new roof on every call, and a float or negative seed
        # would fail only inside numpy
        try:
            ok = operator.index(self.seed) >= 0
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class RoofResult:
    """Best value over the restarts, with one entry per restart in each tuple.

    ``converged`` holds only when every restart's Riemannian gradient norm,
    reported in ``restart_grad_norms``, fell below ``tol``; ``best_converged``
    when that of the restart with the lowest value did.
    ``iterations_used`` sums the iterations of all restarts;
    ``restart_final_steps`` holds the length of each restart's last accepted
    step (0 when none was accepted). ``best_ensemble``, the ensemble of the
    restart with the lowest value, is built and validated on first read
    from the best isometry and the target's support, held in ``_source``.
    """

    value: float
    converged: bool
    iterations_used: int
    restart_values: tuple[float, ...] = ()
    restart_iterations: tuple[int, ...] = ()
    restart_accepted: tuple[int, ...] = ()
    restart_final_steps: tuple[float, ...] = ()
    restart_converged: tuple[bool, ...] = ()
    restart_grad_norms: tuple[float, ...] = ()
    best_converged: bool = False
    # (u, lam, phi, dims): the best isometry and the target's eigenpairs and dims
    _source: tuple = field(kw_only=True, repr=False, compare=False)

    @functools.cached_property
    def best_ensemble(self) -> EnsembleDecomposition:
        """The members at or above WEIGHT_FLOOR of the best restart's ensemble."""
        u, lam, phi, dims = self._source
        w, amps = _members(u, lam, phi)
        kept = w > 0
        return EnsembleDecomposition(w[kept], PureState(amps[kept], dims))


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


class _Objective:
    """F(U) and its Riemannian gradient for isometry stacks of one target.

    ``forward`` holds the K_jl = A_j A_l^dagger flattened, rows (j, l), with
    their traces as a last column; ``backward`` holds 2 K_jl^T, rows
    (j, a, b), so that egrad_il = 2 sum_j u_ij tr(G_i K_jl) is one matmul.
    """

    def __init__(self, rho: DensityMatrix, bipartition: Bipartition, measure):
        if rho.dims != bipartition.dims:
            raise ValueError(f"a cut of dims {bipartition.dims} asked of a state of dims {rho.dims}")
        self.lam, self.phi = _eig_support(rho)
        self.bipartition, self.measure = bipartition, measure
        # side A normalized once, and the cut's own tuple when it already is, so
        # that the measure's schmidt_spectrum check matches it by identity
        side_a = _side(bipartition.side_a)
        self.side_a = bipartition.side_a if side_a == bipartition.side_a else side_a
        idx = _schmidt_index(rho.dims, self.side_a)
        a = (self.phi.T * np.sqrt(self.lam)[:, None])[:, idx]
        r, k = a.shape[:2]
        kjl = np.einsum("jan,lbn->jlab", a, a.conj())
        self.forward = np.concatenate([kjl.reshape(r * r, k * k),
                                       np.trace(kjl, axis1=2, axis2=3).reshape(r * r, 1)],
                                      axis=1)
        # backward[(j, a, b), l] = 2 K_jl[b, a]
        self.backward = 2.0 * kjl.transpose(0, 3, 2, 1).reshape(r * k * k, r)
        self.k = k
        self.unit = np.eye(1, k * k)[0]  # diag(1, 0, ...) flattened: a product state's Gram

    def grams(self, u: np.ndarray):
        """Weights (..., m), normalized Gram matrices (..., m, k, k) and the
        mask of weights at or above WEIGHT_FLOOR of the members of u. A member
        below the floor gets weight 0 and the Gram matrix of a product state."""
        r = u.shape[-1]
        uu = (u[..., :, None] * u.conj()[..., None, :]).reshape(-1, r * r)
        # one 2-D matmul over all members costs less than a stacked one
        gw = (uu @ self.forward).reshape(u.shape[:-1] + (-1,))
        w = gw[..., -1].real
        keep = w >= WEIGHT_FLOOR
        gram = np.where(keep[..., None], gw[..., :-1] / np.where(keep, w, 1.0)[..., None],
                        self.unit)
        return np.where(keep, w, 0.0), gram.reshape(w.shape + (self.k, self.k)), keep

    def value_and_gradient(self, u: np.ndarray):
        """F (...,) and the Riemannian gradient (..., m, rank) at isometries u."""
        w, gram, keep = self.grams(u)
        x, lift = _spectral(gram)
        out = self.measure(SchmidtStack._trusted(x, self.side_a), self.bipartition)
        e, de = out if isinstance(out, tuple) and len(out) == 2 else (out, None)
        if np.shape(e) != w.shape or np.shape(de) != x.shape:
            raise ValueError("a roof measure returns (E, E') on a SchmidtStack: one value "
                             "per state and one slope per Schmidt coefficient")
        # a constant added to E' cancels in g; a member below the weight floor
        # has zero gradient
        g = (de + (e - (x * de).sum(axis=-1))[..., None]) * keep[..., None]
        gmat = lift(g)
        # egrad_il = sum_(j, a, b) u_ij G_ab backward[(j, a, b), l], with G flattened
        ug = u[..., :, None] * gmat[..., None, :]
        egrad = (ug.reshape(-1, u.shape[-1] * gmat.shape[-1]) @ self.backward).reshape(u.shape)
        return (w * e).sum(axis=-1), _tangent(u, egrad)


def _retract(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Q factor of u + t whose R has a real positive diagonal, for each slice.

    For a tangent t, (u + t)^dagger (u + t) = 1 + t^dagger t, so u + t has
    condition number at most sqrt(2) when |t| <= 1, and one classical
    Gram-Schmidt pass over its columns is orthonormal to rounding.

    The pass makes a few numpy calls per column, so it is kept over
    Householder QR for its speed at ranks 2-4, which cover every qubit cut:
    on a stack of 20 slices (the default restarts; 2 cores, 1 BLAS thread)
    it took 0.47, 0.67 and 0.90 of the time of ``np.linalg.qr`` plus its
    sign fix at (m, rank) = (4, 2), (9, 3) and (16, 4). At rank 9, a
    full-rank 3x3 target, it is slower: 1.14x at 20 slices and 2.0x at 5.
    """
    a = u + t
    for j in range(a.shape[-1]):
        col = a[..., j:j + 1]
        if j:
            q = a[..., :j]
            col -= q @ (q.conj().swapaxes(-1, -2) @ col)
        col /= np.sqrt((col.conj().swapaxes(-1, -2) @ col).real)
    return a


def _tangent(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Projection of a onto the tangent space at u: a - u herm(u^dagger a)."""
    uh_a = u.conj().swapaxes(-1, -2) @ a
    return a - u @ ((uh_a + uh_a.conj().swapaxes(-1, -2)) / 2.0)


def _real(z: np.ndarray) -> np.ndarray:
    """The (m, rank) slices of z as real vectors (..., 2 m rank): a view, not a copy."""
    return z.reshape(z.shape[:-2] + (z.shape[-2] * z.shape[-1],)).view(float)


# the dot product over the last axis, so that _dot(_real(a), _real(b)) =
# Re tr(a^dagger b), the metric of the search; numpy < 2.0 has no np.vecdot
_dot = getattr(np, "vecdot", None) or (lambda a, b: np.einsum("...i,...i->...", a, b))


def _bounded(d: np.ndarray) -> np.ndarray:
    """Each real vector of d scaled to length at most 1."""
    return d / np.maximum(np.sqrt(_dot(d, d)), 1.0)[..., None]


def _quasi_newton(g: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the steps s and gradient changes y.

    ``g`` is (k, N), ``s``, ``y`` are (k, MEMORY, N) real vectors and ``sy``
    (k, MEMORY) holds their dot products, newest first. A pair with
    s.y <= 0, such as an unused all-zero slot, is skipped; H starts from the
    Barzilai-Borwein scale s.y / y.y of the newest pair.
    """
    rho = np.where(sy > 0, 1.0 / np.where(sy > 0, sy, 1.0), 0.0)
    q, a = g.copy(), np.empty(sy.shape)
    for j in range(MEMORY):
        a[:, j] = rho[:, j] * _dot(s[:, j], q)
        q -= a[:, j, None] * y[:, j]
    yy = _dot(y[:, 0], y[:, 0])
    scale = np.where((sy[:, 0] > 0) & (yy > 0), sy[:, 0] / np.where(yy > 0, yy, 1.0), 1.0)
    q *= scale[:, None]
    for j in reversed(range(MEMORY)):
        b = rho[:, j] * _dot(y[:, j], q)
        q += (a[:, j] - b)[:, None] * s[:, j]
    return -q


def _search(obj: _Objective, u, val, grad, gnorm, iters, accepted, cfg: RoofConfig):
    """Run the L-BFGS descent of every restart from u to its stop, in place.

    ``u``, ``val``, ``grad``, ``gnorm``, ``iters`` and ``accepted`` hold one
    entry per restart and are updated as the restarts move. Returns the
    length of each restart's last accepted step, 0 where none was.
    """
    n, m, rank = u.shape
    direction = _bounded(-grad)
    slope = _dot(grad, direction)  # <grad, D>, the slope of F along D for the Armijo test
    step = np.ones(n)
    # ring buffers of the last MEMORY accepted steps, gradient changes and their
    # dot products: a restart's j-th accepted pair sits in slot j % MEMORY
    s_mem, y_mem = np.zeros((2, n, MEMORY, 2 * m * rank))
    sy_mem = np.zeros((n, MEMORY))
    newest_first = -1 - np.arange(MEMORY)
    while True:
        act = np.flatnonzero((iters < cfg.max_iters) & (gnorm >= cfg.tol))
        if act.size == 0:
            break
        t = (step[act, None] * direction[act]).view(complex).reshape(act.size, m, rank)
        trial = _retract(u[act], t)
        tval, tgrad = obj.value_and_gradient(trial)
        ok = tval <= val[act] + ARMIJO * step[act] * slope[act]
        up, down = act[ok], act[~ok]
        u_up, g_up = trial[ok], _real(tgrad[ok])
        s, y = _real(u_up - u[up]), g_up - grad[up]
        slot = accepted[up] % MEMORY
        s_mem[up, slot], y_mem[up, slot], sy_mem[up, slot] = s, y, _dot(s, y)
        accepted[up] += 1
        u[up], val[up], grad[up] = u_up, tval[ok], g_up
        gnorm[up] = np.sqrt(_dot(g_up, g_up))
        rows, order = up[:, None], (accepted[up, None] + newest_first) % MEMORY
        qn = _quasi_newton(g_up, s_mem[rows, order], y_mem[rows, order], sy_mem[rows, order])
        d_up = _bounded(_real(_tangent(u_up, qn.view(complex).reshape(up.size, m, rank))))
        direction[up], slope[up] = d_up, _dot(g_up, d_up)
        step[up] = 1.0
        step[down] /= 2.0
        iters[act] += 1
    newest = s_mem[np.arange(n), (accepted - 1) % MEMORY]  # all zero when none was accepted
    return np.sqrt(_dot(newest, newest))


@functools.lru_cache(maxsize=8)
def _random_starts(seed: int, n: int, m: int, rank: int) -> np.ndarray:
    """The n - 1 random isometries (n - 1, m, rank) of restarts 1..n-1: the Q
    factors of one default_rng(seed) draw, read-only, since every roof of
    one config shares them."""
    # numpy fills the draw in order, so block r - 1 is the same for any n > r
    x = np.random.default_rng(seed).standard_normal((n - 1, 2, m, rank))
    q, _ = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    q.flags.writeable = False
    return q


def convex_roof(rho: DensityMatrix, bipartition: Bipartition, measure,
                cfg: RoofConfig = RoofConfig()) -> RoofResult:
    """Minimize the ensemble-averaged pure-state measure over isometries.

    ``measure(stack, bipartition)`` receives a ``SchmidtStack`` of
    Schmidt spectra across ``bipartition`` and returns the pair (E, E'):
    one value per state and the exact derivative along each Schmidt
    coefficient, as every public pure-state measure does. A ValueError is
    raised when it returns anything else or reads amplitudes. Restart 0
    starts at the eigendecomposition and restart r > 0 at a random isometry
    from block r - 1 of one ``default_rng(seed)`` draw, so the result is
    deterministic for a fixed config and restart r does not depend on how
    many restarts run beside it; a pure target runs one restart of one
    member. The random starts are drawn once per (seed, restarts, m, rank)
    and shared, read-only, by every roof of that config (the last 8 such
    draws are kept). A restart stops once its Riemannian gradient norm is
    below ``tol``, which counts as converged, or after ``max_iters``
    iterations. Converged means stationary, not optimal: the
    eigendecomposition start of restart 0 can be a stationary point above
    the roof. On 0.7 |Phi+><Phi+| + 0.3 |01><01| it stops at iteration 0
    with value 0.7, converged, against h(C) = 0.5919, which only the other
    restarts reach. Non-convergence is reported in the result, never as an
    exception. The result's ``best_ensemble`` is built on its first read.
    """
    obj = _Objective(rho, bipartition, measure)
    rank = obj.lam.size
    m = cfg.ensemble_size if cfg.ensemble_size is not None else min(rank * rank, 16)
    m = rank if rank == 1 else max(int(m), rank)
    n = 1 if rank == 1 else cfg.restarts
    # a fresh array: the search writes into u, never into the shared starts
    u = np.concatenate([np.eye(m, rank, dtype=complex)[None],
                        _random_starts(cfg.seed, n, m, rank)])
    # the loop keeps gradients, directions and steps as real vectors of the
    # (m, rank) slices, so that each inner product is one dot product
    val, grad = obj.value_and_gradient(u)
    grad = _real(grad)
    gnorm = np.sqrt(_dot(grad, grad))
    iters, accepted = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    last_step = np.zeros(n)  # 0 for a restart that accepted no step
    if cfg.max_iters > 0 and np.any(gnorm >= cfg.tol):
        last_step = _search(obj, u, val, grad, gnorm, iters, accepted, cfg)

    best = int(np.argmin(val))
    converged = gnorm < cfg.tol
    return RoofResult(float(val[best]), bool(converged.all()), int(iters.sum()),
                      tuple(val.tolist()), tuple(iters.tolist()), tuple(accepted.tolist()),
                      tuple(last_step.tolist()), tuple(converged.tolist()),
                      tuple(gnorm.tolist()), bool(converged[best]),
                      _source=(u[best], obj.lam, obj.phi, rho.dims))

