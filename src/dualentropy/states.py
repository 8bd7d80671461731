"""State containers and linear-algebra primitives.

Pure states and density matrices carry an explicit subsystem-dimension
signature ``dims``; subsystem 0 is the leftmost tensor factor in row-major
ordering. All containers are immutable after construction and every
operation is a pure function, so everything here is safe to call from
concurrent workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
PSD_TOL = 1e-10
SPECTRUM_SUM_TOL = 1e-8
EIG_CLAMP = 1e-10


class StateValidationError(ValueError):
    """Raised when a state container violates its invariants."""


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only complex copy of a, whose entries must all be finite."""
    a = np.array(a, dtype=complex)
    if not np.isfinite(a).all():
        raise StateValidationError("state has non-finite entries (NaN or infinity)")
    a.setflags(write=False)
    return a


def _check_dims(dims: Sequence[int], size: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise StateValidationError(f"invalid subsystem dimensions {dims}")
    if math.prod(dims) != size:
        raise StateValidationError(
            f"product of dims {dims} does not match size {size}")
    return dims


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitudes over a tensor-product space.

    ``amplitudes`` has shape (..., d), one pure state per vector along the
    last axis and each checked for unit norm: a single state has ``shape`` ()
    and a stack the shape of its leading axes.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = _freeze(self.amplitudes)
        if amps.ndim < 1:
            raise StateValidationError("a pure state needs amplitudes of shape (..., d)")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _check_dims(self.dims, amps.shape[-1]))
        sq = np.sum(amps.real ** 2 + amps.imag ** 2, axis=-1)
        if not np.all(np.abs(sq - 1.0) <= NORM_TOL):
            raise StateValidationError(
                f"state not normalized: |psi|^2 in [{sq.min()}, {sq.max()}]")

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the stack: () for a single state."""
        return self.amplitudes.shape[:-1]

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]

    def unstack(self) -> list["PureState"]:
        """The states of the stack, in row-major order of ``shape``, as single
        states: read-only views of its rows, which its own check validated,
        so none is checked again."""
        states = []
        for row in self.amplitudes.reshape(-1, self.dim):
            state = object.__new__(PureState)
            state.__dict__.update(amplitudes=row, dims=self.dims)
            states.append(state)
        return states

    def density(self) -> "DensityMatrix":
        if self.shape:
            raise ValueError(f"density() needs a single state, not a stack of shape {self.shape}")
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()), self.dims)


@dataclass(frozen=True)
class SchmidtStack:
    """Squared Schmidt coefficients of a stack of pure states across one cut:
    the convex roof's request to a pure-state measure.

    ``spectra`` has shape (..., k), one distribution per state, and
    ``side_a`` names side A of the cut they were taken across. A pure-state
    measure answers it with the pair (E, E'), its values (...,) and its
    derivative (..., k), and ``schmidt_spectrum`` returns its spectra. It
    holds no amplitudes: reading ``amplitudes`` raises ValueError. The
    spectra are stored as given, without the normalization check of a
    ``PureState``: the convex roof builds one per pass from the spectra of
    validated members.
    """

    spectra: np.ndarray
    side_a: tuple[int, ...]

    def __post_init__(self):
        x = np.array(self.spectra, dtype=float)
        if x.ndim < 1:
            raise StateValidationError("a Schmidt stack needs spectra of shape (..., k)")
        x.setflags(write=False)
        object.__setattr__(self, "spectra", x)
        object.__setattr__(self, "side_a", _side(self.side_a))

    @classmethod
    def _trusted(cls, spectra: np.ndarray, side_a: tuple[int, ...]) -> "SchmidtStack":
        """A stack of fresh float spectra (..., k) across a side already normalized
        by ``_side``, made read-only in place: the convex roof's request of each
        pass, without the copy and the sort of the constructor."""
        spectra.setflags(write=False)
        stack = object.__new__(cls)
        stack.__dict__.update(spectra=spectra, side_a=side_a)
        return stack

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the stack: one entry per state."""
        return self.spectra.shape[:-1]

    @property
    def amplitudes(self):
        raise ValueError("a roof measure must depend only on the Schmidt spectrum "
                         "across the cut: it read the amplitudes of a SchmidtStack")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator with a subsystem signature."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateValidationError(f"matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _check_dims(self.dims, m.shape[0]))
        # written so that NaN fails every comparison
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL:
            raise StateValidationError("matrix is not Hermitian")
        if not abs(np.trace(m).real - 1.0) <= TRACE_TOL:
            raise StateValidationError(f"trace is {np.trace(m).real}, expected 1")
        # PSD check without diagonalizing: m + PSD_TOL * 1 has a Cholesky
        # factor iff every eigenvalue of m exceeds -PSD_TOL
        try:
            np.linalg.cholesky(m + PSD_TOL * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            raise StateValidationError(
                f"negative eigenvalue {np.linalg.eigvalsh(m).min()}") from None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues: the one eigendecomposition, made on first use."""
        w = np.linalg.eigvalsh(self.matrix)
        w.setflags(write=False)
        return w


def tensor(a, b):
    """Kronecker product of two states of the same kind.

    The result's ``dims`` is the concatenation of the operand dims. Stacks
    of pure states are rejected.
    """
    if isinstance(a, PureState) and isinstance(b, PureState) and a.shape == b.shape == ():
        return PureState(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    raise TypeError("tensor requires two PureState or two DensityMatrix operands")


def tensor_all(states: Iterable):
    return reduce(tensor, states)


def _side(side_a) -> tuple[int, ...]:
    """Side A of a cut, sorted and deduplicated."""
    return tuple(sorted(set(int(k) for k in side_a)))


def _cut(dims: tuple[int, ...], side_a, proper: bool = True):
    """Validate side A of a cut of the subsystems ``dims``.

    Returns (side_a, side_b): A sorted and deduplicated, B its ascending
    complement. A must be nonempty (ValueError) and index into ``dims``
    (IndexError); a ``proper`` cut also needs a nonempty B (ValueError).
    """
    side_a = _side(side_a)
    if not side_a:
        raise ValueError("side A of a cut must be nonempty")
    if side_a[0] < 0 or side_a[-1] >= len(dims):
        raise IndexError(f"subsystem index out of range for dims {dims}: {side_a}")
    side_b = tuple(i for i in range(len(dims)) if i not in side_a)
    if proper and not side_b:
        raise ValueError("side_a must be a proper subset of the subsystems")
    return side_a, side_b


def _cut_index(dims: tuple[int, ...], side_a, proper: bool = True):
    """Validate a cut and map it onto the basis of ``dims``.

    Returns idx of shape (d_A, d_B), where idx[a, b] is the basis index of
    the product |a>_A |b>_B, and the dims of side A. Indexing the last axis of
    amplitudes with idx regroups them as (d_A, d_B) matrices.
    """
    side_a, side_b = _cut(dims, side_a, proper)
    dims_a = tuple(dims[i] for i in side_a)
    idx = np.arange(math.prod(dims)).reshape(dims).transpose(side_a + side_b)
    return idx.reshape(math.prod(dims_a), -1), dims_a


def _schmidt_index(dims: tuple[int, ...], side_a) -> np.ndarray:
    """The map of a proper cut oriented as (k, n), with k = min(d_A, d_B) <= n:
    read-only, and built once per (dims, side_a)."""
    return _schmidt_index_of(tuple(dims), tuple(side_a))


@lru_cache(maxsize=256)
def _schmidt_index_of(dims: tuple[int, ...], side_a: tuple) -> np.ndarray:
    idx, _ = _cut_index(dims, side_a)
    idx = idx if idx.shape[0] <= idx.shape[1] else idx.T
    idx.setflags(write=False)
    return idx


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the kept subsystems (ascending index order)."""
    idx, dims_a = _cut_index(rho.dims, keep, proper=False)
    # t[a, b, a', b'] = <a b| rho |a' b'>
    t = rho.matrix[idx[:, :, None, None], idx]
    return DensityMatrix(np.einsum("xjyj->xy", t), dims_a)


def reduced_state(psi: PureState, keep) -> DensityMatrix:
    """Marginal of a pure state without forming the global density matrix."""
    idx, dims_a = _cut_index(psi.dims, keep, proper=False)
    m = psi.amplitudes[..., idx]
    return DensityMatrix(m @ m.conj().swapaxes(-1, -2), dims_a)


def permute_subsystems(rho: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Reorder tensor factors; ``perm[k]`` is the old index placed at slot k."""
    dims = rho.dims
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of {n} subsystems: {perm}")
    t = rho.matrix.reshape(dims + dims)
    t = t.transpose(perm + [n + p for p in perm])
    d = rho.dim
    return DensityMatrix(t.reshape(d, d), tuple(dims[p] for p in perm))


def spectrum(rho: DensityMatrix) -> np.ndarray:
    """Full eigenvalue spectrum, clamped to [0, 1], descending, renormalized.

    ``rho`` is diagonalized on the first call only. Eigenvalues in
    [-EIG_CLAMP, 0) and (1, 1 + EIG_CLAMP] are clamped to the nearest
    endpoint; larger excursions raise ``StateValidationError``.
    """
    w = rho._eigenvalues
    if w.min() < -EIG_CLAMP or w.max() > 1 + EIG_CLAMP:
        raise StateValidationError(f"eigenvalues outside [0,1]: [{w.min()}, {w.max()}]")
    w = np.clip(w, 0.0, 1.0)
    s = w.sum()
    if abs(s - 1.0) > SPECTRUM_SUM_TOL:
        raise StateValidationError(f"eigenvalue sum {s} too far from 1")
    return np.sort(w / s)[::-1]


def _eig2(p: np.ndarray, q: np.ndarray, c: np.ndarray):
    """Eigenvalues hi >= lo >= 0 of the PSD matrices [[p, c], [c*, q]] in closed
    form; the form with tr^2 - 4 det would cancel near the degenerate point 1/2."""
    cc = c.real ** 2 + c.imag ** 2
    hi = (p + q + np.sqrt((p - q) ** 2 + 4.0 * cc)) / 2.0
    return hi, np.maximum(p * q - cc, 0.0) / hi


def _lift2(p, q, c, hi, gap, g_hi, g_lo):
    """The entries (s, t, u) of G = [[s, t], [t*, u]] = g_hi P_hi + g_lo P_lo for
    the matrices M = [[p, c], [c*, q]] of eigenvalues hi and hi - gap, without
    their eigenvectors: G = g_hi 1 + (g_lo - g_hi) P_lo, with
    P_lo = (hi 1 - M) / gap the projector on the lower eigenvector. At gap 0 a
    slope symmetric in the spectrum has g_lo = g_hi, and the term is dropped."""
    coef = (g_lo - g_hi) / np.where(gap > 0, gap, np.inf)
    return g_hi + coef * (hi - p), -coef * c, g_hi + coef * (hi - q)


# Index tables of the 3 x 3 step. _CYCLIC gathers from a flattened matrix (row
# 3 i + j) its cyclic extension ext[p, q] = A_(p+1 mod 3)(q+1 mod 3), p, q < 4.
# _W1_ROW[i, j] is the row of component i of conj(v x e_j) in the stack
# (conj(v), -conj(v), 0).
_CYCLIC = (3 * np.array([1, 2, 0, 1])[:, None] + np.array([1, 2, 0, 1])).ravel()
_W1_ROW = np.array([[6, 5, 1], [2, 6, 3], [4, 0, 6]])
_THREE = np.arange(3)[:, None]
_ROTATE = np.array([2, 0, 1])


@lru_cache(maxsize=16)
def _grid(n: int) -> np.ndarray:
    """grid[i, col] = i n + col, the flat index of [i, col] in a (3, n) array;
    read-only, and built once per stack size."""
    grid = _THREE * n + np.arange(n)
    grid.setflags(write=False)
    return grid


def _spectral(gram: np.ndarray):
    """The spectral step of PSD matrices A (..., k, k): the eigenvalues x
    (..., k), descending and clipped at 0, and lift(g), which maps g
    (..., k), one value per entry of x, to G = V diag(g) V^dagger flattened
    (..., k k), with V the eigenvectors. It runs in closed form for k <= 3
    and through one batched ``eigh`` for k >= 4."""
    k = gram.shape[-1]
    if k == 2:
        return _spectral2(gram)
    if k == 3:
        return _spectral3(gram)
    mu, v = np.linalg.eigh(gram)
    x, v = np.maximum(mu[..., ::-1], 0.0), v[..., ::-1]
    return x, lambda g: ((v * g[..., None, :]) @ v.conj().swapaxes(-1, -2)).reshape(
        x.shape[:-1] + (k * k,))


def _spectral2(gram: np.ndarray):
    """``_spectral`` for k = 2: ``_eig2`` and ``_lift2`` on the entries of A."""
    p, q, c = gram[..., 0, 0].real, gram[..., 1, 1].real, gram[..., 0, 1]
    x = np.empty(p.shape + (2,))
    x[..., 0], x[..., 1] = _eig2(p, q, c)

    def lift(g: np.ndarray) -> np.ndarray:
        hi, lo = x[..., 0], x[..., 1]
        s, t, u = _lift2(p, q, c, hi, hi - lo, g[..., 0], g[..., 1])
        gmat = np.empty(p.shape + (4,), dtype=complex)
        gmat[..., 0], gmat[..., 1], gmat[..., 2], gmat[..., 3] = s, t, t.conj(), u
        return gmat

    return x, lift


def _spectral3(gram: np.ndarray):
    """``_spectral`` for k = 3, by deflation: no eigensolver call per matrix.

    1. Of the trigonometric roots, only the eigenvalue with the larger gap
       is taken: the top one when r = det(B) / 2 >= 0 for
       B = (A - tr(A)/3) / p, else the bottom one. Its angle is well
       conditioned, where the other two lose sqrt(eps) near a double root.
    2. Its eigenvector v is the row of the cofactors of A - lambda 1 with the
       largest diagonal entry: a column of the adjugate, which has rank 1.
    3. w_1 = conj(v x e_j) and w_2 = conj(v x w_1), for the smallest |v_j|,
       make with v an orthonormal basis X = (v, w_1, w_2), once normalized.
    4. X^dagger A X gives the Rayleigh quotient v^dagger A v as the isolated
       eigenvalue and the 2 x 2 block W^dagger A W, whose eigenvalues and G
       come in closed form (``_lift2``). G = V diag(g) V^dagger is then
       X C X^dagger, with C = g_iso on v and the block's G on W.
    Every step is entry-wise over the stack, with the matrices on the last
    axis, and guards every division, so that no input warns.
    """
    shape = gram.shape[:-2]
    f = np.ascontiguousarray(gram.reshape(-1, 9).T)  # f[3 i + j] = A_ij, one column per matrix
    n = f.shape[1]
    grid = _grid(n)
    # 1. the isolated eigenvalue lambda = m + mu, from B = A - m 1 with m = tr(A) / 3:
    # r = det(B) / (2 p^3), p^2 = tr(B^2) / 6, and det(B) along row 0 of the
    # cofactors of B. c holds B, and then C = A - lambda 1
    d = f[::4].real
    m = (d[0] + d[1] + d[2]) / 3.0
    c = f.copy()
    c[::4] -= m
    pp = (c.real ** 2 + c.imag ** 2).sum(axis=0) / 6.0
    p = np.sqrt(pp)
    ext = c[_CYCLIC[:8]].reshape(2, 4, n)  # ext[p, q] = c_(p+1 mod 3)(q+1 mod 3)
    cof = ext[0, :3] * ext[1, 1:] - ext[0, 1:] * ext[1, :3]
    det = (c[:3] * cof).sum(axis=0).real
    cube = 2.0 * pp * p
    r = det / np.where(cube > 0, cube, 1.0)
    top = r >= 0
    angle = (np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) / 3.0
             + np.where(top, 0.0, 2.0 * np.pi / 3.0))
    c[::4] -= 2.0 * p * np.cos(angle)
    # 2. its eigenvector, from the cofactors of C: cof_ij = ext_ij ext_(i+1)(j+1) -
    # ext_i(j+1) ext_(i+1)j. Row i of them is column i of the adjugate, which has
    # rank 1: the row of the largest diagonal entry is the largest multiple of v
    ext = c[_CYCLIC].reshape(4, 4, n)
    cof = (ext[:3, :3] * ext[1:, 1:] - ext[:3, 1:] * ext[1:, :3]).reshape(9, n)
    v = cof.ravel().take(np.abs(cof[::4].real).argmax(axis=0) * (3 * n) + grid)
    vv = v.real ** 2 + v.imag ** 2
    ss = vv[0] + vv[1] + vv[2]
    v[1] += ss == 0  # C = 0: A is a multiple of 1, and any unit vector will do
    ss += ss == 0
    # 3. X = (v / |v|, conj(v x e_j) / q, (v conj(v_j) - |v|^2 e_j) / (|v| q)), with
    # q^2 = |v|^2 - |v_j|^2 >= 2 |v|^2 / 3 for the smallest |v_j|: v and an
    # orthonormal basis W = (w_1, w_2) of its complement, w_2 = conj(v x w_1) / |v|
    j = vv.argmin(axis=0)
    at_j = j * n + grid[0]
    signed = np.concatenate([v.conj(), -v.conj(), np.zeros((1, n))]).ravel()
    basis = np.empty((3, 3, n), dtype=complex)  # basis[i, k]: component i of X_k
    basis[:, 0] = v
    basis[:, 1] = signed.take(_W1_ROW.take(j, axis=1) * n + grid[0])
    basis[:, 2] = v * signed[at_j] - (_THREE == j) * ss
    r_v, r_q = 1.0 / np.sqrt(ss), 1.0 / np.sqrt(ss - vv.ravel()[at_j])
    basis *= np.array([r_v, r_q, r_v * r_q])
    # 4. X^dagger A X: its diagonal (the Rayleigh quotient v^dagger A v and the
    # diagonal of the block W^dagger A W) and the block's off-diagonal entry
    a = f.reshape(3, 3, 1, n)
    ax = a[:, 0] * basis[0] + a[:, 1] * basis[1] + a[:, 2] * basis[2]
    conj_x = basis.conj()
    quad = conj_x * ax
    lam, p2, q2 = (quad[0] + quad[1] + quad[2]).real
    quad = conj_x[:, 1] * ax[:, 2]
    c2 = quad[0] + quad[1] + quad[2]
    # the block's eigenvalues: its entries carry an absolute error of order eps,
    # so the small one from hi - gap is as accurate as from det / hi, and hi = 0
    # (the zero block of a product state) needs no guard
    gap = np.hypot(p2 - q2, 2.0 * np.abs(c2))
    hi = (p2 + q2 + gap) / 2.0
    lo = hi - gap
    # the isolated eigenvalue keeps its side of the block through rounding:
    # x is rows 0-2 of (iso, hi, lo, iso) at the top, else rows 1-3
    iso = np.where(top, np.maximum(lam, hi), np.minimum(lam, lo))
    ends = np.array([iso, hi, lo, iso])
    x = np.where(top, ends[:3], ends[1:]).T

    def lift(g: np.ndarray) -> np.ndarray:
        g = g.reshape(-1, 3).T
        g_iso, g_hi, g_lo = np.where(top, g, g[_ROTATE])
        s, t, u = _lift2(p2, q2, c2, hi, gap, g_hi, g_lo)
        # G = X C X^dagger with C = [[g_iso, 0, 0], [0, s, t], [0, t*, u]]: the columns
        # of conj(X C) are conj(v) g_iso, conj(w_1) s + conj(w_2) t, conj(w_1) t* + conj(w_2) u
        xc = conj_x * np.array([g_iso, s, u])
        xc[:, 1] += t * conj_x[:, 2]
        xc[:, 2] += t.conj() * conj_x[:, 1]
        prod = basis[:, None] * xc[None]  # gmat[a, b] = sum_c X_ac conj(X C)_bc
        gmat = prod[:, :, 0] + prod[:, :, 1] + prod[:, :, 2]
        return np.ascontiguousarray(gmat.reshape(9, n).T).reshape(shape + (9,))

    return np.maximum(x, 0.0).reshape(shape + (3,)), lift


def schmidt_spectrum(psi, side_a) -> np.ndarray:
    """Squared Schmidt coefficients: the spectrum of either marginal.

    ``psi`` is a ``PureState`` of shape S (result shape S + (k,)), with
    k = min(d_A, d_B); the values are descending and >= 0. They are the
    eigenvalues of the k x k Gram matrix G = M M^dagger of the regrouped
    amplitudes M: in closed form for k = 2, else from one batched
    ``eigvalsh`` over the stack. A ``SchmidtStack`` gives its own spectra,
    and ValueError when it was taken across another cut.
    """
    if isinstance(psi, SchmidtStack):
        # the roof passes the very tuple it stored, and then no sort is needed
        if side_a is not psi.side_a and _side(side_a) != psi.side_a:
            raise ValueError(f"Schmidt spectra across side A {psi.side_a} asked for "
                             f"across side A {_side(side_a)}")
        return psi.spectra
    m = psi.amplitudes[..., _schmidt_index(psi.dims, side_a)]
    if m.shape[-2] == 2:
        # the Gram matrix [[p, c], [c*, q]] of the rows a, b: p = |a|^2, q = |b|^2, c = <b|a>
        pq = np.einsum("...ij,...ij->...i", m, m.conj()).real
        c = np.einsum("...j,...j->...", m[..., 0, :], m[..., 1, :].conj())
        x = np.empty(pq.shape)
        x[..., 0], x[..., 1] = _eig2(pq[..., 0], pq[..., 1], c)
        return x
    gram = m @ m.conj().swapaxes(-1, -2)
    return np.maximum(np.linalg.eigvalsh(gram)[..., ::-1], 0.0)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    m = rho.matrix
    return float(np.real(np.sum(m * m.T)))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex-Gaussian matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def random_pure(dims, seed=None) -> PureState:
    """Haar-style random pure state; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), tuple(dims))


def random_density(dims, rank=None, seed=None) -> DensityMatrix:
    """Random mixed state of bounded rank from a traced-out purification."""
    rng = np.random.default_rng(seed)
    dims = tuple(dims)
    d = math.prod(dims)
    if rank is None:
        rank = d
    rank = int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    v = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    v /= np.linalg.norm(v)
    return DensityMatrix(v @ v.conj().T, dims)


# --- JSON wire format: {dims: [int], re: [float], im: [float]} ------------

def state_to_json(state) -> dict:
    if isinstance(state, PureState) and state.shape == ():
        flat = state.amplitudes
    elif isinstance(state, DensityMatrix):
        flat = state.matrix.ravel()
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}; the wire format holds one state")
    return {
        "dims": list(state.dims),
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }


def state_from_json(obj: dict):
    """Rebuild a state; pure vs density is inferred from the payload length.

    A payload that is not an object, ``dims`` that is not a list of ints, or
    ``re``/``im`` that are not flat number lists of one length, or that hold
    an int beyond the float range, raise ``StateValidationError``.
    """
    if not isinstance(obj, dict):
        raise StateValidationError(f"a state payload is an object, got {type(obj).__name__}")
    dims, re, im = obj.get("dims"), obj.get("re"), obj.get("im")
    # json.load yields bool, str, None, list or dict for anything else
    if not (isinstance(dims, list) and all(type(d) is int for d in dims)):
        raise StateValidationError("'dims' must be a list of ints")
    for key, v in (("re", re), ("im", im)):
        if not (isinstance(v, list) and all(type(x) in (int, float) for x in v)):
            raise StateValidationError(f"{key!r} must be a flat list of numbers")
    if len(re) != len(im):
        raise StateValidationError(f"'re' has {len(re)} entries but 'im' has {len(im)}")
    dims = tuple(dims)
    try:
        flat = np.array(re, dtype=complex)
        flat.imag = np.array(im, dtype=float)  # 1j * inf would warn and make NaN
    except OverflowError:  # an int literal beyond the float range
        raise StateValidationError("'re'/'im' hold a number too large for a float") from None
    d = math.prod(dims)
    if flat.size == d:
        return PureState(flat, dims)
    if flat.size == d * d:
        return DensityMatrix(flat.reshape(d, d), dims)
    raise StateValidationError(
        f"payload length {flat.size} matches neither vector ({d}) nor matrix ({d*d})")


def load_state(path):
    with open(path) as fh:
        return state_from_json(json.load(fh))
