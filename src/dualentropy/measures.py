"""Bipartite entanglement measures.

Pure-state measures built on the marginal spectrum (total-entropy
entanglement E_t, entanglement of formation, the one-parameter Tsallis
variant), the concurrence, and the analytic two-qubit formulas that close
the convex roof in that case. Each pure-state measure reads only the
Schmidt spectrum across its cut, through one private kernel that gives its
values E (...,) and exact derivative E'(x) (..., k) on spectra x (..., k).
On a ``PureState`` it returns E: a float for one state, one value per state
for a stack (from one batched Schmidt spectrum). On a ``SchmidtStack``, the
convex roof's request, it returns the pair (E, E'), with E bit for bit as
on the states. E_t and the normalized T_q divide by a value at the d
that a norm policy, a function of the side dims (d_A, d_B), picks; a cut
with a side of dim 1 gives 0 under every norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import _check_q, _check_unit, _log2, _total, _value, tsallis_total
from .states import DensityMatrix, PureState, SchmidtStack, _cut, schmidt_spectrum

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of the subsystems of a multipartite state of ``dims``."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    dim_a: int
    dim_b: int
    dims: tuple[int, ...]

    @classmethod
    def of(cls, dims, side_a) -> "Bipartition":
        dims = tuple(dims)
        side_a, side_b = _cut(dims, side_a)
        return cls(side_a, side_b, math.prod(dims[i] for i in side_a),
                   math.prod(dims[i] for i in side_b), dims)


def cut(psi_or_dims, side_a) -> Bipartition:
    dims = psi_or_dims.dims if hasattr(psi_or_dims, "dims") else psi_or_dims
    return Bipartition.of(dims, side_a)


# A normalization policy picks the dimension d entering r(d) from the side dims
# (d_A, d_B). The worked high-dimensional scenarios are not mutually consistent
# about which dimension to use for unequal-sized sides, so the policy is always
# explicit; MIN_DIM is the library default.
NormPolicy = Callable[[int, int], int]
MIN_DIM: NormPolicy = min
DIM_A: NormPolicy = lambda dim_a, dim_b: dim_a
DIM_B: NormPolicy = lambda dim_a, dim_b: dim_b


def explicit(d: int) -> NormPolicy:
    """The policy that picks d whatever the side dims; ValueError for d < 2."""
    d = int(d)
    if d < 2:
        raise ValueError(f"normalization dimension must be >= 2, got {d}")
    return lambda dim_a, dim_b: d


def norm_factor(d: int) -> float:
    """r(d) = d log2 d - (d-1) log2 (d-1), the total entropy of 1/d, evaluated
    as log2 d + (d-1) log2(1 + 1/(d-1)) on the exact int d: no cancellation.
    Past the float range its second term is its limit 1/ln 2, off by less
    than 1e-308."""
    d = int(d)
    if d < 2:
        raise ValueError(f"norm_factor requires d >= 2, got {d}")
    try:
        return math.log2(d) + (d - 1) * math.log1p(1 / (d - 1)) / math.log(2)
    except OverflowError:  # d - 1 has no float
        return math.log2(d) + 1 / math.log(2)


def _spectral(kernel, psi, bipartition: Bipartition, *args):
    """The kernel's (E, E') on the Schmidt spectra of psi across the cut: the
    pair for a ``SchmidtStack``, and E alone for a ``PureState``, which
    must have the dims the cut was built for (ValueError)."""
    if not isinstance(psi, SchmidtStack) and psi.dims != bipartition.dims:
        raise ValueError(f"a cut of dims {bipartition.dims} asked of a state of dims {psi.dims}")
    e, slope = kernel(schmidt_spectrum(psi, bipartition.side_a), *args)
    return (_value(e), slope) if isinstance(psi, SchmidtStack) else _value(e)


def _norm_dim(norm: NormPolicy, dim_a: int, dim_b: int) -> int | None:
    """The d that ``norm`` picks for side dims (dim_a, dim_b), the one place d
    is decided for the measures and ``network``. The policy is called on every
    cut, so that a non-policy fails on each; None when a side has dim 1, where
    every spectrum is (1,), every value 0 and no d is used. A user-written
    policy that picks d < 2 elsewhere raises ValueError."""
    d = norm(dim_a, dim_b)
    if min(dim_a, dim_b) == 1:
        return None
    if d < 2:
        raise ValueError(f"a norm policy must pick d >= 2, got {d}")
    return d


def _masked_power(base, exponent) -> np.ndarray:
    """base ** exponent, masked to 0 where base <= 0: finite for a negative exponent."""
    out = np.zeros(np.broadcast_shapes(np.shape(base), np.shape(exponent)))
    return np.power(base, exponent, out=out, where=base > 0)


def _concurrence(x: np.ndarray):
    """C = sqrt(2 (1 - sum x^2)) and E' = -2 x / C, masked to 0 at C = 0."""
    c = np.sqrt(np.maximum(2.0 * (1.0 - np.sum(x ** 2, axis=-1)), 0.0))
    return c, -2.0 * x / np.where(c > 0, c, np.inf)[..., None]


def _e_t(x: np.ndarray, r: float):
    """S^t / r and E' = (log2(1 - x) - log2 x) / r, each log masked to 0 at 0."""
    x = np.clip(x, 0.0, 1.0)
    y = 1.0 - x
    lx, ly = _log2(x), _log2(y)
    return (0.0 - x * lx - y * ly).sum(axis=-1) / r, (ly - lx) / r


def _eof(x: np.ndarray):
    """S = -sum x log2 x and E' = -log2 x - 1/ln 2, the log masked to 0 at 0."""
    lx = _log2(x)
    return 0.0 - (x * lx).sum(axis=-1), -lx - 1.0 / math.log(2)


def _t_q(x: np.ndarray, q, scale: float = 1.0):
    """T^t_q / scale and E' = q [(1 - x)^(q-1) - x^(q-1)] / ((q - 1) scale),
    each power masked to 0 at a zero base."""
    e = tsallis_total(x, q)
    qa = np.expand_dims(np.asarray(q, dtype=float), -1)
    slope = _masked_power(1.0 - x, qa - 1.0) - _masked_power(x, qa - 1.0)
    return e / scale, qa * slope / ((qa - 1.0) * scale)


def concurrence_pure(psi: PureState | SchmidtStack, bipartition: Bipartition):
    """C = sqrt(2 (1 - Tr rho_A^2)) across the given cut."""
    return _spectral(_concurrence, psi, bipartition)


def concurrence_two_qubit(rho: DensityMatrix) -> float:
    """Spin-flip concurrence max{0, l1 - l2 - l3 - l4} for a two-qubit state.

    The l_i are the descending square roots of the eigenvalues of
    rho (Y x Y) rho* (Y x Y). With rho = A A^dagger they equal the singular
    values of the complex-symmetric matrix A^T (Y x Y) A, which an SVD
    computes to full precision (the non-Hermitian product form loses half
    the digits near its zero eigenvalues).
    """
    if rho.dims != (2, 2):
        raise ValueError(f"two-qubit formula needs dims (2, 2), got {rho.dims}")
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > 1e-14
    a = v[:, keep] * np.sqrt(w[keep])
    sv = np.zeros(4)
    sv[: a.shape[1]] = np.linalg.svd(a.T @ _YY @ a, compute_uv=False)
    sv = np.sort(sv)[::-1]
    return float(max(0.0, sv[0] - sv[1] - sv[2] - sv[3]))


def h(x) -> float:
    """Analytic bridge from concurrence to E_t: h(x) = g((1 + sqrt(1-x^2)) / 2).

    Strictly increasing and convex on (0, 1); h(0) = 0, h(1) = 1.
    """
    x = _check_unit(x, "h")
    return _value(_total((1.0 + np.sqrt(np.clip(1.0 - x * x, 0.0, None))) / 2.0))


def e_t_pure(psi: PureState | SchmidtStack, bipartition: Bipartition, norm: NormPolicy = MIN_DIM):
    """Total-entropy entanglement S^t(rho_A) / r(d) of a pure state, with
    d = norm(d_A, d_B)."""
    d = _norm_dim(norm, bipartition.dim_a, bipartition.dim_b)
    return _spectral(_e_t, psi, bipartition, norm_factor(d) if d else 1.0)


def s_total_pure(psi: PureState | SchmidtStack, bipartition: Bipartition):
    """Unnormalized S^t of either marginal across the cut."""
    return _spectral(_e_t, psi, bipartition, 1.0)


def e_t_two_qubit(rho: DensityMatrix) -> float:
    """Closed-form mixed-state E_t for two qubits: h(C(rho)).

    For two qubits E_t = E_f = h(C): a qubit marginal with eigenvalues
    (l, 1-l) has S^t = 2 g(l) and r(2) = 2, so E_t = g(l) = S(rho_A) on
    every pure state, and both roofs close to Wootters' h(C) (PRL 80,
    2245, 1998). ``eof_two_qubit`` is this same function.
    """
    return h(concurrence_two_qubit(rho))


eof_two_qubit = e_t_two_qubit


def eof_pure(psi: PureState | SchmidtStack, bipartition: Bipartition):
    """Entanglement of formation of a pure state: S(rho_A)."""
    return _spectral(_eof, psi, bipartition)


def f_q(x, q) -> float:
    """Tsallis-family bridge: 2 [1 - ((1+s)/2)^q - ((1-s)/2)^q] / (q-1),
    with s = sqrt(1 - x^2). Identity f_2(x) = x^2 holds exactly.
    """
    q = _check_q(q)
    x = _check_unit(x, "f_q")
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = 2.0 * (1.0 - ((1.0 + s) / 2.0) ** q - ((1.0 - s) / 2.0) ** q) / (q - 1.0)
    return _value(out)


def t_q_pure(psi: PureState | SchmidtStack, bipartition: Bipartition, q):
    """Tsallis-total entanglement of a pure state (no normalization factor)."""
    return _spectral(_t_q, psi, bipartition, q)


def t_q_pure_normalized(psi: PureState | SchmidtStack, bipartition: Bipartition, q,
                        norm: NormPolicy = MIN_DIM):
    """Optional normalized variant: divide by the maximally mixed value
    T^t_q(1/d, ..., 1/d), with d = norm(d_A, d_B)."""
    d = _norm_dim(norm, bipartition.dim_a, bipartition.dim_b)
    scale = tsallis_total(np.full(d, 1.0 / d), q) if d else 1.0
    return _spectral(_t_q, psi, bipartition, q, scale)


# q where f_q is monotone and convex in C, so that f_q(C) is the two-qubit roof
# of t_q_pure (Yuan et al., Sci. Rep. 6, 28719 (2016))
T_Q_TWO_QUBIT_RANGE = ((5.0 - math.sqrt(13.0)) / 2.0, (5.0 + math.sqrt(13.0)) / 2.0)


def t_q_two_qubit(rho: DensityMatrix, q) -> float:
    """Closed-form two-qubit Tsallis-total entanglement: f_q(C(rho)).

    Valid for q in T_Q_TWO_QUBIT_RANGE, about [0.697, 4.303]; outside it the
    roof falls below f_q(C), and ValueError is raised.
    """
    lo, hi = T_Q_TWO_QUBIT_RANGE
    if not lo <= q <= hi:  # also rejects NaN
        raise ValueError(f"f_q(C) is the two-qubit roof only for q in [{lo:.6g}, {hi:.6g}], "
                         f"got q = {q}")
    return f_q(concurrence_two_qubit(rho), q)
