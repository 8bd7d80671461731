"""Bipartite entanglement measures.

Pure-state measures built on the marginal spectrum (total-entropy
entanglement E_t, entanglement of formation, the one-parameter Tsallis
variant), the concurrence, and the analytic two-qubit formulas that close
the convex roof in that case. Each pure-state measure takes one
``PureState`` and returns a float, or a ``PureStack`` and returns one value
per state from one batched Schmidt spectrum, or a ``SchmidtStack`` and
returns one value per spectrum it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _check_q, _check_unit, _total, _value, _xlog2x, tsallis_total
from .states import (DensityMatrix, PureStack, PureState, SchmidtStack, _cut,
                     schmidt_spectrum)

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of the subsystems of a multipartite state."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    dim_a: int
    dim_b: int

    @classmethod
    def of(cls, dims, side_a) -> "Bipartition":
        dims = tuple(dims)
        side_a, side_b = _cut(dims, side_a)
        return cls(side_a, side_b, math.prod(dims[i] for i in side_a),
                   math.prod(dims[i] for i in side_b))


def cut(psi_or_dims, side_a) -> Bipartition:
    dims = psi_or_dims.dims if hasattr(psi_or_dims, "dims") else psi_or_dims
    return Bipartition.of(dims, side_a)


@dataclass(frozen=True)
class NormPolicy:
    """Choice of the dimension d entering the normalization factor r(d).

    The worked high-dimensional scenarios are not mutually consistent about
    which dimension to use for unequal-sized sides, so the policy is always
    explicit; ``min_dim`` is the library default.
    """

    mode: str = "min_dim"
    d: int | None = None

    def resolve(self, dim_a: int, dim_b: int) -> int:
        if self.mode == "min_dim":
            d = min(dim_a, dim_b)
        elif self.mode == "dim_a":
            d = dim_a
        elif self.mode == "dim_b":
            d = dim_b
        elif self.mode == "explicit":
            d = int(self.d)
        else:
            raise ValueError(f"unknown norm mode {self.mode!r}")
        if d < 2:
            raise ValueError(f"normalization dimension must be >= 2, got {d}")
        return d


MIN_DIM = NormPolicy("min_dim")
DIM_A = NormPolicy("dim_a")
DIM_B = NormPolicy("dim_b")


def explicit(d: int) -> NormPolicy:
    return NormPolicy("explicit", int(d))


def norm_factor(d: int) -> float:
    """r(d) = d log2 d - (d-1) log2 (d-1), the total entropy of 1/d, evaluated
    as log2 d + (d-1) log2(1 + 1/(d-1)) on the exact int d: no cancellation."""
    d = int(d)
    if d < 2:
        raise ValueError(f"norm_factor requires d >= 2, got {d}")
    return math.log2(d) + (d - 1) * math.log1p(1 / (d - 1)) / math.log(2)


def concurrence_pure(psi: PureState | PureStack | SchmidtStack, bipartition: Bipartition):
    """C = sqrt(2 (1 - Tr rho_A^2)) across the given cut."""
    lam = schmidt_spectrum(psi, bipartition.side_a)
    return _value(np.sqrt(np.maximum(2.0 * (1.0 - np.sum(lam ** 2, axis=-1)), 0.0)))


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


def e_t_pure(psi: PureState | PureStack | SchmidtStack, bipartition: Bipartition,
             norm: NormPolicy = MIN_DIM):
    """Total-entropy entanglement S^t(rho_A) / r(d) of a pure state."""
    lam = schmidt_spectrum(psi, bipartition.side_a)
    d = norm.resolve(bipartition.dim_a, bipartition.dim_b)
    return _value(np.sum(_total(lam), axis=-1) / norm_factor(d))


def s_total_pure(psi: PureState | PureStack | SchmidtStack, bipartition: Bipartition):
    """Unnormalized S^t of either marginal across the cut."""
    return _value(np.sum(_total(schmidt_spectrum(psi, bipartition.side_a)), axis=-1))


def e_t_two_qubit(rho: DensityMatrix) -> float:
    """Closed-form mixed-state E_t for two qubits: h(C(rho)).

    For two qubits E_t = E_f = h(C): a qubit marginal with eigenvalues
    (l, 1-l) has S^t = 2 g(l) and r(2) = 2, so E_t = g(l) = S(rho_A) on
    every pure state, and both roofs close to Wootters' h(C) (PRL 80,
    2245, 1998). ``eof_two_qubit`` is this same function.
    """
    return h(concurrence_two_qubit(rho))


eof_two_qubit = e_t_two_qubit


def eof_pure(psi: PureState | PureStack | SchmidtStack, bipartition: Bipartition):
    """Entanglement of formation of a pure state: S(rho_A)."""
    return _value(-np.sum(_xlog2x(schmidt_spectrum(psi, bipartition.side_a)), axis=-1))


def f_q(x, q) -> float:
    """Tsallis-family bridge: 2 [1 - ((1+s)/2)^q - ((1-s)/2)^q] / (q-1),
    with s = sqrt(1 - x^2). Identity f_2(x) = x^2 holds exactly.
    """
    q = _check_q(q)
    x = _check_unit(x, "f_q")
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = 2.0 * (1.0 - ((1.0 + s) / 2.0) ** q - ((1.0 - s) / 2.0) ** q) / (q - 1.0)
    return _value(out)


def t_q_pure(psi: PureState | PureStack | SchmidtStack, bipartition: Bipartition, q):
    """Tsallis-total entanglement of a pure state (no normalization factor)."""
    return tsallis_total(schmidt_spectrum(psi, bipartition.side_a), q)


def t_q_pure_normalized(psi: PureState | PureStack | SchmidtStack, bipartition: Bipartition, q,
                        norm: NormPolicy = MIN_DIM):
    """Optional normalized variant: divide by the maximally mixed value."""
    d = norm.resolve(bipartition.dim_a, bipartition.dim_b)
    return t_q_pure(psi, bipartition, q) / tsallis_total(np.full(d, 1.0 / d), q)


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
