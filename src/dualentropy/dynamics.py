"""Heisenberg chains with random z-fields and exact time evolution.

Evolution uses the dense eigendecomposition of the Hamiltonian, so it is
exact to machine precision at the <= 12-qubit scale this module targets.
The two preset coupling lists H5 and H6 follow the printed interaction
formulas (0-based qubit indices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .entropy import _total, _xlog2x
from .states import PureState, schmidt_spectrum

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

H5_COUPLINGS = ((0, 3, 0.5), (1, 2, 0.4), (2, 3, 0.3), (3, 4, -0.5))
H6_COUPLINGS = ((0, 2, 0.4), (1, 4, 0.5), (2, 3, -0.3), (2, 5, 0.2), (4, 5, 0.6))


def _site_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    return reduce(np.kron, [op if k == site else _I2 for k in range(n)])


@dataclass(frozen=True)
class SpinHamiltonian:
    """Heisenberg couplings J_ij (XX + YY + ZZ) plus z-fields h_j."""

    n: int
    couplings: tuple[tuple[int, int, float], ...]
    fields: tuple[float, ...]

    def __post_init__(self):
        if self.n > 12:
            raise ValueError("dense construction limited to 12 qubits")
        for i, j, _ in self.couplings:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise IndexError(f"bad coupling pair ({i}, {j}) for n={self.n}")
        if len(self.fields) != self.n:
            raise ValueError(f"need {self.n} field strengths, got {len(self.fields)}")

    def matrix(self) -> np.ndarray:
        d = 2 ** self.n
        h = np.zeros((d, d), dtype=complex)
        for i, j, strength in self.couplings:
            for pauli in (_SX, _SY, _SZ):
                h += strength * _site_op(pauli, i, self.n) @ _site_op(pauli, j, self.n)
        for j, hj in enumerate(self.fields):
            h += hj * _site_op(_SZ, j, self.n)
        return h


def heisenberg(n: int, couplings, fields) -> SpinHamiltonian:
    return SpinHamiltonian(n, tuple((int(i), int(j), float(s)) for i, j, s in couplings),
                           tuple(float(f) for f in fields))


def random_fields(n: int, seed) -> tuple[float, ...]:
    """Disorder strengths drawn uniformly from [-1, 1]."""
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(-1.0, 1.0, n))


def plus_state(n: int) -> PureState:
    amps = np.full(2 ** n, 2.0 ** (-n / 2.0), dtype=complex)
    return PureState(amps, (2,) * n)


def evolve(psi0: PureState, ham: SpinHamiltonian, t: float) -> PureState:
    """exp(-i H t) |psi0> via eigendecomposition."""
    w, v = np.linalg.eigh(ham.matrix())
    coeff = v.conj().T @ psi0.amplitudes
    out = v @ (np.exp(-1j * w * t) * coeff)
    return PureState(out, psi0.dims)


@dataclass
class Trajectory:
    """Per-time, per-cut pairs of von Neumann entropy S and total entropy St."""

    times: np.ndarray
    cut_labels: list[str]
    entropies: np.ndarray        # shape (n_times, n_cuts)
    total_entropies: np.ndarray  # shape (n_times, n_cuts)
    metadata: dict

    def columns(self) -> list[str]:
        return ["time", "cut", "S", "S_t"]

    def rows(self) -> list[list]:
        return [[float(t), label, float(self.entropies[ti, ci]),
                 float(self.total_entropies[ti, ci])]
                for ti, t in enumerate(self.times)
                for ci, label in enumerate(self.cut_labels)]


def default_cuts(n: int) -> list[tuple[int, ...]]:
    """All single-qubit cuts plus the half-chain cut."""
    cuts = [(i,) for i in range(n)]
    cuts.append(tuple(range(n // 2)))
    return cuts


def entropy_trajectory(psi0: PureState, ham: SpinHamiltonian, times,
                       cuts=None) -> Trajectory:
    """S and S^t of the reduced state on each cut along the evolution.

    Diagonalizes the Hamiltonian once and reuses the spectral phases for
    every time sample.
    """
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if cuts is None:
        cuts = default_cuts(ham.n)
    w, v = np.linalg.eigh(ham.matrix())
    coeff = v.conj().T @ psi0.amplitudes
    s = np.empty((times.size, len(cuts)))
    st = np.empty_like(s)
    for ti, t in enumerate(times):
        psi_t = PureState(v @ (np.exp(-1j * w * t) * coeff), psi0.dims)
        for ci, cut_sites in enumerate(cuts):
            lam = schmidt_spectrum(psi_t, cut_sites)
            lam = np.clip(lam, 0.0, 1.0)
            lam = lam / lam.sum()
            s[ti, ci] = -np.sum(_xlog2x(lam))
            st[ti, ci] = np.sum(_total(lam))
    labels = ["|".join(str(i) for i in c) for c in cuts]
    meta = {"n": ham.n, "couplings": list(ham.couplings), "fields": list(ham.fields)}
    return Trajectory(times, labels, s, st, meta)
