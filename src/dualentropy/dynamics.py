"""Heisenberg chains with random z-fields and exact time evolution.

The Hamiltonian is built from basis-index bit operations, sigma_i . sigma_j =
2 SWAP_ij - 1, plus a diagonal of z-fields. One dense eigendecomposition
evolves a state to every time sample at once, exact to machine precision at
the <= MAX_QUBITS scale this module targets; a trajectory takes one batched
Schmidt spectrum per cut. The presets H5 and H6 follow the printed
interaction formulas (0-based qubit indices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import shannon, total_classical
from .states import PureState, schmidt_spectrum

MAX_QUBITS = 12  # the dense H takes 4^n memory and its eigh 8^n time
H5_COUPLINGS = ((0, 3, 0.5), (1, 2, 0.4), (2, 3, 0.3), (3, 4, -0.5))
H6_COUPLINGS = ((0, 2, 0.4), (1, 4, 0.5), (2, 3, -0.3), (2, 5, 0.2), (4, 5, 0.6))


@dataclass(frozen=True)
class SpinHamiltonian:
    """Heisenberg couplings J_ij (XX + YY + ZZ) plus z-fields h_j."""

    n: int
    couplings: tuple[tuple[int, int, float], ...]
    fields: tuple[float, ...]

    def __post_init__(self):
        if self.n > MAX_QUBITS:
            raise ValueError(f"dense construction limited to {MAX_QUBITS} qubits")
        for i, j, _ in self.couplings:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise IndexError(f"bad coupling pair ({i}, {j}) for n={self.n}")
        if len(self.fields) != self.n:
            raise ValueError(f"need {self.n} field strengths, got {len(self.fields)}")

    def matrix(self) -> np.ndarray:
        """Dense H = sum_ij J_ij (2 SWAP_ij - 1) + sum_j h_j Z_j."""
        d = 2 ** self.n
        idx = np.arange(d)
        masks = 1 << np.arange(self.n - 1, -1, -1)  # qubit 0 is the leading bit
        z = np.where(idx[:, None] & masks, -1.0, 1.0)  # Z eigenvalue of every qubit
        h = np.zeros((d, d), dtype=complex)
        diag = np.zeros(d)
        for i, j, strength in self.couplings:
            # 2 SWAP_ij - 1 is +1 where bits i and j agree; where they differ it is
            # -1 on the diagonal and 2 to the state with both bits flipped
            differ = idx[z[:, i] != z[:, j]]
            h[differ ^ (masks[i] | masks[j]), differ] += 2.0 * strength
            diag += strength * z[:, i] * z[:, j]
        for k, field in enumerate(self.fields):
            diag += field * z[:, k]
        h[idx, idx] = diag
        return h


def heisenberg(n: int, couplings, fields) -> SpinHamiltonian:
    return SpinHamiltonian(n, tuple((int(i), int(j), float(s)) for i, j, s in couplings),
                           tuple(float(f) for f in fields))


def random_fields(n: int, seed) -> tuple[float, ...]:
    """Disorder strengths drawn uniformly from [-1, 1]."""
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(-1.0, 1.0, n))


def plus_state(n: int) -> PureState:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"plus_state needs 1 <= n <= {MAX_QUBITS}, got {n}")
    amps = np.full(2 ** n, 2.0 ** (-n / 2.0), dtype=complex)
    return PureState(amps, (2,) * n)


def evolve(psi0: PureState, ham: SpinHamiltonian, t) -> PureState:
    """exp(-i H t) |psi0> from one eigh and one phase per (t, level): one state
    for a scalar ``t``, a stack of its shape for an array of times."""
    w, v = np.linalg.eigh(ham.matrix())
    coeff = v.conj().T @ psi0.amplitudes
    return PureState((np.exp(-1j * np.multiply.outer(t, w)) * coeff) @ v.T, psi0.dims)


@dataclass
class Trajectory:
    """Per-time, per-cut pairs of von Neumann entropy S and total entropy St."""

    times: np.ndarray
    cut_labels: list[str]
    entropies: np.ndarray        # shape (n_times, n_cuts)
    total_entropies: np.ndarray  # shape (n_times, n_cuts)
    metadata: dict


def default_cuts(n: int) -> list[tuple[int, ...]]:
    """All single-qubit cuts plus the half-chain cut."""
    cuts = [(i,) for i in range(n)]
    cuts.append(tuple(range(n // 2)))
    return cuts


def entropy_trajectory(psi0: PureState, ham: SpinHamiltonian, times) -> Trajectory:
    """S and S^t of the reduced state on each of ``default_cuts`` along the evolution.

    Diagonalizes the Hamiltonian once, evolves to every time sample in one
    product and takes one batched Schmidt spectrum per cut.
    """
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    cuts = default_cuts(ham.n)
    psi_t = evolve(psi0, ham, times)
    lams = [schmidt_spectrum(psi_t, cut_sites) for cut_sites in cuts]
    s = np.stack([shannon(lam) for lam in lams], axis=-1)
    st = np.stack([total_classical(lam) for lam in lams], axis=-1)
    labels = ["|".join(str(i) for i in c) for c in cuts]
    meta = {"n": ham.n, "couplings": list(ham.couplings), "fields": list(ham.fields)}
    return Trajectory(times, labels, s, st, meta)
