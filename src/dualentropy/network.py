"""Quantum networks of bipartite pure states and the polygon inequality.

A network is a set of parties joined by edges, each edge carrying one
bipartite pure state; two parties that share several states are joined by
parallel edges. The one-to-group total entropy of a party has a fast path:
the marginal is a tensor product of per-edge marginals, so its spectrum is
the product distribution of the per-edge Schmidt spectra and the global
state never needs to be built. One-to-group values and polygon checks are
raw S^t, the mode the inequality's derivation (symmetry plus subadditivity
of the raw entropy) supports, unless a norm policy is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .entropy import s_total, total_classical
from .measures import NormPolicy, norm_factor
from .states import PureState, random_pure, reduced_state, schmidt_spectrum, tensor_all

# largest party spectrum, in entries, that party_marginal_spectrum builds (32 MiB)
MAX_SPECTRUM = 2 ** 22
# local dimensions random_network draws each side of an edge state from
EDGE_DIMS = (2, 3)


@dataclass(frozen=True)
class Edge:
    i: int
    j: int
    state: PureState

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError(f"edge endpoints must satisfy i < j, got ({self.i}, {self.j})")
        if len(self.state.dims) != 2:
            raise ValueError("edge states must be bipartite (two dims)")


@dataclass(frozen=True)
class NetworkTopology:
    n_parties: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        for e in self.edges:
            if not (0 <= e.i < self.n_parties and 0 <= e.j < self.n_parties):
                raise ValueError(f"edge ({e.i}, {e.j}) outside {self.n_parties} parties")

    def incident(self, party: int) -> list[tuple[Edge, int]]:
        """Edges touching the party, with the index (0/1) of its half.

        IndexError for a party outside 0..n_parties - 1.
        """
        if not 0 <= party < self.n_parties:
            raise IndexError(f"party {party} outside {self.n_parties} parties")
        return [(e, 0 if e.i == party else 1) for e in self.edges if party in (e.i, e.j)]

    def party_dim(self, party: int) -> int:
        return math.prod(e.state.dims[half] for e, half in self.incident(party))


@dataclass(frozen=True)
class PolygonReport:
    """Per-party one-to-group values and polygon residuals tau."""

    values: tuple[float, ...]
    taus: tuple[float, ...]


def _check_spectrum(party: int, size: int) -> None:
    """ValueError when the party's marginal spectrum would exceed MAX_SPECTRUM entries."""
    if size > MAX_SPECTRUM:
        raise ValueError(f"party {party} spectrum would have {size} entries, "
                         f"above MAX_SPECTRUM = {MAX_SPECTRUM}")


def party_marginal_spectrum(net: NetworkTopology, party: int) -> np.ndarray:
    """Product distribution of the per-edge Schmidt spectra at the party.

    It has one entry per product of Schmidt indices; a ValueError is raised,
    before anything is built, when that count exceeds MAX_SPECTRUM.
    """
    halves = net.incident(party)
    _check_spectrum(party, math.prod(min(e.state.dims) for e, _ in halves))
    spectra = (schmidt_spectrum(e.state, (half,)) for e, half in halves)
    return reduce(np.outer, spectra, np.ones(1)).ravel()


def one_to_group(net: NetworkTopology, party: int, norm: NormPolicy | None = None) -> float:
    """Total entropy of the party's marginal, via the spectra-product path.

    Raw S^t when ``norm`` is None; otherwise divided by r(d) with d chosen
    by the policy over (party dim, rest dim). A party without edges has the
    value 0 under any norm, so no d is resolved for it.
    """
    val = total_classical(party_marginal_spectrum(net, party))
    if norm is not None and net.incident(party):
        dim_a = net.party_dim(party)
        dim_b = math.prod(d for e in net.edges for d in e.state.dims) // dim_a
        val /= norm_factor(norm.resolve(dim_a, dim_b))
    return val


def polygon_check(net: NetworkTopology, norm: NormPolicy | None = None) -> PolygonReport:
    """tau_i = E(i|rest) - sum_{j != i} E(j|rest) for every party.

    In the raw mode (``norm`` None) the polygon inequality asserts tau_i <= 0.
    """
    if net.n_parties < 3:
        raise ValueError("polygon check needs at least 3 parties")
    vals = [one_to_group(net, p, norm) for p in range(net.n_parties)]
    total = sum(vals)
    taus = [v - (total - v) for v in vals]
    return PolygonReport(tuple(vals), tuple(taus))


def random_network(n: int, edge_prob: float, seed=0) -> NetworkTopology:
    """Random topology with one Haar-random state per edge; deterministic per seed.

    Each side of an edge state has a dimension drawn from EDGE_DIMS. As soon
    as one party's spectrum size, its product of Schmidt ranks, exceeds
    MAX_SPECTRUM, the draw stops with a ValueError.
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
    if not 0.0 <= edge_prob <= 1.0:  # also rejects NaN
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    edges, size = [], [1] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= edge_prob:
                continue
            dims = (int(rng.choice(EDGE_DIMS)), int(rng.choice(EDGE_DIMS)))
            for p in (i, j):
                size[p] *= min(dims)
                _check_spectrum(p, size[p])
            edges.append(Edge(i, j, random_pure(dims, rng)))
    return NetworkTopology(n, tuple(edges))


def global_state(net: NetworkTopology) -> tuple[PureState, dict[int, list[int]]]:
    """Dense tensor of all edge states, plus party -> subsystem index map.

    Edge k holds subsystems 2k (party i's half) and 2k + 1 (party j's half).
    """
    if not net.edges:
        raise ValueError("network has no edges")
    owner: dict[int, list[int]] = {p: [] for p in range(net.n_parties)}
    for k, e in enumerate(net.edges):
        owner[e.i].append(2 * k)
        owner[e.j].append(2 * k + 1)
    return tensor_all([e.state for e in net.edges]), owner


def one_to_group_dense(net: NetworkTopology, party: int) -> float:
    """Reference path: build the global state and trace out everything else.

    Intended for cross-checking the spectra-product path; practical only
    while the global dimension stays around 2^10.
    """
    if not net.incident(party):
        return 0.0
    psi, owner = global_state(net)
    return s_total(reduced_state(psi, owner[party]))
