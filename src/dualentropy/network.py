"""Quantum networks of bipartite pure states and the polygon inequality.

A network is a set of parties joined by edges, each edge carrying one
bipartite pure state; two parties that share several states are joined by
parallel edges. A party's marginal is a tensor product of per-edge
marginals, so its spectrum is the product distribution of its edges'
Schmidt spectra. Neither that spectrum nor the global state is ever built:
every party's total entropy comes from per-edge sums in one pass over the
edges, so a party may have any number of edges. One-to-group values and
polygon checks are raw S^t, the mode the inequality's derivation (symmetry
plus subadditivity of the raw entropy) supports, unless a norm policy is
given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _probs, _xlog2x, s_total
from .measures import NormPolicy, _norm_dim, norm_factor
from .states import PureState, reduced_state, schmidt_spectrum, tensor_all

# local dimensions random_network draws each side of an edge state from
EDGE_DIMS = (2, 3)
# powers k of the dual part's series; every entry but a party's largest is at
# most 1/2, so the terms past k = 65 add less than 2^-64 of 1 - p_max
_POWERS = np.arange(2, 66)


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


def _edge_spectra(edges) -> np.ndarray:
    """Schmidt spectra of the edge states, one row per edge in edge order.

    Rows are descending, unit-sum (checked and renormalized as the entropy
    functionals do) and zero-padded to the widest. Each state's amplitudes
    are written as a k x n matrix, k = min(dims), zero-padded to the widest
    n among the edges of its k: zero columns leave the Gram matrix, and so
    the spectrum, unchanged, and one ``schmidt_spectrum`` call serves every
    edge of one k.
    """
    by_rank: dict[int, list[int]] = {}
    for row, e in enumerate(edges):
        by_rank.setdefault(min(e.state.dims), []).append(row)
    x = np.zeros((len(edges), max(by_rank, default=1)))
    for k, rows in by_rank.items():
        mats = np.zeros((len(rows), k, max(max(edges[row].state.dims) for row in rows)),
                        dtype=complex)
        for mat, row in zip(mats, rows):
            dims = edges[row].state.dims
            m = edges[row].state.amplitudes.reshape(dims)
            mat[:, :max(dims)] = m if dims[0] == k else m.T
        stack = PureState(mats.reshape(len(rows), -1), mats.shape[1:])
        x[rows, :k] = schmidt_spectrum(stack, (0,))
    return _probs(x)


def _raw_values(n_parties: int, edges) -> np.ndarray:
    """Raw S^t of every party's marginal over the given edges, in bits.

    The marginal's spectrum is the product distribution P of the Schmidt
    spectra x_e of the party's edges. Its Shannon part is sum_e H(x_e). Its
    dual part sums -(1-p) ln(1-p) = p - sum_{k>=2} p^k / (k(k-1)) over P:
    the largest entry p_max = prod_e a_e (a_e the top of x_e) is taken out
    exactly, and for the rest the power sums P_k - p_max^k = P_k (1 -
    exp(-s_k)), with s_k = sum_e log1p(r_ek / a_e^k) and r_ek the k-th
    power sum of x_e without its top, so that nothing cancels when p_max
    is near 1.
    """
    x = _edge_spectra(edges)
    per_edge = np.zeros((len(edges), 2 + _POWERS.size))
    per_edge[:, 0] = 0.0 - np.sum(_xlog2x(x), axis=1)
    per_edge[:, 1] = np.log1p(-np.sum(x[:, 1:], axis=1))  # ln a_e, read off the small entries
    power_sums = per_edge[:, 2:]
    for ratio in (x[:, 1:] / x[:, :1]).T:
        power_sums += ratio[:, None] ** _POWERS
    np.log1p(power_sums, out=power_sums)
    # a bincount over the flat (party, column) index per endpoint side adds
    # every per-edge term onto both endpoints
    width = per_edge.shape[1]
    ends = np.array([(e.i, e.j) for e in edges], dtype=np.intp).reshape(-1, 2)
    acc = sum(np.bincount((side[:, None] * width + np.arange(width)).ravel(), per_edge.ravel(),
                          minlength=n_parties * width) for side in ends.T)
    acc = acc.reshape(n_parties, width)
    shannon, log_top, s = acc[:, 0], acc[:, 1], acc[:, 2:]
    rest = 0.0 - np.expm1(log_top)  # 1 - p_max
    below_top = np.exp(_POWERS * log_top[:, None] + s) * (0.0 - np.expm1(-s))
    series = below_top @ (1.0 / (_POWERS * (_POWERS - 1.0)))
    return shannon + (rest - series) / math.log(2) - _xlog2x(rest)


def _party_values(net: NetworkTopology, edges, norm: NormPolicy | None) -> list[float]:
    """S^t of every party over ``edges``, divided by r(d) when ``norm`` is given.

    d is what ``norm`` picks for the party's dim and the rest dim of the
    whole network, through the rule the measures use. A party with a side
    of dim 1 (no edges, only halves of dim 1, or a rest of dim 1) has the
    raw value 0, and it keeps 0 under every norm.
    """
    values = _raw_values(net.n_parties, edges).tolist()
    if norm is None:
        return values
    dims = [1] * net.n_parties
    for e in net.edges:
        dims[e.i] *= e.state.dims[0]
        dims[e.j] *= e.state.dims[1]
    total = math.prod(dims)
    ds = [_norm_dim(norm, d, total // d) for d in dims]
    return [v / norm_factor(d) if d else v for v, d in zip(values, ds)]


def one_to_group(net: NetworkTopology, party: int, norm: NormPolicy | None = None) -> float:
    """Total entropy of the party's marginal, from its edges' Schmidt spectra.

    Raw S^t when ``norm`` is None; otherwise divided by r(d) with d chosen
    by the policy over (party dim, rest dim). A party without edges, or
    whose halves all have dim 1, has the value 0 under any norm.
    """
    return _party_values(net, [e for e, _ in net.incident(party)], norm)[party]


def polygon_check(net: NetworkTopology, norm: NormPolicy | None = None) -> PolygonReport:
    """tau_i = E(i|rest) - sum_{j != i} E(j|rest) for every party.

    In the raw mode (``norm`` None) the polygon inequality asserts tau_i <= 0.
    """
    if net.n_parties < 3:
        raise ValueError("polygon check needs at least 3 parties")
    vals = _party_values(net, net.edges, norm)
    total = sum(vals)
    taus = [v - (total - v) for v in vals]
    return PolygonReport(tuple(vals), tuple(taus))


def random_network(n: int, edge_prob: float, seed=0) -> NetworkTopology:
    """Random topology with one Haar-random state per edge; deterministic per seed.

    Edges come in (i, j) order, i < j. The generator is read in this order:
    one uniform coin per pair i < j, in that order, an edge wherever it
    falls below ``edge_prob``; one (E, 2) block of indices into EDGE_DIMS,
    the side dims (d_A, d_B) of the E edges; then, for each (d_A, d_B) that
    some edge has, in ascending order, one complex-Gaussian block with a
    row per such edge (real and imaginary parts interleaved). Each block is normalized row by row and validated
    once, as a ``PureState`` stack whose rows become the edge states.
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
    if not 0.0 <= edge_prob <= 1.0:  # also rejects NaN
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    parties = np.arange(n)
    i, j = np.nonzero(parties[:, None] < parties)  # np.triu_indices(n, 1), at a fifth of its cost
    drawn = rng.random(i.size) < edge_prob
    i, j = i[drawn].tolist(), j[drawn].tolist()
    by_dims: dict[tuple[int, int], list[int]] = {}
    for row, (a, b) in enumerate(rng.integers(len(EDGE_DIMS), size=(len(i), 2)).tolist()):
        by_dims.setdefault((EDGE_DIMS[a], EDGE_DIMS[b]), []).append(row)
    states = [None] * len(i)
    for dims, rows in sorted(by_dims.items()):
        z = rng.standard_normal((len(rows), math.prod(dims), 2)).view(complex)[..., 0]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        for row, state in zip(rows, PureState(z, dims).unstack()):
            states[row] = state
    return NetworkTopology(n, tuple(map(Edge, i, j, states)))


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

    Intended for cross-checking the power-sum path; practical only
    while the global dimension stays around 2^10.
    """
    if not net.incident(party):
        return 0.0
    psi, owner = global_state(net)
    return s_total(reduced_state(psi, owner[party]))
