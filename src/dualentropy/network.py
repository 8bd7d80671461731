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
from functools import cached_property

import numpy as np

from .entropy import _probs, _xlog2x, s_total
from .measures import NormPolicy, _norm_dim, norm_factor
from .states import PureState, reduced_state, schmidt_spectrum, tensor_all

# local dimensions random_network draws each side of an edge state from
EDGE_DIMS = (2, 3)
# powers k of the dual part's series; every entry but a party's largest is at
# most 1/2, so the terms past k = 65 add less than 2^-64 of 1 - p_max
_POWERS = np.arange(2, 66)
# most pairs random_network draws coins for in one generator call
_COIN_BLOCK = 2 ** 16


@dataclass(frozen=True)
class Edge:
    i: int
    j: int
    state: PureState

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError(f"edge endpoints must satisfy i < j, got ({self.i}, {self.j})")
        if len(self.state.dims) != 2 or self.state.shape:
            raise ValueError("edge states must be single bipartite states (two dims)")


class NetworkTopology:
    """Parties 0..n_parties - 1 joined by edges, held as arrays built once.

    ``ends`` (E, 2) holds each edge's endpoints i < j and ``dims`` (E, 2) the
    side dims (d_A, d_B) of its state, one row per edge in edge order.
    ``groups`` maps each (d_A, d_B) to the rows of its edges and their
    states, one ``PureState`` stack. ``spectra`` (E, k) holds the edges'
    Schmidt spectra from one ``schmidt_spectrum`` call per group: descending,
    unit-sum (checked and renormalized as the entropy functionals do) and
    zero-padded to the widest; zero entries add nothing to any sum over a
    spectrum. ``NetworkTopology(n, edges)`` converts a sequence of ``Edge``
    once; ``edges`` gives the edges back as a view.
    """

    def __init__(self, n_parties: int, edges: tuple[Edge, ...]):
        for e in edges:
            if not (0 <= e.i < n_parties and 0 <= e.j < n_parties):
                raise ValueError(f"edge ({e.i}, {e.j}) outside {n_parties} parties")
        ends = np.array([(e.i, e.j) for e in edges], dtype=np.intp).reshape(-1, 2)
        dims = np.array([e.state.dims for e in edges], dtype=np.intp).reshape(-1, 2)
        self._build(n_parties, ends, dims, lambda pair, rows: PureState(
            [edges[row].state.amplitudes for row in rows.tolist()], pair))

    def _build(self, n_parties: int, ends: np.ndarray, dims: np.ndarray,
               group_states) -> NetworkTopology:
        """Set the arrays from the ends and side dims of the edges; the stack
        of each group comes from ``group_states(pair, rows)``, called once
        per (d_A, d_B) in ascending order. Returns the network."""
        self.n_parties, self.ends, self.dims, self.groups = n_parties, ends, dims, {}
        keys = dims @ (1 << 32, 1)  # (d_A, d_B) as d_A 2^32 + d_B; no state has a dim near 2^31
        pairs = {divmod(key, 1 << 32): key for key in sorted(set(keys.tolist()))}
        spectra = np.zeros((len(ends), max(map(min, pairs), default=1)))
        for pair, key in pairs.items():
            rows = np.flatnonzero(keys == key)
            self.groups[pair] = rows, group_states(pair, rows)
            spectra[rows, :min(pair)] = schmidt_spectrum(self.groups[pair][1], (0,))
        self.spectra = _probs(spectra)
        for a in (self.ends, self.dims, self.spectra):
            a.setflags(write=False)
        return self

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in edge order, built from the arrays on first use; each
        state is its row of its group's stack, as ``PureState.unstack`` gives it."""
        states = {row: state for rows, stack in self.groups.values()
                  for row, state in zip(rows.tolist(), stack.unstack())}
        return tuple(Edge(i, j, states[row]) for row, (i, j) in enumerate(self.ends.tolist()))

    def _halves(self, party: int) -> np.ndarray:
        """(E, 2) mask of the party's halves; IndexError for a party outside
        0..n_parties - 1."""
        if not 0 <= party < self.n_parties:
            raise IndexError(f"party {party} outside {self.n_parties} parties")
        return self.ends == party

    def incident(self, party: int) -> list[tuple[Edge, int]]:
        """Edges touching the party, with the index (0/1) of its half, in edge
        order. IndexError for a party outside 0..n_parties - 1."""
        return [(self.edges[row], half) for row, half in np.argwhere(self._halves(party)).tolist()]

    def party_dim(self, party: int) -> int:
        return math.prod(self.dims[self._halves(party)].tolist())


@dataclass(frozen=True)
class PolygonReport:
    """Per-party one-to-group values and polygon residuals tau."""

    values: tuple[float, ...]
    taus: tuple[float, ...]


def _raw_values(n_parties: int, ends: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Raw S^t of every party's marginal over the edges ``ends`` with the
    Schmidt spectra ``x``, in bits.

    The marginal's spectrum is the product distribution P of the Schmidt
    spectra x_e of the party's edges. Its Shannon part is sum_e H(x_e). Its
    dual part sums -(1-p) ln(1-p) = p - sum_{k>=2} p^k / (k(k-1)) over P:
    the largest entry p_max = prod_e a_e (a_e the top of x_e) is taken out
    exactly, and for the rest the power sums P_k - p_max^k = P_k (1 -
    exp(-s_k)), with s_k = sum_e log1p(r_ek / a_e^k) and r_ek the k-th
    power sum of x_e without its top, so that nothing cancels when p_max
    is near 1.
    """
    per_edge = np.zeros((len(x), 2 + _POWERS.size))
    per_edge[:, 0] = 0.0 - np.sum(_xlog2x(x), axis=1)
    per_edge[:, 1] = np.log1p(-np.sum(x[:, 1:], axis=1))  # ln a_e, read off the small entries
    power_sums = per_edge[:, 2:]
    for ratio in (x[:, 1:] / x[:, :1]).T:
        power_sums += ratio[:, None] ** _POWERS
    np.log1p(power_sums, out=power_sums)
    # a bincount over the flat (party, column) index per endpoint side adds
    # every per-edge term onto both endpoints
    width = per_edge.shape[1]
    acc = sum(np.bincount((side[:, None] * width + np.arange(width)).ravel(), per_edge.ravel(),
                          minlength=n_parties * width) for side in ends.T)
    acc = acc.reshape(n_parties, width)
    shannon, log_top, s = acc[:, 0], acc[:, 1], acc[:, 2:]
    rest = 0.0 - np.expm1(log_top)  # 1 - p_max
    below_top = np.exp(_POWERS * log_top[:, None] + s) * (0.0 - np.expm1(-s))
    series = below_top @ (1.0 / (_POWERS * (_POWERS - 1.0)))
    return shannon + (rest - series) / math.log(2) - _xlog2x(rest)


def _party_values(net: NetworkTopology, rows, norm: NormPolicy | None) -> list[float]:
    """S^t of every party over the edges ``rows``, divided by r(d) when
    ``norm`` is given.

    d is what ``norm`` picks for the party's dim and the rest dim of the
    whole network, through the rule the measures use. A party with a side
    of dim 1 (no edges, only halves of dim 1, or a rest of dim 1) has the
    raw value 0, and it keeps 0 under every norm.
    """
    values = _raw_values(net.n_parties, net.ends[rows], net.spectra[rows]).tolist()
    if norm is None:
        return values
    # each party's dim as a Python int, prod_d d^(number of its halves of dim d)
    dims = [1] * net.n_parties
    for d in set(net.dims.ravel().tolist()):
        counts = np.bincount(net.ends[net.dims == d], minlength=net.n_parties).tolist()
        dims = [dim * d ** count for dim, count in zip(dims, counts)]
    total = math.prod(dims)
    ds = [_norm_dim(norm, d, total // d) for d in dims]
    return [v / norm_factor(d) if d else v for v, d in zip(values, ds)]


def one_to_group(net: NetworkTopology, party: int, norm: NormPolicy | None = None) -> float:
    """Total entropy of the party's marginal, from its edges' Schmidt spectra.

    Raw S^t when ``norm`` is None; otherwise divided by r(d) with d chosen
    by the policy over (party dim, rest dim). A party without edges, or
    whose halves all have dim 1, has the value 0 under any norm.
    """
    return _party_values(net, net._halves(party).any(axis=1), norm)[party]


def polygon_check(net: NetworkTopology, norm: NormPolicy | None = None) -> PolygonReport:
    """tau_i = E(i|rest) - sum_{j != i} E(j|rest) for every party.

    In the raw mode (``norm`` None) the polygon inequality asserts tau_i <= 0.
    """
    if net.n_parties < 3:
        raise ValueError("polygon check needs at least 3 parties")
    vals = _party_values(net, slice(None), norm)
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
    row per such edge (real and imaginary parts interleaved). Each block is
    normalized row by row and validated once, as the ``PureState`` stack of
    its group.
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
    if not 0.0 <= edge_prob <= 1.0:  # also rejects NaN
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    # coins in blocks of whole rows of at most _COIN_BLOCK pairs, so memory
    # stays bounded whatever n; the generator fills a draw in order, so the
    # blocks read the coins of one call over all pairs (one block up to n = 256)
    parties = np.arange(n)
    step = max(1, _COIN_BLOCK // n)
    drawn = []
    for lo in range(0, n - 1, step):
        # the flat indices i n + j of the pairs i < j in rows lo.., in order
        pairs = np.flatnonzero(parties[lo:lo + step, None] < parties) + lo * n
        drawn.append(pairs[rng.random(pairs.size) < edge_prob])
    ends = np.array(np.divmod(np.concatenate(drawn), n)).T
    dims = np.asarray(EDGE_DIMS)[rng.integers(len(EDGE_DIMS), size=(len(ends), 2))]

    def draw(pair, rows):
        z = rng.standard_normal((rows.size, math.prod(pair), 2)).view(complex)[..., 0]
        return PureState(z / np.linalg.norm(z, axis=1, keepdims=True), pair)

    return NetworkTopology.__new__(NetworkTopology)._build(n, ends, dims, draw)


def global_state(net: NetworkTopology) -> tuple[PureState, dict[int, list[int]]]:
    """Dense tensor of all edge states, plus party -> subsystem index map.

    Edge k holds subsystems 2k (party i's half) and 2k + 1 (party j's half).
    """
    if not len(net.ends):
        raise ValueError("network has no edges")
    owner = {p: np.flatnonzero(net.ends.ravel() == p).tolist() for p in range(net.n_parties)}
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
