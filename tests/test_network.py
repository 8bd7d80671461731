import hashlib
import math
import tracemalloc
from decimal import Decimal, localcontext
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualentropy import (DIM_A, DIM_B, MIN_DIM, Edge, NetworkTopology, PureState,
                         e_t_example3_one_to_group, example5_report, explicit,
                         global_state, norm_factor, one_to_group,
                         one_to_group_dense, polygon_check, random_network, random_pure,
                         schmidt_spectrum, total_classical)
from dualentropy.network import EDGE_DIMS
from dualentropy.states import NORM_TOL


def party_marginal_spectrum(net, party):
    """Oracle: the party's marginal spectrum, the materialized product
    distribution of its edges' Schmidt spectra (prod of ranks entries)."""
    spectra = (schmidt_spectrum(e.state, (half,)) for e, half in net.incident(party))
    return reduce(np.outer, spectra, np.ones(1)).ravel()


def bell():
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


def triangle_bells():
    return NetworkTopology(3, (Edge(0, 1, bell()), Edge(0, 2, bell()),
                               Edge(1, 2, bell())))


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge(1, 0, bell())
    with pytest.raises(ValueError):
        Edge(0, 1, random_pure((2, 2, 2), 0))
    with pytest.raises(ValueError):
        NetworkTopology(2, (Edge(0, 2, bell()),))


def test_party_marginal_spectrum_single_edge():
    net = NetworkTopology(2, (Edge(0, 1, bell()),))
    lam = party_marginal_spectrum(net, 0)
    assert np.allclose(np.sort(lam), [0.5, 0.5])
    assert abs(one_to_group(net, 0) - 2.0) < 1e-12  # S^t of I/2


def test_two_bell_edges_product_spectrum():
    net = NetworkTopology(3, (Edge(0, 1, bell()), Edge(0, 2, bell())))
    lam = party_marginal_spectrum(net, 0)
    assert np.allclose(np.sort(lam), np.full(4, 0.25))
    # S^t of I/4 = r(4)
    assert abs(one_to_group(net, 0) - norm_factor(4)) < 1e-12
    assert abs(one_to_group(net, 0, MIN_DIM) - 1.0) < 1e-12


def test_forty_qutrit_edges_meet_the_closed_form():
    # 3^40 spectrum entries, all 3^-40: S^t = log2 N - (N - 1) log2(1 - 1/N)
    phi = PureState(np.eye(3).ravel() / np.sqrt(3), (3, 3))
    net = NetworkTopology(41, tuple(Edge(0, j, phi) for j in range(1, 41)))
    n = 3 ** 40
    closed = math.log2(n) - (n - 1) * math.log1p(-1 / n) / math.log(2)
    assert abs(one_to_group(net, 0) - closed) <= 1e-14 * closed
    report = polygon_check(net)
    assert abs(report.values[0] - closed) <= 1e-14 * closed
    assert report.values[1:] == (report.values[1],) * 40
    assert abs(report.values[1] - norm_factor(3)) <= 1e-14


def _decimal_total_entropy(x, count):
    """S^t in bits of the product of ``count`` copies of the spectrum (a, e),
    summed over its count + 1 distinct entries in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, e = Decimal(x[0]), Decimal(x[1])
        a, e = a / (a + e), e / (a + e)
        total = Decimal(0)
        for j in range(count + 1):
            p = a ** (count - j) * e ** j
            term = -p * p.ln() - ((1 - p) * (1 - p).ln() if p < 1 else 0)
            total += math.comb(count, j) * term
        return float(total / Decimal(2).ln())


@pytest.mark.parametrize("eps", [1e-3, 1e-8, 1e-14])
def test_near_product_party_matches_a_decimal_oracle(eps):
    # 16 identical (1 - eps, eps) edges at party 0: p_max is near 1, where a
    # sum over the materialized spectrum is off by 1.8e-13 at eps = 1e-3
    state = PureState(np.array([np.sqrt(1 - eps), 0, 0, np.sqrt(eps)]), (2, 2))
    net = NetworkTopology(17, tuple(Edge(0, j, state) for j in range(1, 17)))
    want = _decimal_total_entropy(schmidt_spectrum(state, (0,)), 16)
    assert abs(one_to_group(net, 0) - want) <= 1e-14


def test_dimension_one_halves_are_zero_under_every_norm():
    # party 0's only half has dim 1: its raw value is 0, and no d is resolved
    net = NetworkTopology(3, (Edge(0, 1, PureState([1, 0], (1, 2))),
                              Edge(1, 2, random_pure((2, 2), 1))))
    for norm in (None, MIN_DIM, DIM_A, DIM_B, explicit(4)):
        assert one_to_group(net, 0, norm) == 0.0
        assert polygon_check(net, norm).values[0] == 0.0
    assert polygon_check(net, MIN_DIM).values[2] == one_to_group(net, 2) / norm_factor(2)
    # party 0 holds every dim above 1, so its rest has dim 1
    lone = NetworkTopology(3, (Edge(0, 1, PureState([1, 0], (2, 1))),))
    for norm in (MIN_DIM, DIM_A, DIM_B):
        assert polygon_check(lone, norm).values == (0.0, 0.0, 0.0)


@st.composite
def small_networks(draw):
    """Up to 4 parties and 6 edges, parallel edges, halves of dim 1 and
    product edges (one side's state times the other's) included."""
    n = draw(st.integers(3, 4))
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        seed = draw(st.integers(0, 2 ** 32 - 1))
        if draw(st.booleans()):
            state = random_pure(dims, seed)
        else:
            halves = (random_pure((d,), seed + k).amplitudes for k, d in enumerate(dims))
            state = PureState(np.kron(*halves), dims)
        edges.append(Edge(i, j, state))
    return NetworkTopology(n, tuple(edges))


@given(small_networks(), st.integers(2, 16))
def test_power_sums_match_the_materialized_spectrum(net, d):
    report = polygon_check(net)
    assert max(report.taus) <= 1e-9
    # a policy shared by every party divides every value by one r(d)
    assert max(polygon_check(net, explicit(d)).taus) <= 1e-9
    for p in range(net.n_parties):
        want = total_classical(party_marginal_spectrum(net, p))
        assert abs(report.values[p] - want) <= 1e-13
        assert abs(one_to_group(net, p) - want) <= 1e-13


def test_isolated_party_contributes_nothing():
    net = NetworkTopology(3, (Edge(0, 1, bell()),))
    assert one_to_group(net, 2) == 0.0
    assert net.party_dim(2) == 1


def test_party_outside_the_network_raises_index_error():
    net = random_network(4, 1.0, seed=0)
    for party in (4, -1):
        for f in (net.incident, net.party_dim,
                  lambda p: one_to_group(net, p), lambda p: one_to_group(net, p, MIN_DIM),
                  lambda p: one_to_group_dense(net, p)):
            with pytest.raises(IndexError, match=f"party {party} outside 4 parties"):
                f(party)


def test_parallel_edges_match_the_dense_path():
    # two states shared by parties 0 and 1, as two parallel edges
    net = NetworkTopology(3, (Edge(0, 1, random_pure((2, 3), 1)),
                              Edge(0, 1, random_pure((3, 2), 2)),
                              Edge(1, 2, random_pure((2, 2), 3))))
    assert [net.party_dim(p) for p in range(3)] == [6, 12, 2]
    assert party_marginal_spectrum(net, 0).size == 4  # Schmidt ranks 2 x 2
    psi, owner = global_state(net)
    for p in range(3):
        dense = one_to_group_dense(net, p)
        assert abs(one_to_group(net, p) - dense) <= 1e-12
        dim_a = int(np.prod([psi.dims[k] for k in owner[p]]))
        dim_b = int(np.prod(psi.dims)) // dim_a
        for norm in (MIN_DIM, DIM_A, DIM_B, explicit(5)):
            want = dense / norm_factor(norm(dim_a, dim_b))
            assert abs(one_to_group(net, p, norm) - want) <= 1e-12


@pytest.mark.parametrize("k, tau_1", [(1, 0.3837), (2, 0.5401), (5, 0.7309), (10, 0.8393)])
def test_product_edges_are_witnesses_against_normalized_polygons(k, tau_1):
    # a Bell pair on (0, 1) and |00> on (0, j), j = 2..k+1: party 0 has dim
    # 2^(k+1) but the S^t of one qubit, 2, so a party-dependent d breaks the
    # inequality by up to 1 while raw S^t, or any shared d, meets it with equality
    zero = PureState([1, 0, 0, 0], (2, 2))
    net = NetworkTopology(k + 2, (Edge(0, 1, bell()),)
                          + tuple(Edge(0, j, zero) for j in range(2, k + 2)))
    want = 1 - 2 / norm_factor(2 ** (k + 1))
    assert round(want, 4) == tau_1
    for norm in (MIN_DIM, DIM_A):
        assert abs(polygon_check(net, norm).taus[1] - want) <= 1e-12
    want_b = 2 / norm_factor(2 ** (k + 1)) - 2 / norm_factor(2 ** (2 * k + 1))
    assert abs(polygon_check(net, DIM_B).taus[0] - want_b) <= 1e-12
    if k == 1:
        assert round(want_b, 4) == 0.1564
    for norm in (None, explicit(4)):
        assert all(abs(tau) <= 1e-12 for tau in polygon_check(net, norm).taus[:2])


def test_triangle_of_bells_polygon():
    report = polygon_check(triangle_bells())
    assert np.allclose(report.values, [norm_factor(4)] * 3, atol=1e-12)
    assert np.allclose(report.taus, [-norm_factor(4)] * 3, atol=1e-12)
    with pytest.raises(ValueError):
        polygon_check(NetworkTopology(2, (Edge(0, 1, bell()),)))


def global_dim(net):
    return int(np.prod([d for e in net.edges for d in e.state.dims]))


def test_fast_path_matches_dense():
    checked = 0
    for seed in range(20):
        net = random_network(4, 0.5, seed=seed)
        if not net.edges or global_dim(net) > 2 ** 10:
            continue
        for p in range(4):
            fast = one_to_group(net, p)
            dense = one_to_group_dense(net, p)
            assert abs(fast - dense) < 1e-8
        checked += 1
    assert checked >= 3


def test_edge_level_schmidt_symmetry():
    from dualentropy import schmidt_spectrum
    net = random_network(4, 0.9, seed=5)
    for e in net.edges:
        la = np.sort(schmidt_spectrum(e.state, (0,)))[::-1]
        lb = np.sort(schmidt_spectrum(e.state, (1,)))[::-1]
        k = min(la.size, lb.size)
        assert np.allclose(la[:k], lb[:k], atol=1e-8)


def test_random_networks_satisfy_polygon():
    for seed in range(40):
        n = 3 + seed % 3
        net = random_network(n, 0.8, seed=seed)
        if len(net.edges) < 2:
            continue
        report = polygon_check(net)
        assert max(report.taus) <= 1e-9


# (parties, seed): edge count, sha256 prefix of the (i, j, dims) list, and a
# checksum of the amplitudes, sum_t (t + 1) amp_t over all edges in order; a
# changed draw moves the checksum by order 1, a different BLAS by ~1e-15
SEEDED_NETWORKS = {
    (3, 0): (3, "fa508748406eeee3", -10.805549103489898 + 24.645540814257963j),
    (5, 7): (7, "cf3e96171f661525", -18.9303934258696 - 55.75210776638184j),
    (8, 11): (23, "ad8e604d3c72a572", 84.70074182887592 + 150.89533384333777j),
    (20, 1): (151, "8d2210a30c677e00", -992.646159010365 - 692.5498679466118j),
}


@pytest.mark.parametrize("n, seed", sorted(SEEDED_NETWORKS))
def test_seeded_networks_are_pinned(n, seed):
    count, digest, checksum = SEEDED_NETWORKS[n, seed]
    net = random_network(n, 0.8, seed=seed)
    assert len(net.edges) == count
    ends = np.array([(e.i, e.j, *e.state.dims) for e in net.edges], dtype="<i8")
    assert hashlib.sha256(ends.tobytes()).hexdigest()[:16] == digest
    amps = np.concatenate([e.state.amplitudes for e in net.edges])
    assert abs(np.sum(amps * np.arange(1, amps.size + 1)) - checksum) <= 1e-12 * abs(checksum)


@pytest.mark.parametrize("n, seed", sorted(SEEDED_NETWORKS))
def test_a_network_rebuilt_from_its_edges_holds_the_same_table(n, seed):
    net = random_network(n, 0.8, seed=seed)
    rebuilt = NetworkTopology(net.n_parties, net.edges)
    assert np.array_equal(rebuilt.ends, net.ends)
    assert np.array_equal(rebuilt.dims, net.dims)
    for norm in (None, MIN_DIM, DIM_B):
        assert polygon_check(rebuilt, norm) == polygon_check(net, norm)


def test_the_coin_draw_takes_memory_bounded_in_the_party_count():
    # the coins of n(n - 1)/2 pairs, 112.5 MB at 3,000 parties if drawn at once
    for n in (3000, 6000):
        tracemalloc.start()
        try:
            net = random_network(n, 0.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.ends.shape == (0, 2)
        assert peak <= 4e6, (n, peak)


def test_each_dims_group_is_validated_once(monkeypatch):
    checked = []
    validate = PureState.__post_init__

    def counting(self):
        validate(self)
        checked.append((self.dims, self.shape))

    monkeypatch.setattr(PureState, "__post_init__", counting)
    for n, prob, seed in ((2, 0.0, 0), (3, 1.0, 0), (8, 0.8, 11), (60, 1.0, 2)):
        checked.clear()
        net = random_network(n, prob, seed=seed)
        groups = {}
        for e in net.edges:
            groups[e.state.dims] = groups.get(e.state.dims, 0) + 1
        assert sorted(checked) == sorted((dims, (count,)) for dims, count in groups.items())


def test_drawn_edge_states_meet_the_state_invariants():
    net = random_network(200, 1.0, seed=4)
    assert [(e.i, e.j) for e in net.edges] == [(i, j) for i in range(200)
                                               for j in range(i + 1, 200)]
    groups = {}
    for e in net.edges:
        amps = e.state.amplitudes
        assert e.state.shape == () and not amps.flags.writeable
        assert all(d in EDGE_DIMS for d in e.state.dims)
        assert amps.shape == (math.prod(e.state.dims),) and np.isfinite(amps).all()
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= NORM_TOL
        groups.setdefault(e.state.dims, []).append(amps)
    # uniform side dims: each of the four groups holds a quarter of the 19,900
    # edges, a count with a standard deviation of 61
    assert sorted(groups) == [(2, 2), (2, 3), (3, 2), (3, 3)]
    assert all(abs(len(g) - len(net.edges) / 4) <= 250 for g in groups.values())
    # Haar: E|psi_k|^4 = 2 / (d (d + 1)); a real Gaussian draw would give
    # 3 / (d (d + 2)), 25 to 36 % higher at d = 4 to 9
    for g in groups.values():
        p = np.abs(np.array(g)) ** 2
        d = p.shape[1]
        assert abs(np.mean(p ** 2) * d * (d + 1) / 2 - 1.0) <= 0.03


def test_random_network_deterministic():
    a = random_network(5, 0.5, seed=42)
    b = random_network(5, 0.5, seed=42)
    assert len(a.edges) == len(b.edges)
    for ea, eb in zip(a.edges, b.edges):
        assert (ea.i, ea.j, ea.state.dims) == (eb.i, eb.j, eb.state.dims)
        assert np.array_equal(ea.state.amplitudes, eb.state.amplitudes)
    assert not random_network(4, 0.0, seed=0).edges
    with pytest.raises(ValueError):
        random_network(1, 0.5)
    assert len(random_network(4, 1.0, seed=0).edges) == 6
    for p in (float("nan"), float("inf"), -0.1, 1.5):
        with pytest.raises(ValueError, match="edge_prob"):
            random_network(4, p)


def test_isolated_party_is_zero_under_every_norm():
    net = random_network(6, 0.2, seed=5)
    isolated = [p for p in range(6) if not net.incident(p)]
    assert isolated == [2, 3]
    for norm in (MIN_DIM, DIM_A, explicit(4)):
        report = polygon_check(net, norm)
        assert [report.values[p] for p in isolated] == [0.0, 0.0]
        assert all(report.values[p] > 0 for p in range(6) if p not in isolated)


def test_polygon_report_csv():
    report = polygon_check(triangle_bells())
    assert len(report.values) == len(report.taus) == 3
    st = 4.0 * (2.0 - 0.75 * np.log2(3.0))  # four eigenvalues 1/4 per party
    for value, tau in zip(report.values, report.taus):
        assert abs(value - st) < 1e-12 and abs(tau + st) < 1e-12


def test_example5_report():
    res = example5_report()
    assert float(np.max(res.values)) <= 1e-9
    thetas = res.axes["theta"]
    mid = int(np.argmin(np.abs(thetas - np.pi / 4)))
    assert abs(res.axes["E_B"][mid] - 1.0) < 1e-10
    assert abs(res.axes["E_C"][mid] - 1.0) < 1e-10
    assert abs(res.axes["E_B"][0]) < 1e-12
    assert abs(res.values[0] - (res.axes["E_A"][0] - 1.0)) < 1e-12
    assert res.values[0] < 0
    # E_A agrees with the chain-state closed form at every grid point
    for th, ea in zip(thetas[::10], res.axes["E_A"][::10]):
        assert abs(ea - e_t_example3_one_to_group(np.cos(th), np.sin(th))) < 1e-12
