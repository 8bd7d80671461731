import numpy as np
import pytest

from dualentropy import (DIM_A, DIM_B, MIN_DIM, Edge, NetworkTopology, PureState,
                         e_t_example3_one_to_group, example5_report, explicit,
                         global_state, norm_factor, one_to_group,
                         one_to_group_dense, party_marginal_spectrum,
                         polygon_check, random_network, random_pure)


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


def test_oversized_party_spectrum_fails_before_allocation(monkeypatch):
    from dualentropy import network
    # 23 Bell edges at party 0: 2^23 entries, one doubling above MAX_SPECTRUM
    n = 24
    net = NetworkTopology(n, tuple(Edge(0, j, bell()) for j in range(1, n)))
    assert 2 ** (n - 1) == 2 * network.MAX_SPECTRUM

    def no_spectra(*args):
        raise AssertionError("spectra built for an oversized party")

    monkeypatch.setattr(network, "schmidt_spectrum", no_spectra)
    with pytest.raises(ValueError, match="MAX_SPECTRUM"):
        party_marginal_spectrum(net, 0)
    with pytest.raises(ValueError, match="MAX_SPECTRUM"):
        polygon_check(net)
    small = NetworkTopology(3, (Edge(0, 1, bell()), Edge(0, 2, bell())))
    with pytest.raises(AssertionError):  # within the cap the spectra are built
        party_marginal_spectrum(small, 0)


def test_isolated_party_contributes_nothing():
    net = NetworkTopology(3, (Edge(0, 1, bell()),))
    assert one_to_group(net, 2) == 0.0
    assert net.party_dim(2) == 1


def test_party_outside_the_network_raises_index_error():
    net = random_network(4, 1.0, seed=0)
    for party in (4, -1):
        for f in (net.incident, net.party_dim, lambda p: party_marginal_spectrum(net, p),
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
            want = dense / norm_factor(norm.resolve(dim_a, dim_b))
            assert abs(one_to_group(net, p, norm) - want) <= 1e-12


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


def test_random_network_fails_while_drawing_once_a_party_passes_the_cap(monkeypatch):
    from dualentropy import network
    draws = []

    def counting(dims, rng):
        draws.append(dims)
        return random_pure(dims, rng)

    monkeypatch.setattr(network, "random_pure", counting)
    with pytest.raises(ValueError, match="MAX_SPECTRUM"):
        random_network(1600, 0.8, seed=0)
    # party 0's pairs are drawn first and each of its edges at least doubles
    # its spectrum, so it passes 2^22 = MAX_SPECTRUM by its 23rd edge, which
    # fails before its state is drawn
    assert 0 < len(draws) <= 22


def test_random_network_deterministic():
    a = random_network(5, 0.5, seed=42)
    b = random_network(5, 0.5, seed=42)
    assert len(a.edges) == len(b.edges)
    for ea, eb in zip(a.edges, b.edges):
        assert (ea.i, ea.j) == (eb.i, eb.j)
        assert np.allclose(ea.state.amplitudes, eb.state.amplitudes)
    assert not random_network(4, 0.0, seed=0).edges
    with pytest.raises(ValueError):
        random_network(1, 0.5)
    assert len(random_network(4, 1.0, seed=0).edges) == 6
    for p in (float("nan"), float("inf"), -0.1, 1.5):
        with pytest.raises(ValueError, match="edge_prob"):
            random_network(4, p)


def test_isolated_party_is_zero_under_every_norm():
    net = random_network(6, 0.2, seed=3)
    isolated = [p for p in range(6) if not net.incident(p)]
    assert isolated == [3, 4]
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
