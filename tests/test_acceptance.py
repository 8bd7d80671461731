"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failure) and asserts the same condition, so the
suite both documents and enforces the headline claims.
"""

import numpy as np

from dualentropy import (Bipartition, DensityMatrix, PureState, RoofConfig,
                         concurrence_pure, concurrence_two_qubit, convex_roof,
                         cut, e_t_example3_one_to_group, e_t_pure,
                         e_t_two_qubit, eof_example3, eof_pure,
                         example3_family, example4_state, example5_report,
                         explicit, f_q, h, norm_factor, one_to_group,
                         one_to_group_dense, pairwise_e_t_example3,
                         pairwise_e_t_example4, polygon_check,
                         power_crossover, random_density, random_network,
                         random_pure, random_unitary, reduced_state, s_total,
                         scan_example3, scan_example6, schmidt_spectrum,
                         shannon, t_q_pure, tensor, total_classical)
from dualentropy.dynamics import (H5_COUPLINGS, H6_COUPLINGS, heisenberg,
                                  plus_state, random_fields, default_cuts)

LG3 = np.log2(3.0)


def report(name: str, ok: bool) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_fixed_6x3x3_scenario():
    psi = example4_state()
    bip = cut(psi, (0,))
    ok = abs(e_t_pure(psi, bip) - 1.0) <= 1e-12

    pair, pair2 = pairwise_e_t_example4()
    ok &= abs(pair - 0.9520) <= 5e-4 and pair == pair2

    eof_group = eof_pure(psi, bip)
    ok &= abs(eof_group - np.log2(6.0)) <= 1e-12
    rho_ab = reduced_state(psi, (0, 1))
    # flat roof: each decomposition component shares the spectrum (1/2,1/4,1/4)
    w, v = np.linalg.eigh(rho_ab.matrix)
    comp = PureState(v[:, -1], rho_ab.dims)
    eof_ab = shannon(schmidt_spectrum(comp, (0,)))
    ok &= abs(eof_ab - 1.5) <= 1e-12

    # squared-EOF monogamy gap stays nonnegative
    ok &= eof_group ** 2 - 2.0 * eof_ab ** 2 >= -1e-12

    ok &= power_crossover(e_t_pure(psi, bip), [pair, pair]) == 15
    assert report("criterion 1 (fixed 6x3x3 scenario headline values)", ok)


def test_criterion_2_chain_family_residuals():
    thetas = np.linspace(0.0, np.pi / 2.0, 101)
    res_ef = scan_example3("eof", 1.0, thetas)
    ok = float(np.max(np.abs(res_ef.values))) <= 1e-9

    res_et = scan_example3("e_t", 1.0, thetas)
    ok &= float(np.max(res_et.values)) <= 1e-9

    # closed forms agree with direct evaluation of the states themselves
    for th in thetas[::10]:
        psi = example3_family(th)
        direct = e_t_pure(psi, cut(psi, (0,)), explicit(4))
        ok &= abs(direct - e_t_example3_one_to_group(np.cos(th), np.sin(th))) < 1e-10
        g_ef = eof_example3(np.cos(th), np.sin(th))[0]
        ok &= abs(eof_pure(psi, cut(psi, (0,))) - g_ef) < 1e-10

    e_ac = pairwise_e_t_example3(1.0, 0.0)[1]
    ok &= abs(e_ac - 2.0 / (8.0 - 3.0 * LG3)) <= 1e-12
    assert report("criterion 2 (chain-family residuals and E_t(rho_AC))", ok)


def test_criterion_3_total_entropy_property_suite():
    rng = np.random.default_rng(2024)
    ok = True

    # (i) bounds, 1000 random states per dimension, extremes attained
    for d in range(2, 7):
        top = norm_factor(d)
        for _ in range(1000):
            val = s_total(random_density((d,), seed=rng))
            ok &= -1e-10 <= val <= top + 1e-10
        ok &= abs(s_total(DensityMatrix(np.eye(d) / d, (d,))) - top) <= 1e-10
        ok &= s_total(random_pure((d,), rng).density()) <= 1e-10

    # (ii) concavity under random mixtures of up to 4 states
    for k in range(1000):
        d = 2 + k % 5
        n = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(n))
        parts = [random_density((d,), seed=rng) for _ in range(n)]
        mixed = DensityMatrix(sum(w * r.matrix for w, r in zip(p, parts)), (d,))
        ok &= s_total(mixed) >= sum(w * s_total(r) for w, r in zip(p, parts)) - 1e-10

    # (iii) marginal symmetry for random bipartite pure states
    for k in range(1000):
        da, db = 2 + k % 5, 2 + (k // 5) % 5
        psi = random_pure((da, db), rng)
        ok &= abs(s_total(reduced_state(psi, (0,)))
                  - s_total(reduced_state(psi, (1,)))) < 1e-8

    # (iv) unitary invariance
    for k in range(1000):
        d = 2 + k % 5
        rho = random_density((d,), seed=rng)
        u = random_unitary(d, rng)
        rot = DensityMatrix(u @ rho.matrix @ u.conj().T, (d,))
        ok &= abs(s_total(rot) - s_total(rho)) < 1e-8

    # (v) strict subadditivity on products with a mixed factor
    for k in range(1000):
        da, db = 2 + k % 3, 2 + (k // 3) % 2
        a = random_density((da,), seed=rng)
        b = random_density((db,), seed=rng)
        sa, sb = s_total(a), s_total(b)
        st = s_total(tensor(a, b))
        ok &= st < sa + sb + 1e-10 and st >= max(sa, sb) - 1e-10

    # (vi) bounded by the classical total entropy of the mixing weights
    for k in range(1000):
        d = 2 + k % 5
        n = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(n))
        vecs = [random_pure((d,), rng) for _ in range(n)]
        mixed = DensityMatrix(sum(w * s.density().matrix
                                  for w, s in zip(p, vecs)), (d,))
        ok &= s_total(mixed) <= total_classical(p) + 1e-8

    assert report("criterion 3 (six total-entropy properties, d in 2..6)", ok)


def test_criterion_4_bridge_function_monotone_convex():
    xs = np.arange(0.01, 0.99 + 1e-12, 0.01)
    step = 1e-4
    first = (h(xs + step) - h(xs - step)) / (2 * step)
    second = (h(xs + step) - 2 * h(xs) + h(xs - step)) / step ** 2
    ok = bool(np.all(first > 0) and np.all(second > 0))
    assert report("criterion 4 (h strictly increasing and convex)", ok)


def test_criterion_5_two_qubit_roof_vs_analytic():
    rng = np.random.default_rng(7)
    bip = Bipartition.of((2, 2), (0,))
    cfg = RoofConfig(restarts=20, max_iters=150, seed=1)
    ok = True
    for _ in range(50):
        rho = random_density((2, 2), rank=2, seed=rng)
        exact = e_t_two_qubit(rho)
        roof = convex_roof(rho, bip, e_t_pure, cfg).value
        ok &= abs(roof - exact) <= 1e-3
        ok &= roof >= exact - 1e-9

    for _ in range(500):
        psi = random_pure((2, 2), rng)
        c_pure = concurrence_pure(psi, bip)
        c_mixed = concurrence_two_qubit(psi.density())
        ok &= abs(c_pure - c_mixed) <= 1e-10
    assert report("criterion 5 (convex roof vs analytic two-qubit forms)", ok)


def test_criterion_6_spin_chain_inequality_and_conservation():
    times = np.linspace(0.0, 100.0, 200)
    ok = True
    for n, couplings in ((5, H5_COUPLINGS), (6, H6_COUPLINGS)):
        for seed in range(5):
            ham = heisenberg(n, couplings, random_fields(n, seed))
            psi0 = plus_state(n)
            m = ham.matrix()
            w, v = np.linalg.eigh(m)
            coeff = v.conj().T @ psi0.amplitudes
            e0 = float(np.real(coeff.conj() @ (w * coeff)))
            for t in times:
                amp = v @ (np.exp(-1j * w * t) * coeff)
                ok &= abs(np.linalg.norm(amp) - 1.0) <= 1e-9
                energy = float(np.real(amp.conj() @ m @ amp))
                ok &= abs(energy - e0) <= 1e-9
                psi_t = PureState(amp, psi0.dims)
                for c in default_cuts(n):
                    lam = schmidt_spectrum(psi_t, c)
                    lam = np.clip(lam, 0.0, 1.0)
                    lam /= lam.sum()
                    s = shannon(lam)
                    st = total_classical(lam)
                    ok &= s <= st + 1e-12 and st <= 2.0 * s + 1e-9
    assert report("criterion 6 (S <= S_t <= 2S plus conservation laws)", ok)


def test_criterion_7_polygon_inequality_at_scale():
    ok = True
    dense_checked = 0
    for seed in range(1000):
        n = 3 + seed % 3
        net = random_network(n, 0.6, seed=seed)
        if len(net.edges) < 2:
            continue
        report_ = polygon_check(net)
        ok &= max(report_.taus) <= 1e-9
        dim = int(np.prod([d for e in net.edges for d in e.state.dims]))
        if dim <= 2 ** 10:
            for p in range(n):
                ok &= abs(one_to_group(net, p) - one_to_group_dense(net, p)) <= 1e-8
            dense_checked += 1
    ok &= dense_checked >= 50
    # at scale: every party of seeded networks of 100 to 200 parties
    for n, seed in ((100, 0), (150, 1), (200, 2)):
        ok &= max(polygon_check(random_network(n, 0.8, seed=seed)).taus) <= 1e-9

    res5 = example5_report()
    ok &= float(np.max(res5.values)) <= 1e-9
    assert report("criterion 7 (polygon tau <= 0 on 1000 random networks of 3-5 "
                  "parties and 3 of 100-200)", ok)


def test_criterion_8_tsallis_bridge_and_signed_residuals():
    xs = np.linspace(0.0, 1.0, 201)
    ok = bool(np.max(np.abs(f_q(xs, 2.0) - xs ** 2)) <= 1e-12)

    rng = np.random.default_rng(11)
    for k in range(200):
        d = 2 + k % 4
        psi = random_pure((2, d), rng)
        bip = cut(psi, (0,))
        q = float(rng.uniform(0.3, 4.0))
        if abs(q - 1.0) < 1e-2:
            q = 2.5
        ok &= abs(t_q_pure(psi, bip, q)
                  - f_q(concurrence_pure(psi, bip), q)) <= 1e-10

    res = scan_example6()
    assert res.metadata["source"] == "spectra"
    ok &= bool(np.any(res.values > 1e-12)) and bool(np.any(res.values < -1e-12))
    assert report("criterion 8 (Tsallis bridge identity; residuals of both signs)", ok)


def test_criterion_9_flat_roof_restart_variance():
    psi = example4_state()
    rho_ab = reduced_state(psi, (0, 1))
    bip = Bipartition.of(rho_ab.dims, (0,))
    cfg = RoofConfig(restarts=20, max_iters=60, ensemble_size=6, seed=3)
    result = convex_roof(rho_ab, bip, eof_pure, cfg)
    var = float(np.var(result.restart_values))
    ok = len(result.restart_values) == 20 and var < 1e-6
    ok &= abs(result.value - 1.5) < 1e-6
    assert report("criterion 9 (flat-roof restart variance < 1e-6)", ok)
