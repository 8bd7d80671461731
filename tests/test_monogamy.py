import numpy as np
import pytest

from dualentropy import (Bipartition, PureState, RoofConfig, ScanResult,
                         concurrence_pure, concurrence_two_qubit, convex_roof,
                         cut, e_t_example3_one_to_group, e_t_pure,
                         e_t_two_qubit, eof_example3, eof_pure,
                         example3_family, example3_state, example4_state,
                         example6_closed_form, example6_values, explicit,
                         norm_factor, pairwise_e_t_example3,
                         pairwise_e_t_example4, pairwise_marginal,
                         power_crossover, random_pure, reduced_state,
                         residual_tangle, scan_example3, scan_example6,
                         spectrum)
from dualentropy import monogamy
from dualentropy.monogamy import DEFAULT_GAMMAS


def test_example3_state_structure():
    psi = example3_state(1.0, 0.0)
    assert psi.dims == (4, 2, 2)
    lam = spectrum(reduced_state(psi, (0,)))
    assert np.allclose(np.sort(lam)[::-1], [0.5, 0.5, 0, 0], atol=1e-12)
    with pytest.raises(ValueError):
        example3_state(1.0, 1.0)


def test_example3_closed_form_matches_direct_evaluation():
    for th in np.linspace(0.0, np.pi / 2, 17):
        psi = example3_family(th)
        direct = e_t_pure(psi, cut(psi, (0,)), explicit(4))
        closed = e_t_example3_one_to_group(np.cos(th), np.sin(th))
        assert abs(direct - closed) < 1e-10


def test_example3_pairwise_closed_forms_vs_roof():
    th = 0.7
    alpha, beta = np.cos(th), np.sin(th)
    psi = example3_family(th)
    e_ab, e_ac = pairwise_e_t_example3(alpha, beta)
    cfg = RoofConfig(restarts=12, max_iters=150, seed=0)

    def measure_ab(s, b):
        return e_t_pure(s, b, explicit(4))

    rho_ab = pairwise_marginal(psi, 0, 1)
    roof_ab = convex_roof(rho_ab, Bipartition.of(rho_ab.dims, (0,)), measure_ab, cfg)
    assert abs(roof_ab.value - e_ab) < 1e-3
    rho_ac = pairwise_marginal(psi, 0, 2)
    roof_ac = convex_roof(rho_ac, Bipartition.of(rho_ac.dims, (0,)), measure_ab, cfg)
    assert abs(roof_ac.value - e_ac) < 1e-3


def test_example3_closed_forms_reject_unnormalized_amplitudes():
    for closed_form in (e_t_example3_one_to_group, pairwise_e_t_example3, eof_example3):
        with pytest.raises(ValueError):
            closed_form(1.0, 1e-3)  # alpha^2 + beta^2 = 1 + 1e-6


def test_eof_example3_closed_forms():
    th = 0.6
    alpha, beta = np.cos(th), np.sin(th)
    psi = example3_family(th)
    group, ab, ac = eof_example3(alpha, beta)
    assert abs(eof_pure(psi, cut(psi, (0,))) - group) < 1e-10
    assert abs(group - ab - ac) < 1e-12  # additivity drives tau = 0


def test_example4_state_marginals():
    psi = example4_state()
    assert psi.dims == (6, 3, 3)
    lam_a = spectrum(reduced_state(psi, (0,)))
    assert np.allclose(lam_a, np.full(6, 1 / 6), atol=1e-12)
    lam_ab = spectrum(reduced_state(psi, (0, 1)))
    assert np.allclose(lam_ab[:3], [1 / 3] * 3, atol=1e-12)
    assert np.all(lam_ab[3:] < 1e-12)


def test_pairwise_marginal_orders_focus_first():
    psi = example3_family(0.3)
    rho = pairwise_marginal(psi, 2, 0)
    assert rho.dims == (2, 4)
    rho2 = pairwise_marginal(psi, 0, 2)
    assert rho2.dims == (4, 2)


def test_residual_tangle_ghz():
    ghz = PureState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2), (2, 2, 2))

    def group(psi, bip):
        return concurrence_pure(psi, bip) ** 2

    def pair(rho):
        return concurrence_two_qubit(rho) ** 2

    rep = residual_tangle(ghz, 0, group, pair, gamma=1.0)
    assert abs(rep.one_to_group - 1.0) < 1e-10
    assert all(abs(v) < 1e-10 for _, v in rep.pairwise)
    assert abs(rep.tau - 1.0) < 1e-10
    with pytest.raises(ValueError):
        residual_tangle(random_pure((2, 2), 0), 0, group, pair)


def test_residual_tangle_squared_e_t_three_qubits():
    rng = np.random.default_rng(1)

    def group(psi, bip):
        return e_t_pure(psi, bip)

    for _ in range(50):
        psi = random_pure((2, 2, 2), rng)
        rep = residual_tangle(psi, 0, group, e_t_two_qubit, gamma=2.0)
        assert rep.tau >= -1e-9


def test_example6_values_and_closed_form():
    group, t_ab, t_ac = example6_values(np.pi / 4, 2.0)
    assert abs(t_ac - 1.0) < 1e-12
    assert abs(t_ab - 1.0) < 1e-12
    # group spectrum (1/4, 1/4, 1/4, 1/4) at theta = pi/4
    assert abs(group - (1 - 4 * 0.0625 - 4 * 0.5625 + 3)) < 1e-12
    # the printed closed form disagrees with the spectra for generic q
    cf = example6_closed_form(0.9, 3.0)
    direct = example6_values(0.9, 3.0)
    assert abs(cf[0] - direct[0]) > 1e-3


def test_power_crossover():
    assert power_crossover(0.9, [0.5, 0.5]) == 2
    assert power_crossover(1.0, [0.5]) == 1
    # E_t of a maximally entangled state can exceed 1 by rounding
    assert power_crossover(1.0 + 2e-16, [0.95, 0.95]) == power_crossover(1.0, [0.95, 0.95])
    assert power_crossover(0.5, [0.9]) is None
    with pytest.raises(ValueError):
        power_crossover(1.5, [0.5])


def test_scan_example3_eof_tau_vanishes():
    res = scan_example3("eof", 1.0)
    assert len(res.values) == 101
    assert float(np.max(np.abs(res.values))) < 1e-9


def test_scan_example3_e_t_tau_nonpositive():
    res = scan_example3("e_t", 1.0)
    assert float(np.max(res.values)) <= 1e-9
    assert float(np.min(res.values)) < -1e-3  # strictly negative inside
    with pytest.raises(ValueError):
        scan_example3("nope")


def test_scan_example6_has_both_signs():
    res = scan_example6()
    assert bool(np.any(res.values > 1e-12))
    assert bool(np.any(res.values < -1e-12))
    gammas = np.asarray(res.axes["gamma"])
    assert set(np.unique(gammas)) == set(DEFAULT_GAMMAS)
    # at gamma = 1 the spectra-level residual never goes positive
    g1 = res.values[gammas == 1.0]
    assert float(np.max(g1)) <= 1e-9


def test_scan_example6_grid_matches_pointwise_values():
    thetas, qs, gammas = [0.2, 0.7, 1.3], [0.5, 2.0, 3.5, 4.0], (1.0, 2.5)
    res = scan_example6(thetas, qs, gammas)
    want = []
    for th in thetas:
        for q in qs:
            group, t_ab, t_ac = example6_values(th, q)
            assert isinstance(group, float)
            want += [[th, q, gm, group ** gm - t_ab ** gm - t_ac ** gm] for gm in gammas]
    want = np.array(want)
    assert [list(c) for c in res.axes.values()] == want[:, :3].T.tolist()
    assert np.max(np.abs(res.values - want[:, 3])) <= 1e-12


def test_scan_example6_evaluates_its_functionals_once_per_theta_q(monkeypatch):
    shapes = []

    def recorder(theta, q):
        shapes.append((np.shape(theta), np.shape(q)))
        return example6_values(theta, q)

    monkeypatch.setattr(monogamy, "example6_values", recorder)
    res = scan_example6(np.linspace(0.1, 1.4, 7), [0.5, 2.0, 3.5], (1.0, 2.0, 3.0))
    assert shapes == [((7, 3), (7, 3))]
    assert len(res.values) == 7 * 3 * 3


def test_scan_example6_gamma_slice_does_not_depend_on_the_other_gammas():
    one = scan_example6(gammas=(1.0,))
    three = scan_example6(gammas=(1.0, 2.0, 3.0))
    at_one = np.asarray(three.axes["gamma"]) == 1.0
    assert one.values.tobytes() == three.values[at_one].tobytes()


def test_scans_reject_non_finite_gamma():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            scan_example3("e_t", bad)
        with pytest.raises(ValueError, match="gamma must be finite"):
            scan_example6(gammas=(1.0, bad))
    with pytest.raises(ValueError, match="q must be"):
        scan_example6(qs=[0.5, 1.0])


def test_scan_result_serialization():
    res = scan_example3("eof", 1.0, thetas=np.linspace(0, 1, 5))
    assert res.metadata["family"] == "example3"
    assert res.columns() == ["theta", "tau"]
    assert list(res.axes) == ["theta"] and len(res.values) == 5
    assert res.axes["theta"][1] == 0.25
    with pytest.raises(ValueError):
        ScanResult({"x": np.arange(3)}, np.arange(4))


def test_pairwise_e_t_example4_value():
    val, val2 = pairwise_e_t_example4()
    assert val == val2
    st = 1.0 + 2.0 * (2.0 - 0.75 * np.log2(3.0))
    assert abs(val - st / norm_factor(3)) < 1e-12
    assert abs(val - 0.9520) < 5e-4
