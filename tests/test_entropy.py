import numpy as np
import pytest

from dualentropy import (DensityMatrix, extropy, g,
                         q_log, random_density, random_pure, reduced_state,
                         s_total, shannon, spectrum, t_total_q, tensor,
                         total_classical, tsallis, tsallis_dual,
                         tsallis_total, von_neumann)

LG3 = np.log2(3.0)


def test_shannon_values():
    assert shannon([1.0, 0.0]) == 0.0
    assert abs(shannon([0.5, 0.5]) - 1.0) < 1e-12
    assert abs(shannon([0.5, 0.25, 0.25]) - 1.5) < 1e-12
    assert abs(shannon(np.full(6, 1 / 6)) - np.log2(6)) < 1e-12


def test_extropy_values():
    assert extropy([1.0, 0.0]) == 0.0
    assert abs(extropy([0.5, 0.5]) - 1.0) < 1e-12
    # -(1/2)lg(1/2) - 2*(3/4)lg(3/4)
    assert abs(extropy([0.5, 0.25, 0.25]) - (0.5 + 1.5 * (2 - LG3))) < 1e-12


def test_total_classical_is_sum_of_parts():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(rng.integers(2, 7)))
        assert abs(total_classical(p) - shannon(p) - extropy(p)) < 1e-12
        assert abs(total_classical(p) - np.sum(g(p))) < 1e-12


def test_extropy_never_exceeds_entropy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.dirichlet(np.ones(rng.integers(2, 8)))
        assert extropy(p) <= shannon(p) + 1e-12


def test_g_values_and_domain():
    assert g(0.0) == 0.0
    assert g(1.0) == 0.0
    assert abs(g(0.5) - 1.0) < 1e-12
    assert abs(g(0.25) - (2.0 - 0.75 * LG3)) < 1e-12
    with pytest.raises(ValueError):
        g(1.5)
    with pytest.raises(ValueError):
        g(-0.1)
    with pytest.raises(ValueError):
        g(np.nan)


def test_probability_validation():
    with pytest.raises(ValueError):
        shannon([0.6, 0.6])
    with pytest.raises(ValueError):
        shannon([1.2, -0.2])
    for bad in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            shannon(bad)


def test_von_neumann():
    rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]), (3,))
    assert abs(von_neumann(rho) - 1.5) < 1e-12
    pure = random_pure((4,), 0).density()
    assert von_neumann(pure) < 1e-8


def test_s_total_reference_values():
    assert abs(s_total(DensityMatrix(np.eye(6) / 6, (6,)))
               - (6 * np.log2(6) - 5 * np.log2(5))) < 1e-12
    assert s_total(random_pure((5,), 3).density()) < 1e-7
    rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]), (3,))
    # g(1/2) + 2 g(1/4)
    assert abs(s_total(rho) - (1.0 + 2 * (2.0 - 0.75 * LG3))) < 1e-12


def test_q_log():
    assert abs(q_log(1.0, 2.0)) < 1e-15
    assert abs(q_log(4.0, 2.0) - 0.75) < 1e-12
    # q -> 1 recovers the natural log
    assert abs(q_log(3.0, 1.0001) - np.log(3.0)) < 1e-3
    with pytest.raises(ValueError):
        q_log(0.0, 2.0)
    with pytest.raises(ValueError):
        q_log(2.0, 1.0)
    with pytest.raises(ValueError):
        q_log(2.0, -1.0)


def test_tsallis_family_values():
    assert tsallis([1.0, 0.0], 2.0) == 0.0
    assert abs(tsallis([0.5, 0.5], 2.0) - 0.5) < 1e-12
    assert tsallis_dual([1.0, 0.0], 2.0) == 0.0
    assert abs(tsallis_total([0.5, 0.5], 2.0) - 1.0) < 1e-12
    assert tsallis_total([1.0, 0.0], 3.0) == 0.0


def test_tsallis_total_is_sum_of_parts():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.dirichlet(np.ones(rng.integers(2, 6)))
        q = float(rng.uniform(0.2, 4.0))
        if abs(q - 1.0) < 1e-3:
            continue
        total = tsallis(p, q) + tsallis_dual(p, q)
        assert abs(tsallis_total(p, q) - total) < 1e-10


def test_tsallis_q_to_1_limit():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.dirichlet(np.ones(3))
        # T^t_q -> H^t * ln 2 as q -> 1 (nats vs bits)
        lim = total_classical(p) * np.log(2.0)
        assert abs(tsallis_total(p, 1.0 + 1e-6) - lim) < 1e-4


def test_t_total_q_matches_spectrum_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = random_density((4,), seed=rng)
        q = float(rng.uniform(1.2, 4.0))
        assert abs(t_total_q(rho, q)
                   - tsallis_total(spectrum(rho), q)) < 1e-10
    assert abs(t_total_q(DensityMatrix(np.eye(2) / 2, (2,)), 2.0) - 1.0) < 1e-12


# --- total-entropy property suite (sampled; the acceptance run is larger) --

def _rand_mixture(rng, d, n):
    p = rng.dirichlet(np.ones(n))
    parts = [random_density((d,), seed=rng) for _ in range(n)]
    mixed = sum(w * r.matrix for w, r in zip(p, parts))
    return DensityMatrix(mixed, (d,)), p, parts


def test_bounds_property():
    rng = np.random.default_rng(10)
    for d in range(2, 7):
        top = d * np.log2(d) - (d - 1) * np.log2(d - 1)
        for _ in range(50):
            val = s_total(random_density((d,), seed=rng))
            assert -1e-10 <= val <= top + 1e-10
        assert abs(s_total(DensityMatrix(np.eye(d) / d, (d,))) - top) < 1e-10
        assert s_total(random_pure((d,), rng).density()) < 1e-10


def test_concavity_property():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        for _ in range(30):
            mixed, p, parts = _rand_mixture(rng, d, int(rng.integers(2, 5)))
            avg = sum(w * s_total(r) for w, r in zip(p, parts))
            assert s_total(mixed) >= avg - 1e-10


def test_marginal_symmetry_property():
    rng = np.random.default_rng(12)
    for da, db in ((2, 2), (2, 5), (3, 4), (4, 6)):
        for _ in range(20):
            psi = random_pure((da, db), rng)
            sa = s_total(reduced_state(psi, (0,)))
            sb = s_total(reduced_state(psi, (1,)))
            assert abs(sa - sb) < 1e-8


def test_unitary_invariance_property():
    from dualentropy import random_unitary
    rng = np.random.default_rng(13)
    for d in (2, 4, 6):
        for _ in range(20):
            rho = random_density((d,), seed=rng)
            u = random_unitary(d, rng)
            rot = DensityMatrix(u @ rho.matrix @ u.conj().T, (d,))
            assert abs(s_total(rot) - s_total(rho)) < 1e-8


def test_product_subadditivity_property():
    rng = np.random.default_rng(14)
    for _ in range(40):
        a = random_density((2,), rank=2, seed=rng)
        b = random_density((3,), seed=rng)
        sa, sb = s_total(a), s_total(b)
        st = s_total(tensor(a, b))
        assert st < sa + sb + 1e-10
        assert st >= max(sa, sb) - 1e-10


def test_ensemble_boundedness_property():
    rng = np.random.default_rng(15)
    for _ in range(30):
        d, n = 4, int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(n))
        vecs = [random_pure((d,), rng) for _ in range(n)]
        mixed = sum(w * v.density().matrix for w, v in zip(p, vecs))
        assert s_total(DensityMatrix(mixed, (d,))) <= total_classical(p) + 1e-8
