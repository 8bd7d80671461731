import numpy as np
import pytest

from dualentropy import (Bipartition, DensityMatrix, PureState, RoofConfig,
                         average_measure, concurrence_two_qubit, convex_roof,
                         e_t_pure, e_t_two_qubit, eof_pure, eof_two_qubit, explicit,
                         h, hjw_ensemble, pairwise_marginal, example3_family,
                         example4_state, random_density, random_pure, tensor)
from dualentropy import convexroof

BIP22 = Bipartition.of((2, 2), (0,))


def bell_density():
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).density()


def test_hjw_identity_isometry_is_eigendecomposition():
    rho = random_density((2, 2), rank=3, seed=0)
    lam = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1][:3]
    ens = hjw_ensemble(rho, np.eye(3))
    assert np.allclose(np.sort(ens.weights)[::-1], lam, atol=1e-10)
    assert np.allclose(ens.reconstruct(), rho.matrix, atol=1e-10)


def test_hjw_rejects_bad_isometries():
    rho = random_density((2, 2), rank=2, seed=1)
    with pytest.raises(ValueError):
        hjw_ensemble(rho, np.ones((2, 2)))
    with pytest.raises(ValueError):
        hjw_ensemble(rho, np.eye(1))


def test_hjw_reconstruction_for_random_isometries():
    from dualentropy.convexroof import _random_isometry
    rng = np.random.default_rng(2)
    for _ in range(20):
        rank = int(rng.integers(2, 5))
        m = int(rng.integers(rank, 9))
        rho = random_density((2, 2), rank=rank, seed=rng)
        ens = hjw_ensemble(rho, _random_isometry(m, rank, rng))
        assert abs(np.sum(ens.weights) - 1.0) < 1e-10
        assert np.allclose(ens.reconstruct(), rho.matrix, atol=1e-8)


def test_average_measure_of_pure_state():
    ens = hjw_ensemble(bell_density(), np.eye(1))
    assert abs(average_measure(ens, BIP22, e_t_pure) - 1.0) < 1e-12


def test_roof_pure_state_is_exact():
    res = convex_roof(bell_density(), BIP22, e_t_pure)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-12
    assert res.restart_values == (res.value,)


def test_roof_separable_state_is_zero():
    up = PureState([1, 0], (2,))
    down = PureState([0, 1], (2,))
    m = 0.5 * tensor(up, up).density().matrix + 0.5 * tensor(down, down).density().matrix
    rho = DensityMatrix(m, (2, 2))
    res = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=8, seed=3))
    assert res.value < 1e-6


def test_roof_matches_two_qubit_analytic():
    rng = np.random.default_rng(4)
    cfg = RoofConfig(restarts=20, max_iters=150, seed=5)
    for _ in range(5):
        rho = random_density((2, 2), rank=2, seed=rng)
        res = convex_roof(rho, BIP22, e_t_pure, cfg)
        exact = e_t_two_qubit(rho)
        assert res.value >= exact - 1e-9      # always an upper bound
        assert abs(res.value - exact) < 1e-3


def test_roof_eof_matches_two_qubit_analytic():
    rho = random_density((2, 2), rank=2, seed=6)
    res = convex_roof(rho, BIP22, eof_pure, RoofConfig(restarts=20, seed=7))
    assert abs(res.value - eof_two_qubit(rho)) < 1e-3


def test_roof_never_beats_eigendecomposition_start():
    rng = np.random.default_rng(8)
    for _ in range(5):
        rho = random_density((2, 2), rank=2, seed=rng)
        start = average_measure(hjw_ensemble(rho, np.eye(2)), BIP22, e_t_pure)
        res = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=5, seed=9))
        assert res.value <= start + 1e-12


def test_roof_deterministic_per_seed():
    rho = random_density((2, 2), rank=2, seed=10)
    cfg = RoofConfig(restarts=5, max_iters=60, seed=11)
    a = convex_roof(rho, BIP22, e_t_pure, cfg)
    b = convex_roof(rho, BIP22, e_t_pure, cfg)
    assert a.value == b.value
    assert a.restart_values == b.restart_values
    assert len(a.restart_values) == 5
    assert min(a.restart_values) == a.value


def test_roof_result_to_dict():
    res = convex_roof(bell_density(), BIP22, e_t_pure)
    d = res.to_dict()
    assert set(d) >= {"value", "converged", "iterations_used", "weights",
                      "restart_values"}


def test_roof_config_rejects_bad_fields():
    for bad in ({"restarts": 0}, {"restarts": -1}, {"max_iters": -1},
                {"tol": 0.0}, {"tol": -1e-6}, {"tol": float("nan")},
                {"ensemble_size": 0}):
        with pytest.raises(ValueError):
            RoofConfig(**bad)
    RoofConfig(max_iters=0, ensemble_size=1)  # edge values that are allowed


def test_roof_rejects_a_measure_without_one_value_per_state():
    rho = random_density((2, 2), rank=2, seed=12)
    cfg = RoofConfig(restarts=2, max_iters=3)
    with pytest.raises(ValueError, match="one value per state"):
        convex_roof(rho, BIP22, lambda p, b: 0.5, cfg)
    with pytest.raises(ValueError, match="one value per state"):
        convex_roof(rho, BIP22, lambda p, b: e_t_pure(p, b)[..., :1], cfg)
    ens = hjw_ensemble(rho, np.eye(2))
    with pytest.raises(ValueError, match="one value per state"):
        average_measure(ens, BIP22, lambda p, b: float(np.sum(e_t_pure(p, b))))


def test_restarts_are_independent_of_how_many_run():
    rho = random_density((2, 2), rank=3, seed=13)
    few = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=5, max_iters=80, seed=2))
    many = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=20, max_iters=80, seed=2))
    assert many.restart_values[:5] == few.restart_values
    assert many.restart_iterations[:5] == few.restart_iterations
    assert many.restart_accepted[:5] == few.restart_accepted
    assert many.restart_final_steps[:5] == few.restart_final_steps


def test_best_ensemble_reconstructs_rho_and_averages_to_the_value():
    rho = pairwise_marginal(example3_family(0.7), 0, 1)
    cases = [(random_density((2, 2), rank=2, seed=14), BIP22, e_t_pure),
             (rho, Bipartition.of(rho.dims, (0,)),
              lambda p, b: e_t_pure(p, b, explicit(4)))]
    cfg = RoofConfig(restarts=6, max_iters=60, seed=4)
    for target, bip, measure in cases:
        res = convex_roof(target, bip, measure, cfg)
        ens = res.best_ensemble
        assert all(isinstance(s, PureState) for s in ens.states)
        assert np.max(np.abs(ens.reconstruct() - target.matrix)) <= 1e-10
        assert abs(average_measure(ens, bip, measure) - res.value) <= 1e-10


def test_per_restart_report():
    rho = random_density((2, 2), rank=2, seed=15)
    res = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=6, max_iters=120,
                                                       tol=1e-3, seed=6))
    n = 6
    assert len(res.restart_iterations) == len(res.restart_accepted) == n
    assert len(res.restart_final_steps) == len(res.restart_converged) == n
    assert res.iterations_used == sum(res.restart_iterations)
    for iters, acc, step, conv in zip(res.restart_iterations, res.restart_accepted,
                                      res.restart_final_steps, res.restart_converged):
        assert 0 <= acc <= iters <= 120
        assert conv == (step < 1e-3)
        assert conv or iters == 120
    assert res.converged == all(res.restart_converged)
    d = res.to_dict()
    assert d["restart_converged"] == list(res.restart_converged)


def test_converged_needs_every_restart():
    rho = random_density((2, 2), rank=2, seed=16)
    cfg = RoofConfig(restarts=4, max_iters=400, tol=1e-4, seed=1)
    res = convex_roof(rho, BIP22, e_t_pure, cfg)
    assert all(res.restart_converged) and res.converged
    # a budget that stops restarts before their step shrinks below tol
    short = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=4, max_iters=20,
                                                         tol=1e-4, seed=1))
    assert not any(short.restart_converged) and not short.converged
    frozen = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=3, max_iters=0))
    assert frozen.restart_iterations == (0, 0, 0) and not frozen.converged
    start = average_measure(hjw_ensemble(rho, np.eye(2)), BIP22, e_t_pure)
    assert abs(frozen.restart_values[0] - start) <= 1e-12


def _sequential_roof(rho, bip, measure, cfg):
    """Reference: one restart at a time, one validated PureState per member."""
    from dualentropy.convexroof import _random_isometry
    lam = np.linalg.eigvalsh(rho.matrix)
    rank = int(np.sum(lam > 1e-12))
    m = max(min(rank * rank, 16) if cfg.ensemble_size is None else cfg.ensemble_size, rank)

    def evaluate(u):
        ens = hjw_ensemble(rho, u)
        return sum(w * measure(s, bip) for w, s in zip(ens.weights, ens.states))

    values, iterations = [], []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        u = np.eye(m, rank) if r == 0 else _random_isometry(m, rank, rng)
        val, step, iters, rejects = evaluate(u), 0.5, 0, 0
        while iters < cfg.max_iters and step >= cfg.tol:
            z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            k = (z - z.conj().T) / 2.0
            cand, _ = np.linalg.qr(u + step * (k / np.linalg.norm(k)) @ u)
            cval = evaluate(cand)
            if cval < val - 1e-15:
                u, val, step, rejects = cand, cval, min(step * 1.5, 1.0), 0
            else:
                rejects += 1
                if rejects >= 3:
                    step, rejects = step * 0.5, 0
            iters += 1
        values.append(val)
        iterations.append(iters)
    return values, iterations


def test_lockstep_roof_matches_the_sequential_reference():
    psi = example3_family(0.4)
    rho23 = pairwise_marginal(psi, 0, 2)
    rho4 = pairwise_marginal(example4_state(), 0, 1)  # a 6 x 3 cut: k = 3, m = 9
    cfg = RoofConfig(restarts=4, max_iters=60, seed=19)
    # restarts that stop at different iterations, mid-block, within a budget
    # that is not a multiple of the draw block
    staggered = RoofConfig(restarts=6, max_iters=37, tol=0.1, seed=19)
    cases = [(random_density((2, 2), rank=2, seed=17), BIP22, e_t_pure, cfg),
             (random_density((2, 2), rank=3, seed=18), BIP22, eof_pure, cfg),
             (rho23, Bipartition.of(rho23.dims, (0,)),
              lambda p, b: e_t_pure(p, b, explicit(4)), cfg),
             (rho4, Bipartition.of(rho4.dims, (0,)), e_t_pure, cfg),
             (random_density((2, 2), rank=2, seed=20), BIP22, e_t_pure, staggered)]
    for rho, bip, measure, c in cases:
        res = convex_roof(rho, bip, measure, c)
        values, iterations = _sequential_roof(rho, bip, measure, c)
        assert np.max(np.abs(np.array(res.restart_values) - values)) <= 1e-12
        assert list(res.restart_iterations) == iterations
    assert len(set(iterations)) > 2 and max(iterations) == staggered.max_iters


def test_roof_is_independent_of_the_draw_block(monkeypatch):
    rho = random_density((2, 2), rank=2, seed=20)
    cfg = RoofConfig(restarts=6, max_iters=37, tol=0.1, seed=19)
    want = convex_roof(rho, BIP22, e_t_pure, cfg)
    slot_bytes = 16 * 6 * 4 * 4  # (re, im) of one direction for each restart, m = 4
    # blocks of one and five iterations, and blocks of two set by the byte cap
    for block, cap in ((1, convexroof.DRAW_BYTES), (5, convexroof.DRAW_BYTES),
                       (16, 2 * slot_bytes)):
        monkeypatch.setattr(convexroof, "DRAW_BLOCK", block)
        monkeypatch.setattr(convexroof, "DRAW_BYTES", cap)
        got = convex_roof(rho, BIP22, e_t_pure, cfg)
        assert got.restart_values == want.restart_values
        assert got.restart_iterations == want.restart_iterations
