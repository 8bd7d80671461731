import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualentropy import (Bipartition, DensityMatrix, DIM_A, DIM_B, MIN_DIM, PureState,
                         RoofConfig, SchmidtStack, concurrence_two_qubit, convex_roof,
                         e_t_pure, e_t_two_qubit, eof_pure, eof_two_qubit, explicit, f_q,
                         h, pairwise_marginal, example3_family, residual_tangle,
                         example4_state, pairwise_e_t_example3, pairwise_e_t_example4,
                         concurrence_pure, random_density, random_pure, random_unitary,
                         s_total_pure, schmidt_spectrum, t_q_pure, t_q_pure_normalized,
                         tensor)
from dualentropy.convexroof import (MEMORY, _Objective, _dot, _eig_support, _members,
                                   _quasi_newton, _random_starts, _real, _retract, _tangent)
from dualentropy import states
from dualentropy.states import _eig2, _schmidt_index

BIP22 = Bipartition.of((2, 2), (0,))


def bell_density():
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).density()


def _hjw(rho, u):
    """Weights and normalized members of the ensemble the isometry u makes of
    rho: row i is sum_j u_ij sqrt(lambda_j) |phi_j>, its squared norm the weight."""
    lam, phi = np.linalg.eigh(rho.matrix)
    keep = lam > 1e-12
    raw = (u * np.sqrt(lam[keep][::-1])) @ phi[:, keep][:, ::-1].T
    w = np.sum(np.abs(raw) ** 2, axis=-1)
    return w, raw / np.sqrt(w)[:, None]


def _inner(a, b):
    """Re tr(a^dagger b) of each (m, rank) slice: the metric of the search."""
    return np.einsum("...ij,...ij->...", a.conj(), b).real


def _mixture(w, a):
    """sum_i w_i |a_i><a_i| of weights w and member amplitudes a."""
    return (a.T * w) @ a.conj()


def _average(rho, u, bip, measure):
    """The ensemble average of measure over the ensemble of u."""
    w, a = _hjw(rho, u)
    return float(w @ measure(PureState(a, rho.dims), bip))


def test_hjw_identity_isometry_is_eigendecomposition():
    rho = random_density((2, 2), rank=3, seed=0)
    lam = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1][:3]
    w, amps = _members(np.eye(3), *_eig_support(rho))
    assert np.allclose(np.sort(w)[::-1], lam, atol=1e-10)
    assert np.allclose(_mixture(w, amps), rho.matrix, atol=1e-10)
    assert np.allclose(_mixture(*_hjw(rho, np.eye(3))), rho.matrix, atol=1e-10)


def test_hjw_reconstruction_for_random_isometries():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rank = int(rng.integers(2, 5))
        m = int(rng.integers(rank, 9))
        rho = random_density((2, 2), rank=rank, seed=rng)
        w, amps = _members(random_unitary(m, rng)[:, :rank], *_eig_support(rho))
        assert abs(np.sum(w) - 1.0) < 1e-10
        assert np.allclose(_mixture(w, amps), rho.matrix, atol=1e-8)


def test_average_measure_of_pure_state():
    assert abs(_average(bell_density(), np.eye(1), BIP22, e_t_pure) - 1.0) < 1e-12


def _e_t_at(norm):
    return lambda p, b: e_t_pure(p, b, norm)


def _t_q_at(q):
    return lambda p, b: t_q_pure(p, b, q)


PURE_MEASURES = [e_t_pure, eof_pure, concurrence_pure, _t_q_at(2.0)]


@pytest.mark.parametrize("measure", PURE_MEASURES, ids=["e_t", "eof", "concurrence", "t_2"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)],
                         ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("end", ["first", "last"])
def test_roof_pure_state_is_exact(dims, end, measure):
    psi = random_pure(dims, np.random.default_rng(0))
    bip = Bipartition.of(dims, (0,) if end == "first" else (len(dims) - 1,))
    res = convex_roof(psi.density(), bip, measure)
    assert abs(res.value - float(measure(psi, bip))) <= 1e-12
    assert res.restart_values == (res.value,)
    assert res.iterations_used == 0 and res.converged
    assert res.restart_grad_norms[0] <= 1e-15


def test_roof_across_a_side_of_dim_one_is_zero_under_every_norm():
    rho = random_density((1, 4), rank=2, seed=3)
    bip = Bipartition.of((1, 4), (0,))
    cfg = RoofConfig(restarts=3, max_iters=5)
    assert convex_roof(rho, bip, eof_pure, cfg).value == 0.0
    for norm in (MIN_DIM, DIM_A, DIM_B, explicit(3)):
        for measure in (_e_t_at(norm), lambda p, b: t_q_pure_normalized(p, b, 0.8, norm)):
            assert convex_roof(rho, bip, measure, cfg).value == 0.0


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
        start = _average(rho, np.eye(2), BIP22, e_t_pure)
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
    # another seed moves only the random restarts: restart 0 starts at the
    # eigendecomposition, whatever the seed
    c = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=5, max_iters=60, seed=12))
    assert c.restart_values[0] == a.restart_values[0]
    assert c.restart_grad_norms[0] == a.restart_grad_norms[0]
    assert all(x != y for x, y in zip(c.restart_grad_norms[1:], a.restart_grad_norms[1:]))


def test_roof_config_rejects_bad_fields():
    for bad in ({"restarts": 0}, {"restarts": -1}, {"max_iters": -1},
                {"tol": 0.0}, {"tol": -1e-6}, {"tol": float("nan")},
                {"ensemble_size": 0}, {"seed": None}, {"seed": -1}, {"seed": 1.5},
                {"seed": "3"}):
        with pytest.raises(ValueError):
            RoofConfig(**bad)
    RoofConfig(max_iters=0, ensemble_size=1)  # edge values that are allowed
    RoofConfig(seed=np.int64(2 ** 40))


def test_roof_rejects_a_measure_without_one_value_per_state():
    rho = random_density((2, 2), rank=2, seed=12)
    cfg = RoofConfig(restarts=2, max_iters=3)
    returns = {"a scalar": lambda e, de: 0.5,
               "values without slopes": lambda e, de: e,
               "too few values": lambda e, de: (e[..., :1], de),
               "wrongly shaped slopes": lambda e, de: (e, de[..., :1])}
    for answer in returns.values():
        with pytest.raises(ValueError, match="one value per state"):
            convex_roof(rho, BIP22, lambda p, b: answer(*e_t_pure(p, b)), cfg)


def test_restarts_are_independent_of_how_many_run():
    rho = random_density((2, 2), rank=3, seed=13)
    few = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=5, max_iters=80, seed=2))
    many = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=20, max_iters=80, seed=2))
    assert many.restart_values[:5] == few.restart_values
    assert many.restart_iterations[:5] == few.restart_iterations
    assert many.restart_accepted[:5] == few.restart_accepted
    assert many.restart_final_steps[:5] == few.restart_final_steps


def test_restarts_are_independent_of_how_many_run_at_k_3():
    # a 3 x 3 rank-3 target (m = 9) takes the closed-form 3 x 3 spectral step
    rho = random_density((3, 3), rank=3, seed=13)
    bip = Bipartition.of((3, 3), (0,))
    few = convex_roof(rho, bip, e_t_pure, RoofConfig(restarts=5, max_iters=80, seed=2))
    many = convex_roof(rho, bip, e_t_pure, RoofConfig(restarts=20, max_iters=80, seed=2))
    assert many.restart_values[:5] == few.restart_values
    assert many.restart_iterations[:5] == few.restart_iterations
    assert many.restart_accepted[:5] == few.restart_accepted
    assert many.restart_final_steps[:5] == few.restart_final_steps


def test_restarts_are_independent_of_how_many_run_at_k_4():
    # a 4 x 4 rank-3 target (m = 9) takes the eigh branch of the gradient, whose
    # batched LAPACK call must not depend on the size of the stack
    rho = random_density((4, 4), rank=3, seed=13)
    bip = Bipartition.of((4, 4), (0,))
    few = convex_roof(rho, bip, e_t_pure, RoofConfig(restarts=5, max_iters=80, seed=2))
    many = convex_roof(rho, bip, e_t_pure, RoofConfig(restarts=20, max_iters=80, seed=2))
    assert many.restart_values[:5] == few.restart_values
    assert many.restart_iterations[:5] == few.restart_iterations
    assert many.restart_accepted[:5] == few.restart_accepted
    assert many.restart_final_steps[:5] == few.restart_final_steps


def _exact(res):
    """Every field of a roof result, floats to the bit, and its ensemble's bytes."""
    ens = res.best_ensemble
    return repr(res), ens.weights.tobytes(), ens.members.amplitudes.tobytes()


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])
def test_shared_random_starts_never_show_in_results(dims):
    # the random starts of one (seed, restarts, m, rank) are drawn once and
    # shared: a roof reads the same whether its draw is new, was evicted by
    # other configs' draws, or is still held
    rho, bip = random_density(dims, rank=3, seed=13), Bipartition.of(dims, (0,))
    cfg = RoofConfig(restarts=5, max_iters=40, seed=2)
    key = (cfg.seed, cfg.restarts, 9, 3)  # m = rank^2 = 9
    _random_starts.cache_clear()
    cold = _exact(convex_roof(rho, bip, e_t_pure, cfg))
    for other in range(_random_starts.cache_info().maxsize + 1):
        _random_starts(100 + other, *key[1:])
    misses = _random_starts.cache_info().misses
    evicted = _exact(convex_roof(rho, bip, e_t_pure, cfg))
    assert _random_starts.cache_info().misses == misses + 1
    block = _random_starts(*key)
    held = block.copy()
    hits = _random_starts.cache_info().hits
    warm = _exact(convex_roof(rho, bip, e_t_pure, cfg))
    assert _random_starts.cache_info().hits == hits + 1
    assert evicted == cold and warm == cold
    assert not block.flags.writeable and np.array_equal(block, held)
    assert _random_starts(*key) is block


def test_both_marginals_of_a_tangle_share_one_draw():
    cfg = RoofConfig(restarts=20, max_iters=150, seed=7)
    for psi, norm in ((example3_family(0.7), explicit(4)), (example4_state(), MIN_DIM)):
        def pairwise(rho):
            return convex_roof(rho, Bipartition.of(rho.dims, (0,)),
                               lambda p, b: e_t_pure(p, b, norm), cfg).value

        _random_starts.cache_clear()
        residual_tangle(psi, 0, lambda p, b: 0.0, pairwise)
        info = _random_starts.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_best_ensemble_reconstructs_rho_and_averages_to_the_value():
    rho = pairwise_marginal(example3_family(0.7), 0, 1)
    cases = [(random_density((2, 2), rank=2, seed=14), BIP22, e_t_pure),
             (rho, Bipartition.of(rho.dims, (0,)),
              lambda p, b: e_t_pure(p, b, explicit(4)))]
    cfg = RoofConfig(restarts=6, max_iters=60, seed=4)
    for target, bip, measure in cases:
        res = convex_roof(target, bip, measure, cfg)
        ens = res.best_ensemble
        assert isinstance(ens.members, PureState) and ens.members.shape == ens.weights.shape
        assert np.max(np.abs(_mixture(ens.weights, ens.members.amplitudes)
                             - target.matrix)) <= 1e-10
        assert abs(ens.weights @ measure(ens.members, bip) - res.value) <= 1e-10


def test_per_restart_report():
    rho = random_density((2, 2), rank=2, seed=15)
    res = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=6, max_iters=120,
                                                       tol=1e-3, seed=6))
    n = 6
    assert len(res.restart_iterations) == len(res.restart_accepted) == n
    assert len(res.restart_final_steps) == len(res.restart_converged) == n
    assert len(res.restart_grad_norms) == n
    assert res.iterations_used == sum(res.restart_iterations)
    for iters, acc, step, conv, grad in zip(
            res.restart_iterations, res.restart_accepted, res.restart_final_steps,
            res.restart_converged, res.restart_grad_norms):
        assert 0 <= acc <= iters <= 120
        assert step >= 0 and (step > 0) == (acc > 0)
        assert conv == (grad < 1e-3)
        assert conv or iters == 120
    assert res.converged == all(res.restart_converged)


def test_converged_needs_every_restart():
    rho = random_density((2, 2), rank=2, seed=16)
    cfg = RoofConfig(restarts=4, max_iters=400, tol=1e-6, seed=1)
    res = convex_roof(rho, BIP22, e_t_pure, cfg)
    assert all(res.restart_converged) and res.converged
    assert max(res.restart_grad_norms) < 1e-6
    # a budget that stops restarts before their gradient falls below tol
    short = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=4, max_iters=1,
                                                         tol=1e-6, seed=1))
    assert not any(short.restart_converged) and not short.converged
    assert short.restart_iterations == (1, 1, 1, 1)
    assert min(short.restart_grad_norms) >= 1e-6
    frozen = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=3, max_iters=0))
    assert frozen.restart_iterations == (0, 0, 0) and not frozen.converged
    start = _average(rho, np.eye(2), BIP22, e_t_pure)
    assert abs(frozen.restart_values[0] - start) <= 1e-12


def test_best_converged_reads_the_best_restart_alone():
    """A criterion-5 rank-3 two-qubit roof where a restart other than the best
    one stops short of tol: ``converged`` is False, ``best_converged`` True."""
    rng = np.random.default_rng(26)
    rho = [random_density((2, 2), rank=3, seed=rng) for _ in range(7)][6]
    res = convex_roof(rho, BIP22, e_t_pure, RoofConfig(restarts=20, max_iters=150, seed=1))
    assert not res.converged and res.best_converged
    assert res.best_converged == res.restart_converged[int(np.argmin(res.restart_values))]
    assert abs(res.value - e_t_two_qubit(rho)) <= 1e-9


def test_default_config_converges_on_rank_two_two_qubit_states():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = random_density((2, 2), rank=2, seed=rng)
        res = convex_roof(rho, BIP22, e_t_pure)
        assert res.converged
        assert abs(res.value - e_t_two_qubit(rho)) <= 1e-9


@pytest.mark.parametrize("rank", [3, 4])
def test_roof_meets_h_of_c_at_ranks_three_and_four(rank):
    """Criterion-5 config on 20 random two-qubit states of each rank."""
    rng = np.random.default_rng(22 + rank)
    cfg = RoofConfig(restarts=20, max_iters=150, seed=1)
    for _ in range(20):
        rho = random_density((2, 2), rank=rank, seed=rng)
        exact = e_t_two_qubit(rho)
        value = convex_roof(rho, BIP22, e_t_pure, cfg).value
        assert value >= exact - 1e-9
        assert value - exact <= 1e-6


def test_flat_pairwise_roofs_equal_closed_forms_at_iteration_zero():
    cfg = RoofConfig(restarts=20, max_iters=150, seed=1)
    cases = []
    for theta in (0.3, 0.9):
        want = pairwise_e_t_example3(np.cos(theta), np.sin(theta))
        for pair, value in zip(((0, 1), (0, 2)), want):
            cases.append((pairwise_marginal(example3_family(theta), *pair),
                          lambda p, b: e_t_pure(p, b, explicit(4)), value))
    for pair, value in zip(((0, 1), (0, 2)), pairwise_e_t_example4()):
        cases.append((pairwise_marginal(example4_state(), *pair), e_t_pure, value))
    for rho, measure, value in cases:
        res = convex_roof(rho, Bipartition.of(rho.dims, (0,)), measure, cfg)
        assert abs(res.value - value) <= 1e-12
        assert res.converged and res.restart_iterations == (0,) * 20


def _e_t_plus_one(p, b):
    """E_t + 1 and its slope: nonzero on product states, such as the stand-in
    for a floored member."""
    e, de = e_t_pure(p, b)
    return e + 1.0, de


# cuts with d_A < d_B, d_A > d_B and d_A = d_B, and a cut that splits three parties
CUTS = [((2, 2), (0,)), ((2, 3), (0,)), ((3, 2), (0,)), ((2, 3, 2), (0, 2))]
MEASURES = {"e_t": e_t_pure, "eof": eof_pure, "concurrence": concurrence_pure,
            "t_q": lambda p, b: t_q_pure(p, b, 1.5), "e_t + 1": _e_t_plus_one}


def _tangent_point(dims, rank, m, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dims, rank=rank, seed=rng)
    u = random_unitary(m, rng)[None, :, :rank]
    z = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    delta = _tangent(u, z)
    return rho, u, delta / np.sqrt(_inner(delta, delta))[:, None, None]


@pytest.mark.parametrize("name", sorted(MEASURES))
@pytest.mark.parametrize("dims, side_a", CUTS)
@settings(max_examples=4)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_gradient_matches_a_central_difference_along_tangents(dims, side_a, name, rank,
                                                              seed):
    rho, u, delta = _tangent_point(dims, rank, rank + 2, seed)
    obj = _Objective(rho, Bipartition.of(dims, side_a), MEASURES[name])
    _, grad = obj.value_and_gradient(u)
    t = 1e-5
    ahead, _ = obj.value_and_gradient(_retract(u, t * delta))
    behind, _ = obj.value_and_gradient(_retract(u, -t * delta))
    numeric = (ahead - behind) / (2 * t)
    analytic = _inner(grad, delta)
    assert abs(analytic - numeric)[0] <= 1e-6 * abs(numeric)[0]


def _weighted_projectors(w, a):
    return np.einsum("i,ij,ik->ijk", w, a, a.conj())


@settings(max_examples=20)
@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_a_retraction_step_moves_the_ensemble_by_order_t(rank, extra, seed):
    # the weights sum_j |u_ij|^2 lambda_j cannot see a phase on a column of u,
    # so the members are compared too, as their weighted projectors
    rho, u, delta = _tangent_point((2, 2), rank, rank + extra, seed)
    w, amps = _members(u[0], *_eig_support(rho))
    for t in (1e-4, 1e-6):
        moved_w, moved_amps = _members(_retract(u, t * delta)[0], *_eig_support(rho))
        assert np.max(np.abs(moved_w - w)) <= 10 * t
        assert np.max(np.abs(_weighted_projectors(moved_w, moved_amps)
                             - _weighted_projectors(w, amps))) <= 10 * t


def _householder_q(a):
    """Q factor of each slice of a by np.linalg.qr, with R's diagonal made real and positive."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@pytest.mark.parametrize("m, rank", [(1, 1), (4, 2), (9, 3), (16, 4), (16, 9)])
def test_retraction_matches_householder_qr(m, rank):
    # tangent steps of length up to 1, the longest trial step the roof takes
    rng = np.random.default_rng(31 * m + rank)
    lengths = np.array([1.0, 1.0, 1.0, 0.7, 0.1, 1e-6, 0.0])
    u = np.stack([random_unitary(m, rng)[:, :rank] for _ in lengths])
    t = _tangent(u, rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
    t *= (lengths / np.sqrt(_inner(t, t)))[:, None, None]
    q = _retract(u, t)
    assert np.max(np.abs(q - _householder_q(u + t))) <= 1e-14
    assert np.max(np.abs(q.conj().swapaxes(-1, -2) @ q - np.eye(rank))) <= 1e-14


def _complex_quasi_newton(g, s, y, sy):
    """The L-BFGS two-loop on complex (k, m, rank) slices under Re tr(a^dagger b)."""
    rho = np.where(sy > 0, 1.0 / np.where(sy > 0, sy, 1.0), 0.0)
    q, a = g.copy(), np.empty(sy.shape)
    for j in range(MEMORY):
        a[:, j] = rho[:, j] * _inner(s[:, j], q)
        q -= a[:, j, None, None] * y[:, j]
    yy = _inner(y[:, 0], y[:, 0])
    scale = np.where((sy[:, 0] > 0) & (yy > 0), sy[:, 0] / np.where(yy > 0, yy, 1.0), 1.0)
    q *= scale[:, None, None]
    for j in reversed(range(MEMORY)):
        b = rho[:, j] * _inner(y[:, j], q)
        q += (a[:, j] - b)[:, None, None] * s[:, j]
    return -q


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, MEMORY), st.integers(0, MEMORY - 1),
       st.integers(0, 2 ** 32 - 1))
def test_real_coordinate_quasi_newton_matches_the_complex_two_loop(rank, extra, used, bad, seed):
    rng = np.random.default_rng(seed)
    m = rank + extra

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # restart 0 keeps curvature pairs y = 2 s + noise, restart 1 the same with
    # one pair of s.y < 0, restart 2 only zero slots; slots from `used` on are
    # unused and all zero
    g, s = normal(3, m, rank), normal(3, MEMORY, m, rank)
    y = 2.0 * s + 0.5 * normal(3, MEMORY, m, rank)
    y[1, bad] = -s[1, bad]
    s[:, used:], y[:, used:], s[2], y[2] = 0, 0, 0, 0
    sy = _inner(s, y)
    assert np.all(sy[1, bad] <= 0) and np.all(sy[:, used:] == 0)
    assert np.max(np.abs(_dot(_real(s), _real(y)) - sy)) <= 1e-12 * np.max(np.abs(sy), initial=1)
    want = _real(_complex_quasi_newton(g, s, y, sy))
    got = _quasi_newton(_real(g), _real(s), _real(y), sy)
    assert np.all(np.linalg.norm(got - want, axis=-1) <= 1e-12 * np.linalg.norm(want, axis=-1))


def test_roof_rejects_a_measure_that_is_not_spectral():
    for rank in (2, 1):
        rho = random_density((2, 2), rank=rank, seed=23)
        with pytest.raises(ValueError, match="Schmidt spectrum"):
            convex_roof(rho, BIP22, lambda p, b: np.abs(p.amplitudes[..., 0]),
                        RoofConfig(restarts=2, max_iters=3))


def _masked_log2(x):
    out = np.zeros_like(x)
    return np.log2(x, out=out, where=x > 0)


def _r(d):
    """r(d) = d log2 d - (d-1) log2 (d-1)."""
    return d * np.log2(d) - (d - 1) * np.log2(d - 1)


def _e_t_slope(x, r):
    return (_masked_log2(1.0 - x) - _masked_log2(x)) / r


def _concurrence_slope(x, bip):
    c = np.sqrt(np.maximum(2.0 * (1.0 - np.sum(x ** 2, axis=-1, keepdims=True)), 0.0))
    return np.divide(-2.0 * x, c, out=np.zeros_like(x), where=c > 0)


# E'(x) of every measure of MEASURES, written out here
EXACT_SLOPES = {
    e_t_pure: lambda x, bip: _e_t_slope(x, _r(min(bip.dim_a, bip.dim_b))),
    _e_t_plus_one: lambda x, bip: _e_t_slope(x, _r(min(bip.dim_a, bip.dim_b))),
    eof_pure: lambda x, bip: -_masked_log2(x) - 1.0 / np.log(2.0),
    concurrence_pure: _concurrence_slope,
    # q [(1 - x)^(q-1) - x^(q-1)] / (q - 1) at q = 1.5
    MEASURES["t_q"]: lambda x, bip: 3.0 * (np.sqrt(1.0 - x) - np.sqrt(x)),
}


def _amplitude_value_and_gradient(obj, u, dims, oracle=None):
    """``_Objective.value_and_gradient`` along the amplitude path.

    The members come from ``_members`` and are regrouped through
    ``_schmidt_index``; G = V diag(g) V^dagger takes V from eigh of their
    Gram matrices, and G M maps back to the basis and to U through
    (sqrt(lam) phi^T)^dagger. The spectrum x is taken from the roof's own
    normalized Gram matrices, as the roof takes it, so x matches bit for bit.
    ``oracle(x, bipartition)`` gives E and E'; by default E is the measure's
    own value on x and E' the one written out in ``EXACT_SLOPES``.
    """
    w, amps = _members(u, obj.lam, obj.phi)
    idx = _schmidt_index(dims, obj.bipartition.side_a)
    mat = amps[..., idx]
    v = np.linalg.eigh(mat @ mat.conj().swapaxes(-1, -2))[1][..., ::-1]
    gram = obj.grams(u)[1]
    k = gram.shape[-1]
    if k == 2:
        x = np.stack(_eig2(gram[..., 0, 0].real, gram[..., 1, 1].real, gram[..., 0, 1]),
                     axis=-1)
    else:
        x = np.maximum(np.linalg.eigh(gram)[0][..., ::-1], 0.0)
    if oracle is None:
        e = obj.measure(SchmidtStack(x, obj.bipartition.side_a), obj.bipartition)[0]
        de = EXACT_SLOPES[obj.measure](x, obj.bipartition)
    else:
        e, de = oracle(x, obj.bipartition)
    g = de + (e - np.sum(x * de, axis=-1))[..., None]
    z = ((v * g[..., None, :]) @ v.conj().swapaxes(-1, -2)) @ mat
    z *= np.sqrt(w)[..., None, None]
    back = obj.phi.conj() * np.sqrt(obj.lam)
    egrad = 2.0 * (z.reshape(amps.shape)[..., np.argsort(idx.ravel())] @ back)
    return np.sum(w * e, axis=-1), _tangent(u, egrad)


def _floored_isometry(m, rank, rng):
    """An m x rank isometry whose last row carries a weight below WEIGHT_FLOOR."""
    u = np.zeros((m, rank), dtype=complex)
    u[:m - 1] = random_unitary(m - 1, rng)[:, :rank]
    t = 1e-8  # rotate a 1e-8 share of row 0 into the empty last row
    u[[0, -1]] = np.cos(t) * u[0], np.sin(t) * u[0]
    return u[None]


@pytest.mark.parametrize("name", sorted(MEASURES))
@pytest.mark.parametrize("dims, side_a", CUTS)
def test_gram_space_pass_matches_the_amplitude_path(dims, side_a, name):
    rng = np.random.default_rng(31)
    bip = Bipartition.of(dims, side_a)
    for rank in (2, 3, 4):
        rho = random_density(dims, rank=rank, seed=rng)
        obj = _Objective(rho, bip, MEASURES[name])
        floored = _floored_isometry(rank + 2, rank, rng)
        for u in (random_unitary(rank + 2, rng)[None, :, :rank], floored):
            w, gram, keep = obj.grams(u)
            ref_w, amps = _members(u, obj.lam, obj.phi)
            assert np.array_equal(keep, ref_w > 0)
            assert np.max(np.abs(w - ref_w)) <= 1e-14
            x = np.linalg.eigvalsh(gram)[..., ::-1]
            ref_x = schmidt_spectrum(PureState(amps, dims), side_a)
            assert np.max(np.abs(x - ref_x)) <= 1e-12
            value, grad = obj.value_and_gradient(u)
            ref_value, ref_grad = _amplitude_value_and_gradient(obj, u, dims)
            assert np.max(np.abs(value - ref_value)) <= 1e-12
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12
        # the floored member: weight 0 and a product spectrum; the amplitude path
        # above gives it no Euclidean gradient
        w, gram, keep = obj.grams(floored)
        assert w[0, -1] == 0.0 and not keep[0, -1]
        assert np.array_equal(gram[0, -1], np.diag(np.eye(gram.shape[-1])[0]))


def _two_member_density(a, b, dims=(2, 2)):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return DensityMatrix(0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj()), dims)


def _k2_cases():
    rng = np.random.default_rng(25)
    t = np.arccos(1e-9) / 2  # cos^2 t - sin^2 t = 1e-9
    eye = np.eye(2)[None].astype(complex)
    return {
        "random 2x2": (random_density((2, 2), rank=2, seed=rng),
                       random_unitary(4, rng)[None, :, :2]),
        "random 2x3": (random_density((2, 3), rank=3, seed=rng),
                       random_unitary(5, rng)[None, :, :3]),
        "product": (_two_member_density([1, 0, 0, 0], [0, 0, 1, 0]), eye),
        "bell": (_two_member_density(np.array([1, 0, 0, 1]) / np.sqrt(2),
                                     np.array([1, 0, 0, -1]) / np.sqrt(2)), eye),
        "gap 1e-9": (_two_member_density([np.cos(t), 0, 0, np.sin(t)],
                                         [np.sin(t), 0, 0, -np.cos(t)]), eye),
    }


@pytest.mark.parametrize("name", ["e_t", "concurrence"])
@pytest.mark.parametrize("case", sorted(_k2_cases()))
def test_closed_form_two_by_two_gradient_matches_eigh(case, name):
    rho, u = _k2_cases()[case]
    obj = _Objective(rho, Bipartition.of(rho.dims, (0,)), MEASURES[name])
    value, grad = obj.value_and_gradient(u)
    ref_value, ref_grad = _amplitude_value_and_gradient(obj, u, rho.dims)
    assert abs(value - ref_value)[0] <= 1e-12
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12


# every public pure measure, with the way its slope is checked: "kernel" for a
# sum of one kernel over the spectrum, "tsallis" for the T_q family, which
# renormalizes the spectrum, and "square" for the concurrence, whose square
# is quadratic in the spectrum
SLOPED = {"e_t": (e_t_pure, "kernel"), "eof": (eof_pure, "kernel"),
          "s_total": (s_total_pure, "kernel"), "concurrence": (concurrence_pure, "square"),
          **{f"e_t explicit({d})": (_e_t_at(explicit(d)), "kernel") for d in (3, 4, 5)},
          "e_t dim_a": (_e_t_at(DIM_A), "kernel"), "e_t dim_b": (_e_t_at(DIM_B), "kernel"),
          **{f"t_q {q}": (_t_q_at(q), "tsallis") for q in (0.3, 1.5, 2.0, 8.0)},
          "t_q_normalized": (lambda p, b: t_q_pure_normalized(p, b, 0.8, explicit(3)),
                             "tsallis")}


@pytest.mark.parametrize("name", sorted(SLOPED))
@settings(max_examples=25)
@given(st.integers(2, 5), st.integers(0, 2),
       st.lists(st.floats(0.0, 7.0), min_size=5, max_size=5))
def test_declared_derivative_matches_central_differences(name, k, extra, exponents):
    """E'_j - E'_0 of the measure on a SchmidtStack against central differences.

    The spectra have k = 2 .. 5 entries, so e_t_pure is divided by r(2) ..
    r(5) (and by r(k + extra) at DIM_B), and every entry is at least 1e-6.
    Each step is a power of two, so that the perturbed entries are exact.
    - "kernel": E'_j is the central difference of the measure on the
      one-entry spectra x_j +- h_j, with h_j below 2^-14 min(x_j, 1 - x_j);
      the h^2 term bounds the error even at x_j = 1e-6.
    - "square": C^2 is quadratic in x, so its central difference along
      e_j - e_0 is exact at any step, and 2 C (E'_j - E'_0) must match it.
    - "tsallis": T_q renormalizes a spectrum, so it is moved along
      e_j - e_0, and its value carries a rounding error of about 3e-16 from
      the (1 - x)^q term near 1, which a step of 2^-14 x_j at x_j = 1e-6
      would amplify to 1e-6. So the entries are at least 1e-3 here, the step
      is below 2^-8 min(x_j, x_0, 1 - x_j, 1 - x_0), Richardson extrapolation
      of the steps h and h / 2 removes the h^2 term, and the bound is
      relative to |E'_j - E'_0| where that exceeds 1 (up to about 54 at
      q = 0.3 and x_j = 1e-3).
    """
    measure, kind = SLOPED[name]
    bip = Bipartition.of((k, k + extra), (0,))
    floor = 1e-3 if kind == "tsallis" else 1e-6
    w = 10.0 ** -np.array(exponents[:k])
    x = floor + (1.0 - k * floor) * w / w.sum()
    value, slope = measure(SchmidtStack(x, (0,)), bip)
    assert np.shape(value) == () and slope.shape == (k,)
    want = slope[1:] - slope[0]
    dirs = np.eye(k)[1:] - np.eye(k)[0]

    def along(step):
        """The values at x + step_j (e_j - e_0), j = 1 .. k - 1."""
        return measure(SchmidtStack(x + step[:, None] * dirs, (0,)), bip)[0]

    if kind == "kernel":
        h = 2.0 ** (np.floor(np.log2(np.minimum(x, 1.0 - x))) - 14)
        one = measure(SchmidtStack(np.concatenate([x + h, x - h])[:, None], (0,)), bip)[0]
        numeric = (one[:k] - one[k:]) / (2.0 * h)
        assert np.max(np.abs(want - (numeric[1:] - numeric[0]))) <= 1e-8
    elif kind == "square":
        h = 2.0 ** np.floor(np.log2(np.minimum(x[1:], x[0]))) / 2.0
        numeric = (along(h) ** 2 - along(-h) ** 2) / (2.0 * h)
        assert np.max(np.abs(2.0 * value * want - numeric)) <= 1e-8
    else:
        low = np.minimum(np.minimum(x[1:], x[0]), 1.0 - np.maximum(x[1:], x[0]))
        h = 2.0 ** (np.floor(np.log2(low)) - 8)
        coarse, fine = ((along(t) - along(-t)) / (2.0 * t) for t in (h, h / 2.0))
        numeric = (4.0 * fine - coarse) / 3.0
        assert np.all(np.abs(want - numeric) <= 1e-8 * np.maximum(1.0, np.abs(want)))


def test_the_bench_idiom_reads_exact_slopes_near_zero():
    """A wrapped explicit(4) measure, as the bench's example 3 and 4 roofs pass
    it, against an exact-slope oracle, on 3 x 3 targets whose first member has
    the Schmidt spectrum (0.6, 0.4 - 1e-6, 1e-6). Central differences at a
    step of 1e-4 x_j were off by up to about 1e-5 in E'_j - E'_0 near
    x_j = 1e-6, and the gradient here by 6e-11 to 1.4e-10."""
    def oracle(x, bip):
        y = 1.0 - x
        return (np.sum(-x * _masked_log2(x) - y * _masked_log2(y), axis=-1) / _r(4),
                _e_t_slope(x, _r(4)))

    bip = Bipartition.of((3, 3), (0,))
    a = np.diag(np.sqrt([0.6, 0.4 - 1e-6, 1e-6])).ravel().astype(complex)
    for seed in range(6):
        b = random_pure((3, 3), np.random.default_rng(seed)).amplitudes
        b = b - np.vdot(a, b) * a
        b /= np.linalg.norm(b)
        rho = DensityMatrix(0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj()), (3, 3))
        obj = _Objective(rho, bip, lambda p, b: e_t_pure(p, b, explicit(4)))
        u = np.eye(2)[None].astype(complex)
        assert abs(np.linalg.eigvalsh(obj.grams(u)[1])[0, 0, 0] - 1e-6) <= 1e-12
        value, grad = obj.value_and_gradient(u)
        ref_value, ref_grad = _amplitude_value_and_gradient(obj, u, (3, 3), oracle)
        assert abs(value - ref_value)[0] <= 1e-12
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12


@pytest.mark.parametrize("measure", [e_t_pure, eof_pure, concurrence_pure, _t_q_at(0.3)],
                         ids=["e_t", "eof", "concurrence", "t_q 0.3"])
@pytest.mark.parametrize("d", [2, 3])
def test_exact_derivative_is_finite_at_the_spectrum_edges(measure, d):
    """Product members, x = (1, 0, ...), members with equal Schmidt
    coefficients (hi = lo for d = 2) and a member below the weight floor give
    a finite value and gradient, and no RuntimeWarning."""
    dims = (d, d)
    basis = np.eye(d * d)
    maximal = np.eye(d).ravel() / np.sqrt(d)
    twisted = np.diag(np.exp(2j * np.pi * np.arange(d) / d)).ravel() / np.sqrt(d)
    rng = np.random.default_rng(33)
    eye = np.eye(2)[None].astype(complex)
    cases = [(_two_member_density(basis[0], basis[d + 1], dims), eye),
             (_two_member_density(maximal, twisted, dims), eye),
             (random_density(dims, rank=2, seed=rng), _floored_isometry(4, 2, rng))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho, u in cases:
            obj = _Objective(rho, Bipartition.of(dims, (0,)), measure)
            value, grad = obj.value_and_gradient(u)
            assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad))
    if d == 2:
        gram = _Objective(cases[1][0], BIP22, measure).grams(eye)[1]
        hi, lo = _eig2(gram[..., 0, 0].real, gram[..., 1, 1].real, gram[..., 0, 1])
        assert np.array_equal(hi, lo)


def test_iteration_zero_makes_one_measure_call():
    """A roof that stops at iteration 0 calls its measure once, at any rank,
    on a SchmidtStack of every restart's members."""
    calls = []

    def counting(stack, bip):
        calls.append(stack.shape)
        return e_t_pure(stack, bip)

    rho = random_density((2, 2), rank=2, seed=27)
    pure = PureState(random_unitary(4, np.random.default_rng(26))[0], (2, 2)).density()
    flat = pairwise_marginal(example4_state(), 0, 1)
    for target, cfg, shape in ((rho, RoofConfig(restarts=3, max_iters=0), (3, 4)),
                               (flat, RoofConfig(restarts=20, max_iters=150, seed=1), (20, 9)),
                               (pure, RoofConfig(), (1, 1))):
        calls.clear()
        res = convex_roof(target, Bipartition.of(target.dims, (0,)), counting, cfg)
        assert res.iterations_used == 0 and calls == [shape]


def test_a_declared_derivative_replaces_every_measure_call():
    """The (E, E') pair a measure answers on a SchmidtStack is all the roof
    reads: one call per value-and-gradient pass, on the members' own
    spectra, and no call on a PureState."""
    calls = []

    def counting(stack, bip):
        assert isinstance(stack, SchmidtStack)
        calls.append(stack.shape)
        return e_t_pure(stack, bip)

    rho = random_density((2, 2), rank=2, seed=27)
    res = convex_roof(rho, BIP22, counting, RoofConfig(restarts=3, max_iters=0))
    assert calls == [(3, 4)] and res.iterations_used == 0
    calls.clear()
    res = convex_roof(rho, BIP22, counting, RoofConfig(restarts=3, max_iters=5))
    assert len(calls) == 1 + 5 and all(shape[1:] == (4,) for shape in calls)
    assert res.value == convex_roof(rho, BIP22, e_t_pure,
                                    RoofConfig(restarts=3, max_iters=5)).value


def test_every_accepted_step_is_at_most_one_long():
    # three iterations stop these restarts early, so the last accepted step
    # is one of the long first steps of a quasi-Newton direction
    rng = np.random.default_rng(13)
    cfg = RoofConfig(restarts=20, max_iters=3, seed=1)
    for i in range(10):
        rho = random_density((2, 2), rank=2 + i % 3, seed=rng)
        res = convex_roof(rho, BIP22, e_t_pure, cfg)
        assert max(res.restart_final_steps) <= 1 + 1e-12


def _roof_cases():
    flat = pairwise_marginal(example4_state(), 0, 1)
    return [(random_density((2, 2), rank=2, seed=28), RoofConfig(restarts=4, max_iters=20)),
            (flat, RoofConfig(restarts=3, max_iters=5, seed=1))]


def test_a_roof_measure_sees_only_schmidt_spectra():
    seen = []

    def counting(stack, bip):
        seen.append(stack)
        return e_t_pure(stack, bip)

    for rho, cfg in _roof_cases():
        seen.clear()
        convex_roof(rho, Bipartition.of(rho.dims, (0,)), counting, cfg)
        assert seen and all(type(s) is SchmidtStack for s in seen)
        assert all(s.spectra.shape[-1] == min(rho.dims) for s in seen)
        assert max(np.max(np.abs(np.sum(s.spectra, axis=-1) - 1.0)) for s in seen) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])
def test_a_roof_pass_sorts_no_side_of_its_cut(dims, monkeypatch):
    # _Objective holds side A normalized once, and each pass hands the measure a
    # SchmidtStack of that very tuple, which the measure's cut check matches by
    # identity; a cut given with an unsorted side still gets the same values
    rho = random_density(dims, rank=3, seed=4)
    u = random_unitary(9, np.random.default_rng(5))[None, :, :3]
    want = _Objective(rho, Bipartition.of(dims, (0,)), e_t_pure).value_and_gradient(u)
    obj = _Objective(rho, Bipartition.of(dims, (0,)), e_t_pure)
    sorted_sides = []
    original = states._side
    monkeypatch.setattr(states, "_side", lambda side: sorted_sides.append(side) or original(side))
    got = obj.value_and_gradient(u)
    assert sorted_sides == []
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    unsorted = Bipartition((0, 0), (1,), dims[0], dims[1], dims)
    again = _Objective(rho, unsorted, e_t_pure).value_and_gradient(u)
    assert np.array_equal(again[0], want[0]) and np.array_equal(again[1], want[1])


def test_the_roof_builds_one_pure_stack_its_result_ensemble(monkeypatch):
    made = []
    validate = PureState.__post_init__

    def counting(self):
        validate(self)
        made.append(self.shape)

    monkeypatch.setattr(PureState, "__post_init__", counting)
    for rho, cfg in _roof_cases():
        made.clear()
        res = convex_roof(rho, Bipartition.of(rho.dims, (0,)), e_t_pure, cfg)
        assert made == []  # the ensemble is built on its first read, not by the roof
        ens = res.best_ensemble
        assert made == [ens.members.shape]
        assert res.best_ensemble is ens
        assert made == [ens.members.shape]


@settings(max_examples=6)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_two_qubit_roofs_meet_h_of_c(rank, seed):
    """h(C) is the two-qubit roof of e_t_pure and of eof_pure."""
    rho = random_density((2, 2), rank=rank, seed=seed)
    exact = h(concurrence_two_qubit(rho))
    cfg = RoofConfig(restarts=20, max_iters=150, seed=1)
    for measure in (e_t_pure, eof_pure):
        value = convex_roof(rho, BIP22, measure, cfg).value
        assert exact - 1e-9 <= value <= exact + 1e-6


def test_default_ensemble_reaches_zero_on_separable_rank_three_states():
    """Rank-3 two-qubit states with C = 0 need more than rank members.

    With ensemble_size=3 these four roofs stop up to 1.7e-2 above h(C) = 0;
    the default size, min(rank^2, 16), reaches it.
    """
    rng = np.random.default_rng(103)
    rhos = [random_density((2, 2), rank=3, seed=rng) for _ in range(25)]
    for i in (1, 10, 11, 24):
        assert concurrence_two_qubit(rhos[i]) == 0.0
        cfg = RoofConfig(restarts=20, max_iters=150, seed=i)
        assert convex_roof(rhos[i], BIP22, e_t_pure, cfg).value <= 1e-9


def test_tsallis_roof_meets_f_q_of_c_only_inside_its_valid_range():
    """f_q(C) is the two-qubit roof of t_q_pure for q in about [0.697, 4.303]."""
    rng = np.random.default_rng(5)
    rhos = [random_density((2, 2), rank=2, seed=rng) for _ in range(5)]
    cfg = RoofConfig(restarts=20, max_iters=300, seed=1)
    for q, inside in ((0.8, True), (2.0, True), (4.0, True), (0.3, False), (8.0, False)):
        gaps = [convex_roof(rho, BIP22, lambda p, b: t_q_pure(p, b, q), cfg).value
                - f_q(concurrence_two_qubit(rho), q) for rho in rhos]
        if inside:
            assert min(gaps) >= -1e-9
        else:
            assert min(gaps) < -1e-3
