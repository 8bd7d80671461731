import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualentropy import (Bipartition, DensityMatrix, PureStack, PureState, RoofConfig,
                         SchmidtStack, average_measure, concurrence_two_qubit, convex_roof,
                         e_t_pure, e_t_two_qubit, eof_pure, eof_two_qubit, explicit, f_q,
                         h, hjw_ensemble, pairwise_marginal, example3_family,
                         example4_state, pairwise_e_t_example3, pairwise_e_t_example4,
                         concurrence_pure, random_density, random_unitary,
                         schmidt_spectrum, t_q_pure, tensor)
from dualentropy.convexroof import (PROBE_STEP, _Objective, _inner, _members, _retract,
                                   _tangent)

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
    rng = np.random.default_rng(2)
    for _ in range(20):
        rank = int(rng.integers(2, 5))
        m = int(rng.integers(rank, 9))
        rho = random_density((2, 2), rank=rank, seed=rng)
        ens = hjw_ensemble(rho, random_unitary(m, rng)[:, :rank])
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
        assert isinstance(ens.members, PureStack) and ens.members.shape == ens.weights.shape
        assert np.max(np.abs(ens.reconstruct() - target.matrix)) <= 1e-10
        assert abs(average_measure(ens, bip, measure) - res.value) <= 1e-10


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
    start = average_measure(hjw_ensemble(rho, np.eye(2)), BIP22, e_t_pure)
    assert abs(frozen.restart_values[0] - start) <= 1e-12


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


# cuts with d_A < d_B, d_A > d_B and d_A = d_B, and a cut that splits three parties
CUTS = [((2, 2), (0,)), ((2, 3), (0,)), ((3, 2), (0,)), ((2, 3, 2), (0, 2))]
MEASURES = {"e_t": e_t_pure, "eof": eof_pure, "concurrence": concurrence_pure,
            "t_q": lambda p, b: t_q_pure(p, b, 1.5)}


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


def _weighted_projectors(ens):
    a = ens.members.amplitudes
    return np.einsum("i,ij,ik->ijk", ens.weights, a, a.conj())


@settings(max_examples=20)
@given(st.integers(2, 4), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_a_retraction_step_moves_the_ensemble_by_order_t(rank, extra, seed):
    # the weights sum_j |u_ij|^2 lambda_j cannot see a phase on a column of u,
    # so the members are compared too, as their weighted projectors
    rho, u, delta = _tangent_point((2, 2), rank, rank + extra, seed)
    ens = hjw_ensemble(rho, u[0])
    for t in (1e-4, 1e-6):
        moved = hjw_ensemble(rho, _retract(u, t * delta)[0])
        assert moved.weights.shape == ens.weights.shape
        assert np.max(np.abs(moved.weights - ens.weights)) <= 10 * t
        assert np.max(np.abs(_weighted_projectors(moved)
                             - _weighted_projectors(ens))) <= 10 * t


def test_roof_rejects_a_measure_that_is_not_spectral():
    for rank in (2, 1):
        rho = random_density((2, 2), rank=rank, seed=23)
        with pytest.raises(ValueError, match="Schmidt spectrum"):
            convex_roof(rho, BIP22, lambda p, b: np.abs(p.amplitudes[..., 0]),
                        RoofConfig(restarts=2, max_iters=3))


def _eigh_value_and_gradient(obj, u, dims):
    """``_Objective.value_and_gradient`` with G = V diag(g) V^dagger from eigh's V.

    The spectrum x is ``schmidt_spectrum``'s, and the measure sees x and the
    probes x +- shift as a ``SchmidtStack``, so x matches bit for bit: central
    differences at PROBE_STEP would amplify a one-ulp change of x to about
    1e-12 in the gradient.
    """
    w, amps = _members(u, obj.lam, obj.phi)
    mat = amps[..., obj.idx]
    v = np.linalg.eigh(mat @ mat.conj().swapaxes(-1, -2))[1][..., ::-1]
    x = schmidt_spectrum(PureStack(amps, dims), obj.bipartition.side_a)
    k = x.shape[-1]
    d = PROBE_STEP * x[..., 1:]
    shift = d[..., None] * obj.probe_dirs
    x1 = x[..., None, :]
    vals = obj.measure(SchmidtStack(np.concatenate([x1, x1 + shift, x1 - shift], axis=-2),
                                    obj.bipartition.side_a), obj.bipartition)
    e = vals[..., 0]
    de = (vals[..., 1:k] - vals[..., k:]) / np.where(d > 0, 2.0 * d, 1.0)
    de = np.concatenate([np.zeros(de.shape[:-1] + (1,)), de], axis=-1)
    g = de + (e - np.sum(x * de, axis=-1))[..., None]
    z = ((v * g[..., None, :]) @ v.conj().swapaxes(-1, -2)) @ mat
    z *= np.sqrt(w)[..., None, None]
    egrad = 2.0 * (z.reshape(amps.shape)[..., obj.inverse] @ obj.back)
    return np.sum(w * e, axis=-1), _tangent(u, egrad)


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
    ref_value, ref_grad = _eigh_value_and_gradient(obj, u, rho.dims)
    assert abs(value - ref_value)[0] <= 1e-12
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12


def test_iteration_zero_makes_one_measure_call():
    calls = []

    def counting(stack, bip):
        calls.append(stack.shape)
        return e_t_pure(stack, bip)

    pure = PureState(random_unitary(4, np.random.default_rng(26))[0], (2, 2)).density()
    flat = pairwise_marginal(example4_state(), 0, 1)
    for rho, cfg in ((random_density((2, 2), rank=2, seed=27), RoofConfig(max_iters=0)),
                     (flat, RoofConfig(restarts=20, max_iters=150, seed=1)),
                     (pure, RoofConfig())):
        calls.clear()
        res = convex_roof(rho, Bipartition.of(rho.dims, (0,)), counting, cfg)
        assert res.iterations_used == 0
        assert len(calls) == 1


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


def test_the_roof_builds_one_pure_stack_its_result_ensemble(monkeypatch):
    made = []
    validate = PureStack.__post_init__

    def counting(self):
        validate(self)
        made.append(self.shape)

    monkeypatch.setattr(PureStack, "__post_init__", counting)
    for rho, cfg in _roof_cases():
        made.clear()
        res = convex_roof(rho, Bipartition.of(rho.dims, (0,)), e_t_pure, cfg)
        assert made == [res.best_ensemble.members.shape]


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
