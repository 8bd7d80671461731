"""Property tests of the spectral core on small random spectra and states."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualentropy import (DensityMatrix, PureState, concurrence_pure, cut, e_t_pure,
                         e_t_two_qubit, eof_pure, eof_two_qubit, example3_family,
                         example4_state, explicit, extropy, f_q, g,
                         norm_factor, pairwise_marginal, permute_subsystems, random_density,
                         random_pure, random_unitary, reduced_state, s_total, s_total_pure,
                         schmidt_spectrum, shannon, spectrum, t_q_pure,
                         t_q_pure_normalized, total_classical, tsallis, tsallis_dual,
                         tsallis_total)
from dualentropy.convexroof import _eig_support, _members
from dualentropy.entropy import _total
from dualentropy.monogamy import _example3_spectra

seeds = st.integers(0, 2 ** 32 - 1)
dims = st.integers(2, 5)


@st.composite
def distributions(draw):
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)))
    if w.sum() < 1e-3:
        w = np.ones_like(w)
    return w / w.sum()


@st.composite
def densities(draw, d=None):
    d = draw(dims) if d is None else d
    rank = draw(st.integers(1, d))
    return random_density((d,), rank=rank, seed=draw(seeds))


def _ref_xlog2x(x):
    x = x[x > 0]
    return float(np.sum(x * np.log2(x)))


@given(distributions())
def test_kernel_matches_reference_formula(p):
    h_ref = -_ref_xlog2x(p)
    dual_ref = -_ref_xlog2x(1.0 - p)
    assert abs(shannon(p) - h_ref) <= 1e-12
    assert abs(extropy(p) - dual_ref) <= 1e-12
    assert abs(total_classical(p) - (h_ref + dual_ref)) <= 1e-12
    assert abs(float(np.sum(_total(p))) - (h_ref + dual_ref)) <= 1e-12
    assert abs(float(np.sum(g(p))) - (h_ref + dual_ref)) <= 1e-12


@given(densities())
def test_s_total_range(rho):
    val = s_total(rho)
    assert -1e-12 <= val <= norm_factor(rho.dim) + 1e-12


@given(densities(), seeds)
def test_s_total_unitary_invariance(rho, seed):
    u = random_unitary(rho.dim, np.random.default_rng(seed))
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)
    assert abs(s_total(rotated) - s_total(rho)) <= 1e-10


@given(dims, dims, seeds)
def test_pure_state_marginal_symmetry(da, db, seed):
    psi = random_pure((da, db), seed)
    sa = s_total(reduced_state(psi, (0,)))
    sb = s_total(reduced_state(psi, (1,)))
    assert abs(sa - sb) <= 1e-10


@st.composite
def pure_marginals(draw):
    """A random pure state, a kept side of its subsystems, and an order of them."""
    dims_ = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    psi = random_pure(dims_, draw(seeds))
    keep = draw(st.lists(st.integers(0, len(dims_) - 1), min_size=1, unique=True))
    return psi, keep, draw(st.permutations(range(len(keep))))


@given(pure_marginals())
def test_trusted_marginals_equal_the_validated_ones(case):
    psi, keep, perm = case
    rho = reduced_state(psi, keep)
    side = sorted(keep)
    idx = np.arange(psi.dim).reshape(psi.dims).transpose(
        side + [k for k in range(len(psi.dims)) if k not in side]).reshape(rho.dim, -1)
    m = psi.amplitudes[idx]
    checked = DensityMatrix(m @ m.conj().T, rho.dims)
    assert rho.matrix.tobytes() == checked.matrix.tobytes() and rho.dims == checked.dims
    assert np.array_equal(rho._factor, m)
    # each also passes the validating constructor once more, unchanged
    for trusted in (rho, permute_subsystems(rho, perm), psi.density()):
        again = DensityMatrix(trusted.matrix, trusted.dims)
        assert again.matrix.tobytes() == trusted.matrix.tobytes()


@given(pure_marginals())
def test_the_factor_svd_support_is_the_eigh_support(case):
    psi, keep, perm = case
    for rho in (reduced_state(psi, keep), permute_subsystems(reduced_state(psi, keep), perm),
                psi.density()):
        lam, phi = _eig_support(rho)
        assert np.all(np.diff(lam) <= 0) and lam.size <= rho._factor.shape[1]
        assert np.max(np.abs((phi * lam) @ phi.conj().T - rho.matrix)) <= 1e-12
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(lam.size))) <= 1e-12
        w = np.linalg.eigvalsh(rho.matrix)[::-1]
        assert np.max(np.abs(w - np.pad(lam, (0, w.size - lam.size)))) <= 1e-12


@given(dims.flatmap(lambda d: st.tuples(densities(d), densities(d))),
       st.floats(0.0, 1.0))
def test_s_total_concavity(pair, t):
    rho, sigma = pair
    mix = DensityMatrix(t * rho.matrix + (1.0 - t) * sigma.matrix, rho.dims)
    assert s_total(mix) >= t * s_total(rho) + (1.0 - t) * s_total(sigma) - 1e-10


@given(st.floats(0.0, 1.0))
def test_f_2_is_x_squared(x):
    assert abs(f_q(x, 2.0) - x * x) <= 1e-12


@given(seeds, st.integers(1, 4))
def test_two_qubit_e_t_equals_eof(seed, rank):
    assert eof_two_qubit is e_t_two_qubit
    rho = random_density((2, 2), rank=rank, seed=seed)
    assert eof_two_qubit(rho) == e_t_two_qubit(rho)
    psi = random_pure((2, 2), seed)
    bip = cut(psi, (0,))
    assert abs(e_t_pure(psi, bip) - eof_pure(psi, bip)) <= 1e-12


PURE_MEASURES = {
    "e_t_pure": e_t_pure,
    "e_t_pure explicit:6": lambda p, b: e_t_pure(p, b, explicit(6)),
    "eof_pure": eof_pure,
    "s_total_pure": s_total_pure,
    "concurrence_pure": concurrence_pure,
    "t_q_pure q=0.5": lambda p, b: t_q_pure(p, b, 0.5),
    "t_q_pure q=3": lambda p, b: t_q_pure(p, b, 3.0),
    "t_q_pure_normalized q=2": lambda p, b: t_q_pure_normalized(p, b, 2.0),
}


@given(st.lists(dims, min_size=2, max_size=3), st.integers(1, 4), st.integers(1, 3),
       seeds)
def test_stacked_pure_measures_match_each_state(dims_, rows, cols, seed):
    rng = np.random.default_rng(seed)
    states = [random_pure(dims_, rng) for _ in range(rows * cols)]
    stack = PureState(np.array([s.amplitudes for s in states]).reshape(rows, cols, -1),
                       dims_)
    bip = cut(dims_, (0,))
    for name, measure in PURE_MEASURES.items():
        got = measure(stack, bip)
        assert got.shape == (rows, cols), name
        want = np.array([measure(s, bip) for s in states]).reshape(rows, cols)
        assert isinstance(measure(states[0], bip), float), name
        assert np.max(np.abs(got - want)) <= 1e-12, name


ENTROPY_FUNCTIONALS = {
    "shannon": shannon,
    "extropy": extropy,
    "total_classical": total_classical,
    "tsallis q=0.5": lambda p: tsallis(p, 0.5),
    "tsallis_dual q=3": lambda p: tsallis_dual(p, 3.0),
    "tsallis_total q=2": lambda p: tsallis_total(p, 2.0),
}


@st.composite
def distribution_stacks(draw):
    """(rows, cols, k) stacks of distributions, each row drawn on its own."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    size = int(np.prod(shape))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    w = w.reshape(shape)
    w[w.sum(axis=-1) < 1e-3] = 1.0
    return w / w.sum(axis=-1, keepdims=True)


@given(distribution_stacks())
def test_stacked_entropy_functionals_match_each_row(p):
    rows = p.reshape(-1, p.shape[-1])
    for name, functional in ENTROPY_FUNCTIONALS.items():
        got = functional(p)
        assert got.shape == p.shape[:-1], name
        want = np.array([functional(r) for r in rows]).reshape(p.shape[:-1])
        assert isinstance(functional(rows[0]), float), name
        assert np.max(np.abs(got - want)) <= 1e-12, name


@given(distribution_stacks(), seeds)
def test_q_array_broadcasts_against_the_stack(p, seed):
    q = np.random.default_rng(seed).uniform(0.2, 4.0, p.shape[:-1])
    for functional in (tsallis, tsallis_dual, tsallis_total):
        got = functional(p, q)
        want = np.array([functional(r, qr) for r, qr in
                         zip(p.reshape(-1, p.shape[-1]), q.ravel())]).reshape(q.shape)
        assert np.max(np.abs(got - want)) <= 1e-12


@given(distribution_stacks(), st.sampled_from(["negative", "nan", "above one", "half sum"]),
       seeds)
def test_a_stack_with_one_invalid_row_raises(p, defect, seed):
    p = p.copy()
    row = tuple(np.random.default_rng(seed).integers(0, n) for n in p.shape[:-1])
    if defect == "half sum":
        p[row] *= 0.5
    else:
        p[row + (0,)] = {"negative": -0.2, "nan": np.nan, "above one": 1.5}[defect]
    for name, functional in ENTROPY_FUNCTIONALS.items():
        with pytest.raises(ValueError):
            functional(p)


def _descending(p):
    return np.sort(np.asarray(p))[::-1]


def _flat_roof_spectra(rho, spec, seed):
    """Max deviation of the Schmidt spectra of a random HJW ensemble of rho from spec."""
    rng = np.random.default_rng(seed)
    lam, phi = _eig_support(rho)
    m = lam.size + int(rng.integers(0, 3))
    w, amps = _members(random_unitary(m, rng)[:, :lam.size], lam, phi)
    lam = schmidt_spectrum(PureState(amps[w > 0], rho.dims), (0,))
    return float(np.max(np.abs(lam - _descending(spec))))


@given(st.floats(0.0, np.pi / 2), seeds)
def test_declared_example3_spectra(theta, seed):
    psi = example3_family(theta)
    spectra = _example3_spectra(np.cos(theta), np.sin(theta))
    for party, spec in enumerate(spectra):
        got = spectrum(reduced_state(psi, (party,)))
        assert np.max(np.abs(got - _descending(spec))) <= 1e-12
    # every member of any decomposition of rho_AB (rho_AC) has rho_B's (rho_C's) spectrum
    for other in (1, 2):
        rho = pairwise_marginal(psi, 0, other)
        assert _flat_roof_spectra(rho, spectra[other], seed) <= 1e-12


@given(seeds)
def test_declared_example4_pairwise_spectrum(seed):
    rho = pairwise_marginal(example4_state(), 0, 1)
    assert _flat_roof_spectra(rho, [0.5, 0.25, 0.25], seed) <= 1e-12
