import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualentropy import (Bipartition, DensityMatrix, PureState, SchmidtStack,
                         StateValidationError, e_t_pure,
                         partial_trace, permute_subsystems, purity,
                         random_density, random_pure, random_unitary,
                         reduced_state, schmidt_spectrum, spectrum,
                         state_from_json, state_to_json, tensor, tensor_all)
from dualentropy.states import _schmidt_index, _spectral


def bell():
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


def test_pure_state_validation():
    with pytest.raises(StateValidationError):
        PureState(np.array([1.0, 1.0]), (2,))
    with pytest.raises(StateValidationError):
        PureState(np.array([1.0, 0.0]), (3,))
    for bad in (np.nan, np.inf):
        with pytest.raises(StateValidationError):
            PureState([bad, 0, 0, 1], (2, 2))
    psi = PureState(np.array([1.0, 0.0]), (2,))
    assert psi.dim == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf])
def test_non_finite_entries_are_rejected_as_non_finite(bad):
    vec = np.array([1, 0, 0, 0], dtype=complex)
    vec[1] = bad
    with pytest.raises(StateValidationError, match="non-finite"):
        PureState(vec, (2, 2))
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = bad
    with pytest.raises(StateValidationError, match="non-finite"):
        DensityMatrix(mat, (2, 2))


def test_density_validation():
    with pytest.raises(StateValidationError):
        DensityMatrix(np.eye(2), (2,))  # trace 2
    with pytest.raises(StateValidationError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]), (2,))  # not Hermitian
    with pytest.raises(StateValidationError):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))  # not PSD
    with pytest.raises(StateValidationError):
        DensityMatrix(np.diag([np.nan, 1.0]), (2,))
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert rho.dim == 4


def test_tensor_dims_concatenate():
    a = PureState(np.array([1.0, 0.0]), (2,))
    b = PureState(np.array([0.0, 0.0, 1.0]), (3,))
    ab = tensor(a, b)
    assert ab.dims == (2, 3)
    assert ab.amplitudes[2] == 1.0
    rho = tensor(a.density(), b.density())
    assert rho.dims == (2, 3)
    assert abs(rho.matrix[2, 2] - 1.0) < 1e-14


def test_tensor_all_associative():
    rng = np.random.default_rng(11)
    parts = [random_pure((2,), rng) for _ in range(4)]
    left = tensor(tensor(tensor(parts[0], parts[1]), parts[2]), parts[3])
    assert np.allclose(tensor_all(parts).amplitudes, left.amplitudes)


def test_partial_trace_bell_is_maximally_mixed():
    rho_a = partial_trace(bell().density(), (0,))
    assert np.allclose(rho_a.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_recovers_product_factors():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_density((2,), seed=rng)
        b = random_density((3,), seed=rng)
        ab = tensor(a, b)
        assert np.allclose(partial_trace(ab, (0,)).matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(ab, (1,)).matrix, b.matrix, atol=1e-12)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_density((2, 3, 2), seed=rng)
        red = partial_trace(rho, (0, 2))
        assert red.dims == (2, 2)
        assert abs(np.trace(red.matrix) - 1.0) < 1e-12
        assert np.allclose(red.matrix, red.matrix.conj().T, atol=1e-12)


def test_reduced_state_matches_partial_trace():
    rng = np.random.default_rng(13)
    for _ in range(20):
        psi = random_pure((2, 3, 2), rng)
        for keep in [(0,), (1,), (2,), (0, 2), (1, 2)]:
            a = reduced_state(psi, keep)
            b = partial_trace(psi.density(), keep)
            assert np.allclose(a.matrix, b.matrix, atol=1e-12)


def test_permute_subsystems():
    a = PureState(np.array([1.0, 0.0]), (2,)).density()
    b = DensityMatrix(np.diag([0.0, 0.0, 1.0]), (3,))
    ab = tensor(a, b)
    ba = permute_subsystems(ab, [1, 0])
    assert ba.dims == (3, 2)
    assert np.allclose(ba.matrix, tensor(b, a).matrix, atol=1e-14)
    with pytest.raises(ValueError):
        permute_subsystems(ab, [0, 0])


def test_spectrum_basic():
    s = spectrum(DensityMatrix(np.eye(6) / 6, (6,)))
    assert np.allclose(s, np.full(6, 1 / 6), atol=1e-12)
    s = spectrum(bell().density())
    assert abs(s[0] - 1.0) < 1e-12
    assert np.all(np.diff(s) <= 0)


def test_spectrum_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density((4,), seed=rng)
        u = random_unitary(4, rng)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (4,))
        assert np.allclose(spectrum(rho), spectrum(rotated),
                           atol=1e-10)


def test_schmidt_bell():
    lam = schmidt_spectrum(bell(), (0,))
    assert np.allclose(lam, [0.5, 0.5], atol=1e-12)


def test_pure_stack_validation():
    with pytest.raises(StateValidationError):
        PureState(np.array([[1.0, 0.0], [1.0, 1.0]]), (2,))  # second row unnormalized
    with pytest.raises(StateValidationError):
        PureState(np.eye(2), (3,))
    with pytest.raises(StateValidationError):
        PureState(np.array([[np.nan, 0.0]]), (2,))
    with pytest.raises(StateValidationError):
        PureState(np.array(1.0), (1,))
    stack = PureState(np.eye(4).reshape(2, 2, 4), (2, 2))
    assert stack.shape == (2, 2)
    assert not stack.amplitudes.flags.writeable


def test_one_pure_state_type_holds_one_state_or_a_stack():
    psi = PureState(np.eye(4)[:3], (2, 2))
    assert psi.shape == (3,) and psi.dim == 4
    assert bell().shape == ()
    with pytest.raises(ValueError, match="single state"):
        psi.density()
    # as a separate stack type was, a stack is refused where one state is meant
    with pytest.raises(TypeError):
        tensor(psi, bell())
    with pytest.raises(TypeError, match="one state"):
        state_to_json(psi)
    # a tensor-shaped array is a stack of its rows, never raveled into one state
    with pytest.raises(StateValidationError):
        PureState(np.full((2, 2), 0.5), (2, 2))


def test_a_stack_unstacks_into_its_rows_without_a_second_check(monkeypatch):
    stack = PureState(np.eye(4).reshape(2, 2, 4)[..., ::-1], (2, 2))
    checked = []
    validate = PureState.__post_init__

    def counting(self):
        validate(self)
        checked.append(self.shape)

    monkeypatch.setattr(PureState, "__post_init__", counting)
    states = stack.unstack()
    assert checked == []
    assert len(states) == 4
    for state, row in zip(states, stack.amplitudes.reshape(-1, 4)):
        assert type(state) is PureState and state.shape == () and state.dims == (2, 2)
        assert np.array_equal(state.amplitudes, row)
        assert not state.amplitudes.flags.writeable
    [one] = bell().unstack()
    assert one.shape == () and np.array_equal(one.amplitudes, bell().amplitudes)


def test_pure_state_marginals_keep_their_factor_without_a_second_check(monkeypatch):
    psi = random_pure((2, 3, 2), seed=4)
    checked = []
    validate = DensityMatrix.__post_init__

    def counting(self):
        validate(self)
        checked.append(self.dims)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    m = psi.amplitudes.reshape(2, 3, 2).transpose(2, 0, 1).reshape(2, 6)
    marginals = {"reduced_state": (reduced_state(psi, (2,)), m),
                 "density": (psi.density(), psi.amplitudes[:, None]),
                 "focus last": (permute_subsystems(reduced_state(psi, (0, 1)), [1, 0]),
                                psi.amplitudes.reshape(2, 3, 2).transpose(1, 0, 2).reshape(6, 2))}
    assert checked == []
    for name, (rho, factor) in marginals.items():
        assert type(rho) is DensityMatrix and rho._factor.shape == factor.shape, name
        assert np.array_equal(rho._factor, factor), name
        assert not rho.matrix.flags.writeable and not rho._factor.flags.writeable, name
        assert np.max(np.abs(factor @ factor.conj().T - rho.matrix)) <= 1e-15, name
    # the factor is private: equality, repr and re-validation see matrix and dims only
    rho = marginals["reduced_state"][0]
    copy = DensityMatrix(rho.matrix, rho.dims)
    assert checked == [(2,)] and copy._factor is None
    assert repr(copy) == repr(rho)
    # user matrices and permutations of them hold no factor, and are checked
    assert permute_subsystems(DensityMatrix(np.eye(6) / 6, (2, 3)), [1, 0])._factor is None
    assert checked == [(2,), (2, 3), (3, 2)]
    # a stack has no single marginal, and still fails the validating constructor
    stack = PureState(np.eye(4)[:3], (2, 2))
    with pytest.raises(StateValidationError, match="square"):
        reduced_state(stack, (0,))


# Partial traces and Schmidt spectra as explicit einsum subscripts, written
# out per cut: rho_A[a, a'] = sum_b rho[a b, a' b] with side A kept in
# ascending order, whatever the order of ``keep``.
ORACLE_CUTS = (
    ((2, 3, 2), (0, 2), "abcdbf->acdf"),
    ((2, 3, 2), (2, 0), "abcdbf->acdf"),
    ((2, 3, 2), (1, 1, 2), "abcaef->bcef"),
    ((3, 2, 2, 2), (0, 2), "abcdebgd->aceg"),
    ((3, 2, 2, 2), (1, 3), "abcdafch->bdfh"),
    ((3, 2, 2, 2), (2, 0), "abcdebgd->aceg"),
    ((3, 2, 2, 2), (1, 1, 2), "abcdafgd->bcfg"),
)


@pytest.mark.parametrize("dims,keep,subscripts", ORACLE_CUTS)
def test_cut_map_matches_explicit_einsum(dims, keep, subscripts):
    rng = np.random.default_rng(17)
    d_a = int(np.prod([dims[i] for i in set(keep)]))
    d_b = int(np.prod(dims)) // d_a
    rho = random_density(dims, rank=3, seed=rng)
    want = np.einsum(subscripts, rho.matrix.reshape(dims + dims)).reshape(d_a, d_a)
    assert np.max(np.abs(partial_trace(rho, keep).matrix - want)) <= 1e-14

    # the same subscripts on |psi><psi| give the pure marginal and its spectrum
    states = [random_pure(dims, rng) for _ in range(6)]
    wants = []
    for psi in states:
        t = np.multiply.outer(psi.amplitudes, psi.amplitudes.conj()).reshape(dims + dims)
        want = np.einsum(subscripts, t).reshape(d_a, d_a)
        assert np.max(np.abs(reduced_state(psi, keep).matrix - want)) <= 1e-14
        wants.append(np.linalg.eigvalsh(want)[::-1][:min(d_a, d_b)])
        assert np.max(np.abs(schmidt_spectrum(psi, keep) - wants[-1])) <= 1e-13
    stack = PureState(np.array([s.amplitudes for s in states]).reshape(2, 3, -1), dims)
    got = schmidt_spectrum(stack, keep)
    assert got.shape == (2, 3, min(d_a, d_b))
    assert np.max(np.abs(got - np.reshape(wants, got.shape))) <= 1e-13


def test_schmidt_spectrum_of_a_stack_matches_each_state():
    rng = np.random.default_rng(29)
    states = [random_pure((2, 3, 2), rng) for _ in range(6)]
    stack = PureState(np.array([s.amplitudes for s in states]).reshape(3, 2, 12),
                       (2, 3, 2))
    for side_a in ((0,), (1,), (0, 2), (2,)):
        got = schmidt_spectrum(stack, side_a)
        want = np.array([schmidt_spectrum(s, side_a) for s in states])
        assert got.shape == (3, 2, want.shape[-1])
        assert np.array_equal(got.reshape(want.shape), want)


def test_schmidt_stack_gives_its_spectra_only_across_its_own_cut():
    rng = np.random.default_rng(30)
    stack = PureState(np.array([random_pure((2, 3, 2), rng).amplitudes for _ in range(3)]),
                       (2, 3, 2))
    x = schmidt_spectrum(stack, (0, 2))
    spectral = SchmidtStack(x, [2, 0, 0])
    assert spectral.side_a == (0, 2) and spectral.shape == (3,)
    assert np.array_equal(schmidt_spectrum(spectral, (2, 0)), x)
    assert not schmidt_spectrum(spectral, (0, 2)).flags.writeable
    for other in ((0,), (1,), (0, 1, 2)):
        with pytest.raises(ValueError, match="across side A"):
            schmidt_spectrum(spectral, other)
    with pytest.raises(ValueError, match="Schmidt spectrum"):
        spectral.amplitudes


def test_schmidt_stack_holds_a_frozen_copy_of_its_spectra():
    x = np.array([[0.75, 0.25], [1.0, 0.0]])
    spectral = SchmidtStack(x, (0,))
    assert spectral.shape == (2,) and x.flags.writeable
    assert not spectral.spectra.flags.writeable
    assert SchmidtStack([1.0, 0.0], (1,)).shape == ()
    with pytest.raises(StateValidationError):
        SchmidtStack(1.0, (0,))


# (dims, side A) with k = min(d_A, d_B) = 1, 2 (d_A < d_B and d_A > d_B) and 3
SPECTRUM_CUTS = (((1, 4), (0,)), ((3, 1), (0,)),
                 ((2, 3), (0,)), ((3, 2), (0,)), ((2, 2), (1,)), ((2, 2, 2), (0, 2)),
                 ((3, 3), (0,)), ((3, 4), (1,)), ((2, 3, 2), (0, 2)))


def _schmidt_values(kind, k, rng):
    """Descending Schmidt spectrum of one kind: random, product, maximally
    entangled (Bell for k = 2) or near-degenerate at 1/2 +- 1e-9."""
    lam = np.zeros(k)
    if kind == "random":
        lam = np.sort(rng.random(k))[::-1]
    elif kind == "product" or k == 1:
        lam[0] = 1.0
    elif kind == "maximal":
        lam[:] = 1.0 / k
    else:
        lam[:2] = 0.5 + 1e-9, 0.5 - 1e-9
    return lam / lam.sum()


@pytest.mark.parametrize("cut", SPECTRUM_CUTS)
@pytest.mark.parametrize("kind", ("random", "product", "maximal", "near_half"))
@settings(max_examples=10)
@given(st.sampled_from(((), (0,), (1,), (3,), (2, 3))), st.integers(0, 2 ** 32 - 1))
def test_schmidt_spectrum_equals_the_squared_singular_values(cut, kind, shape, seed):
    dims, side_a = cut
    side_b = tuple(i for i in range(len(dims)) if i not in side_a)
    d_a = int(np.prod([dims[i] for i in side_a]))
    d_b = int(np.prod([dims[i] for i in side_b]))
    k = min(d_a, d_b)
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(int(np.prod(shape))):
        u, v = random_unitary(d_a, rng)[:, :k], random_unitary(d_b, rng)[:, :k]
        mats.append((u * np.sqrt(_schmidt_values(kind, k, rng))) @ v.T)
    mats = np.array(mats, dtype=complex).reshape(shape + (d_a, d_b))
    # amplitudes in the subsystem order of dims: undo the regrouping of the cut
    perm = side_a + side_b
    t = mats.reshape(shape + tuple(dims[i] for i in perm))
    amps = t.transpose(tuple(range(len(shape))) +
                       tuple(len(shape) + int(j) for j in np.argsort(perm)))
    amps = amps.reshape(shape + (d_a * d_b,))
    psi = PureState(amps, dims)
    got = schmidt_spectrum(psi, side_a)
    want = np.linalg.svd(mats, compute_uv=False) ** 2
    assert got.shape == shape + (k,)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14
    assert np.all(got >= 0.0)
    assert np.all(np.diff(got, axis=-1) <= 0.0)


# spectra of the 3 x 3 spectral step: drawn ("random", "pair split by 1e-9"),
# fixed, and the product Gram diag(1, 0, 0) that the roof puts in for members
# below its weight floor ("unit", with V = 1)
SPECTRA_3 = {"random": None, "flat": (0.5, 0.25, 0.25), "pair at 1/2": (0.5, 0.5, 0.0),
             "uniform": (1 / 3, 1 / 3, 1 / 3),
             "near product 1e-9": (1.0 - 1e-9 - 1e-15, 1e-9, 1e-15),
             "near product 1e-6": (1.0 - 1e-6 - 1e-7, 1e-6, 1e-7),
             "product": (1.0, 0.0, 0.0), "pair split by 1e-9": None, "unit": (1.0, 0.0, 0.0)}
CUT_33 = Bipartition.of((3, 3), (0,))


def _spectrum_3(family, rng):
    if family == "random":
        return np.sort(rng.dirichlet(np.ones(3)))[::-1]
    if family == "pair split by 1e-9":
        a = rng.uniform(0.05, 0.45)
        return np.sort([a + 5e-10, a - 5e-10, 1.0 - 2.0 * a])[::-1]
    return np.array(SPECTRA_3[family])


def _roof_slopes(x):
    """The slopes g = E' + (E - x . E') of E_t that the roof lifts to G."""
    e, de = e_t_pure(SchmidtStack(x, (0,)), CUT_33)
    return de + (e - (x * de).sum(axis=-1))[..., None]


@pytest.mark.parametrize("family", sorted(SPECTRA_3))
@settings(max_examples=8)
@given(st.integers(32, 64), st.integers(0, 2 ** 32 - 1))
def test_closed_form_three_by_three_step_matches_an_exact_oracle(family, size, seed):
    """x and G M of ``_spectral`` at k = 3 against M = V diag(sqrt x) for a known
    spectrum x and Haar V, where G M = V diag(g sqrt x) exactly.

    x is within 2e-15 of the spectrum. G M is within 1e-12 where every gap
    between unequal entries exceeds 1e-6. Closer entries have eigenvectors
    that the rounding of M M^dagger alone moves by eps / gap, for any
    method: there G M is within twice the error of the eigh path on the
    same stack (over 300 seeded stacks of 32 to 64 members the ratio stayed
    below 1.9), or within 1e-12.
    """
    rng = np.random.default_rng(seed)
    spectra = np.array([_spectrum_3(family, rng) for _ in range(size)])
    if family == "unit":
        v = np.broadcast_to(np.eye(3), (size, 3, 3))
    else:
        v = np.array([random_unitary(3, rng) for _ in range(size)])
    mat = v * np.sqrt(spectra)[:, None, :]
    gram = mat @ mat.conj().swapaxes(-1, -2)
    exact = v * (_roof_slopes(spectra) * np.sqrt(spectra))[:, None, :]
    x, lift = _spectral(gram)
    if family == "unit":
        assert np.array_equal(x, spectra)
    assert np.max(np.abs(x - spectra)) <= 2e-15
    assert np.all(np.diff(x, axis=-1) <= 0.0) and np.all(x >= 0.0)
    err = np.max(np.abs(lift(_roof_slopes(x)).reshape(size, 3, 3) @ mat - exact))
    gaps = np.abs(spectra[:, :, None] - spectra[:, None, :])
    if np.all((gaps == 0.0) | (gaps > 1e-6)):
        assert err <= 1e-12
    else:
        mu, w = np.linalg.eigh(gram)
        x_ref, w = np.maximum(mu[..., ::-1], 0.0), w[..., ::-1]
        g_ref = (w * _roof_slopes(x_ref)[:, None, :]) @ w.conj().swapaxes(-1, -2)
        assert err <= max(2.0 * np.max(np.abs(g_ref @ mat - exact)), 1e-12)


def test_closed_form_three_by_three_step_at_exact_multiples_of_one():
    # A - lambda 1 = 0 has no nonzero cofactor: any unit vector is an eigenvector,
    # and no step may divide by zero (RuntimeWarning is an error here)
    gram = np.array([np.eye(3) / 3, np.zeros((3, 3)), np.diag([0.5, 0.5, 0.0])], dtype=complex)
    x, lift = _spectral(gram)
    assert np.array_equal(x, [[1 / 3] * 3, [0.0] * 3, [0.5, 0.5, 0.0]])
    g = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 1.0], [3.0, 3.0, 5.0]])
    want = np.array([2 * np.eye(3), np.eye(3), np.diag([3.0, 3.0, 5.0])])
    assert np.max(np.abs(lift(g).reshape(3, 3, 3) - want)) <= 1e-15


def test_the_cut_index_is_built_once_per_cut_and_read_only():
    idx = _schmidt_index((2, 3, 2), (0, 2))
    assert _schmidt_index((2, 3, 2), (0, 2)) is idx
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 1
    # the map of the (4, 3) cut, oriented as (k, n) = (3, 4)
    want = np.arange(12).reshape(2, 3, 2).transpose(0, 2, 1).reshape(4, 3).T
    assert np.array_equal(idx, want)
    assert np.array_equal(_schmidt_index((2, 3, 2), [2, 0, 2]), want)


def test_schmidt_product_state_single_coefficient():
    psi = tensor(PureState(np.array([1.0, 0.0]), (2,)),
                 PureState(np.array([0.0, 1.0]), (2,)))
    lam = schmidt_spectrum(psi, (0,))
    assert abs(lam[0] - 1.0) < 1e-12
    assert np.all(lam[1:] < 1e-12)


def test_schmidt_symmetry_both_marginals():
    rng = np.random.default_rng(23)
    for _ in range(30):
        psi = random_pure((3, 5), rng)
        la = np.sort(spectrum(reduced_state(psi, (0,))))[::-1]
        lam = np.sort(schmidt_spectrum(psi, (0,)))[::-1]
        assert np.allclose(lam[:3], la, atol=1e-8)


def test_purity():
    assert abs(purity(bell().density()) - 1.0) < 1e-12
    assert abs(purity(DensityMatrix(np.eye(4) / 4, (4,))) - 0.25) < 1e-12
    rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]), (3,))
    assert abs(purity(rho) - 0.375) < 1e-12


def test_random_states_deterministic_and_valid():
    a = random_pure((2, 3), 42)
    b = random_pure((2, 3), 42)
    assert np.allclose(a.amplitudes, b.amplitudes)
    rho = random_density((2, 2), rank=2, seed=9)
    assert np.sum(spectrum(rho) > 1e-10) == 2
    r1 = random_density((2, 2), rank=1, seed=1)
    assert abs(purity(r1) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        random_density((2,), rank=3, seed=0)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(31)
    for d in (2, 3, 5):
        u = random_unitary(d, rng)
        assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_json_round_trip():
    psi = random_pure((2, 3), 0)
    back = state_from_json(json.loads(json.dumps(state_to_json(psi))))
    assert isinstance(back, PureState)
    assert back.dims == psi.dims
    assert np.allclose(back.amplitudes, psi.amplitudes)
    rho = random_density((2, 2), seed=1)
    back = state_from_json(state_to_json(rho))
    assert isinstance(back, DensityMatrix)
    assert np.allclose(back.matrix, rho.matrix)


def test_json_bad_payload_length():
    obj = state_to_json(random_pure((2, 2), 0))
    obj["re"] = obj["re"][:-1]
    obj["im"] = obj["im"][:-1]
    with pytest.raises(StateValidationError):
        state_from_json(obj)
