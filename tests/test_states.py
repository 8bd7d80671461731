import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualentropy import (DensityMatrix, PureStack, PureState, SchmidtStack,
                         StateValidationError,
                         partial_trace, permute_subsystems, purity,
                         random_density, random_pure, random_unitary,
                         reduced_state, schmidt_spectrum, spectrum,
                         state_from_json, state_to_json, tensor, tensor_all)


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
        PureStack(np.array([[1.0, 0.0], [1.0, 1.0]]), (2,))  # second row unnormalized
    with pytest.raises(StateValidationError):
        PureStack(np.eye(2), (3,))
    with pytest.raises(StateValidationError):
        PureStack(np.array([[np.nan, 0.0]]), (2,))
    with pytest.raises(StateValidationError):
        PureStack(np.array(1.0), (1,))
    stack = PureStack(np.eye(4).reshape(2, 2, 4), (2, 2))
    assert stack.shape == (2, 2)
    assert not stack.amplitudes.flags.writeable


def test_schmidt_spectrum_of_a_stack_matches_each_state():
    rng = np.random.default_rng(29)
    states = [random_pure((2, 3, 2), rng) for _ in range(6)]
    stack = PureStack(np.array([s.amplitudes for s in states]).reshape(3, 2, 12),
                      (2, 3, 2))
    for side_a in ((0,), (1,), (0, 2), (2,)):
        got = schmidt_spectrum(stack, side_a)
        want = np.array([schmidt_spectrum(s, side_a) for s in states])
        assert got.shape == (3, 2, want.shape[-1])
        assert np.array_equal(got.reshape(want.shape), want)


def test_schmidt_stack_gives_its_spectra_only_across_its_own_cut():
    rng = np.random.default_rng(30)
    stack = PureStack(np.array([random_pure((2, 3, 2), rng).amplitudes for _ in range(3)]),
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
    psi = PureState(amps, dims) if shape == () else PureStack(amps, dims)
    got = schmidt_spectrum(psi, side_a)
    want = np.linalg.svd(mats, compute_uv=False) ** 2
    assert got.shape == shape + (k,)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14
    assert np.all(got >= 0.0)
    assert np.all(np.diff(got, axis=-1) <= 0.0)


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
