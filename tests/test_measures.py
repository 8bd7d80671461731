import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import sqrtm

from dualentropy import (Bipartition, DensityMatrix, DIM_A, DIM_B, MIN_DIM, PureState,
                         RoofConfig, SchmidtStack, convex_roof,
                         concurrence_pure, concurrence_two_qubit, cut,
                         e_t_pure, e_t_two_qubit, eof_pure, eof_two_qubit,
                         explicit, f_q, h, norm_factor, random_density,
                         random_pure, s_total_pure, schmidt_spectrum,
                         t_q_pure, t_q_pure_normalized, t_q_two_qubit,
                         tensor)
from dualentropy.measures import T_Q_TWO_QUBIT_RANGE

LG3 = np.log2(3.0)

_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)


def bell():
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


def werner(p):
    m = p * bell().density().matrix + (1 - p) * np.eye(4) / 4
    return DensityMatrix(m, (2, 2))


def oracle_concurrence(rho):
    """Independent Uhlmann form: eigenvalues of sqrt(sqrt(rho) rt sqrt(rho))."""
    m = rho.matrix
    rt = _YY @ m.conj() @ _YY
    s = sqrtm(m)
    r = sqrtm(s @ rt @ s)
    r = (r + r.conj().T) / 2  # symmetrize sqrtm roundoff
    ev = np.linalg.eigvalsh(r)
    ev = np.sort(np.clip(ev, 0.0, None))[::-1]
    return max(0.0, ev[0] - ev[1] - ev[2] - ev[3])


def test_bipartition_of():
    b = Bipartition.of((2, 3, 4), (0, 2))
    assert b.side_a == (0, 2) and b.side_b == (1,)
    assert b.dim_a == 8 and b.dim_b == 3
    with pytest.raises(ValueError):
        Bipartition.of((2, 2), (0, 1))
    with pytest.raises(ValueError):
        Bipartition.of((2, 2), ())
    assert cut(bell(), (0,)).dim_a == 2


def test_norm_policy():
    assert MIN_DIM(4, 2) == 2
    assert explicit(4)(2, 8) == 4
    with pytest.raises(ValueError):
        explicit(1)
    # a user-written policy that picks d = 1 on a proper cut, here on a stack
    psi = PureState(np.stack([random_pure((2, 3), s).amplitudes for s in range(2)]), (2, 3))
    for measure in (e_t_pure, lambda p, b, n: t_q_pure_normalized(p, b, 0.8, n)):
        with pytest.raises(ValueError, match="must pick d >= 2"):
            measure(psi, cut(psi, (0,)), lambda dim_a, dim_b: 1)


@pytest.mark.parametrize("dims", [(2, 2), (1, 4)], ids=lambda d: "x".join(map(str, d)))
def test_a_non_policy_fails_on_every_cut(dims):
    # a cut with a side of dim 1 uses no d, and still asks the policy for one
    psi, b = random_pure(dims, 1), cut(dims, (0,))
    for measure in (lambda n: e_t_pure(psi, b, n), lambda n: t_q_pure_normalized(psi, b, 0.8, n)):
        with pytest.raises(TypeError):
            measure("min")


def test_a_cut_of_other_dims_is_rejected():
    psi, rho = random_pure((2, 3), 0), random_density((2, 3), rank=2, seed=1)
    for dims in ((4, 4), (3, 3), (3, 2), (2, 3, 1)):
        b = Bipartition.of(dims, (0,))
        assert b.dims == dims
        for measure in (e_t_pure, eof_pure, concurrence_pure, s_total_pure):
            with pytest.raises(ValueError, match="a cut of dims"):
                measure(psi, b)
        with pytest.raises(ValueError, match="a cut of dims"):
            convex_roof(rho, b, e_t_pure, RoofConfig(restarts=3, max_iters=50, seed=0))


def test_norm_factor_values():
    assert abs(norm_factor(2) - 2.0) < 1e-12
    assert abs(norm_factor(3) - (3 * LG3 - 2.0)) < 1e-12
    assert abs(norm_factor(4) - (8.0 - 3 * LG3)) < 1e-12
    with pytest.raises(ValueError):
        norm_factor(1)


def test_norm_factor_past_the_float_range_is_its_limit():
    # r(d) = log2 d + (d - 1) log2(1 + 1/(d - 1)), whose second term is within
    # 1/(2 (d - 1) ln 2) of 1/ln 2; below the float range every bit is kept
    assert norm_factor(10 ** 400) == math.log2(10 ** 400) + 1 / math.log(2)
    largest = 2 ** 1024 - 2 ** 970  # the largest d whose d - 1 has a float
    for d in (10 ** 300, largest):
        assert norm_factor(d) == math.log2(d) + (d - 1) * math.log1p(1 / (d - 1)) / math.log(2)
    assert norm_factor(largest + 1) == math.log2(largest + 1) + 1 / math.log(2)
    assert norm_factor(largest) <= norm_factor(largest + 1) < norm_factor(10 ** 400)


@pytest.mark.parametrize("d", [2, 3, 6, 4096, 10 ** 12, 2 ** 62, 10 ** 27])
def test_norm_factor_matches_a_decimal_reference(d):
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        big, ln2 = decimal.Decimal(d), decimal.Decimal(2).ln()
        want = (big * big.ln() - (big - 1) * (big - 1).ln()) / ln2
    assert abs(decimal.Decimal(norm_factor(d)) - want) <= decimal.Decimal("1e-14") * want


def test_concurrence_pure():
    b = cut((2, 2), (0,))
    assert abs(concurrence_pure(bell(), b) - 1.0) < 1e-12
    prod = tensor(PureState([1, 0], (2,)), PureState([0, 1], (2,)))
    assert concurrence_pure(prod, b) < 1e-8
    rng = np.random.default_rng(0)
    for _ in range(50):
        psi = random_pure((2, 2), rng)
        lam = np.sort(schmidt_spectrum(psi, (0,)))[::-1]
        expected = 2.0 * np.sqrt(lam[0] * lam[1])
        assert abs(concurrence_pure(psi, b) - expected) < 1e-10


def test_concurrence_two_qubit_reference_values():
    assert abs(concurrence_two_qubit(bell().density()) - 1.0) < 1e-12
    assert concurrence_two_qubit(DensityMatrix(np.eye(4) / 4, (2, 2))) == 0.0
    # Werner state: C = max(0, (3p - 1) / 2)
    assert abs(concurrence_two_qubit(werner(2 / 3)) - 0.5) < 1e-10
    assert concurrence_two_qubit(werner(0.2)) == 0.0
    with pytest.raises(ValueError):
        concurrence_two_qubit(DensityMatrix(np.eye(4) / 4, (4,)))


def test_concurrence_two_qubit_vs_uhlmann_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        rho = random_density((2, 2), rank=int(rng.integers(1, 5)), seed=rng)
        # the sqrtm-based oracle is itself only good to ~1e-8
        assert abs(concurrence_two_qubit(rho) - oracle_concurrence(rho)) < 1e-7


def test_h_endpoints_and_shape():
    assert h(0.0) == 0.0
    assert abs(h(1.0) - 1.0) < 1e-12
    xs = np.linspace(0.01, 0.99, 99)
    ys = h(xs)
    assert np.all(np.diff(ys) > 0)            # increasing
    assert np.all(np.diff(ys, 2) > 0)         # convex
    with pytest.raises(ValueError):
        h(1.5)
    with pytest.raises(ValueError):
        h(np.nan)


def test_e_t_pure_reference_values():
    b = cut((2, 2), (0,))
    assert abs(e_t_pure(bell(), b) - 1.0) < 1e-12
    prod = tensor(PureState([1, 0], (2,)), PureState([1, 0], (2,)))
    assert e_t_pure(prod, b) < 1e-10
    assert abs(s_total_pure(bell(), b) - 2.0) < 1e-12


def test_e_t_pure_equals_h_of_concurrence_for_2xd():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        for _ in range(30):
            psi = random_pure((2, d), rng)
            b = cut(psi, (0,))
            assert abs(e_t_pure(psi, b) - h(concurrence_pure(psi, b))) < 1e-10


def test_e_t_pure_local_unitary_invariance():
    from dualentropy import random_unitary
    rng = np.random.default_rng(3)
    for _ in range(20):
        psi = random_pure((2, 3), rng)
        u = np.kron(random_unitary(2, rng), random_unitary(3, rng))
        rotated = PureState(u @ psi.amplitudes, (2, 3))
        b = cut(psi, (0,))
        assert abs(e_t_pure(psi, b) - e_t_pure(rotated, b)) < 1e-10


def test_two_qubit_closed_forms():
    assert abs(e_t_two_qubit(bell().density()) - 1.0) < 1e-12
    assert e_t_two_qubit(DensityMatrix(np.eye(4) / 4, (2, 2))) == 0.0
    assert abs(e_t_two_qubit(werner(2 / 3)) - h(0.5)) < 1e-10
    assert abs(eof_two_qubit(werner(2 / 3)) - h(0.5)) < 1e-10


def test_eof_pure():
    b = cut((2, 2), (0,))
    assert abs(eof_pure(bell(), b) - 1.0) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(20):
        psi = random_pure((2, 4), rng)
        bp = cut(psi, (0,))
        lam = schmidt_spectrum(psi, (0,))
        lam = lam[lam > 0]
        assert abs(eof_pure(psi, bp) + np.sum(lam * np.log2(lam))) < 1e-10


def test_f_q_identity_and_endpoints():
    xs = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(f_q(xs, 2.0) - xs ** 2)) < 1e-12
    assert f_q(0.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        f_q(0.5, 1.0)
    with pytest.raises(ValueError):
        f_q(np.nan, 2.0)


def test_t_q_pure_equals_f_q_of_concurrence():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for _ in range(25):
            psi = random_pure((2, d), rng)
            b = cut(psi, (0,))
            q = float(rng.uniform(0.3, 4.0))
            if abs(q - 1.0) < 1e-2:
                continue
            assert abs(t_q_pure(psi, b, q)
                       - f_q(concurrence_pure(psi, b), q)) < 1e-10


def test_t_q_two_qubit_only_inside_its_valid_range():
    lo, hi = T_Q_TWO_QUBIT_RANGE
    assert abs(lo - 0.697224362) < 1e-9 and abs(hi - 4.302775638) < 1e-9
    rho = werner(0.8)
    for q in (lo, 0.8, 2.0, 4.0, hi):
        assert t_q_two_qubit(rho, q) == f_q(concurrence_two_qubit(rho), q)
    for q in (0.3, lo - 1e-9, hi + 1e-9, 8.0, np.nan):
        with pytest.raises(ValueError, match="two-qubit roof only for q in"):
            t_q_two_qubit(rho, q)


def test_t_q_two_qubit_and_normalized_variant():
    assert abs(t_q_two_qubit(bell().density(), 2.0) - 1.0) < 1e-12
    b = cut((2, 2), (0,))
    assert abs(t_q_pure_normalized(bell(), b, 2.0) - 1.0) < 1e-12
    prod = tensor(PureState([1, 0], (2,)), PureState([1, 0], (2,)))
    assert t_q_pure(prod, b, 2.0) < 1e-12


# cuts 2x2, 2x3, 3x2, 3x3 and one that splits three parties
SPECTRAL_CUTS = [((2, 2), (0,)), ((2, 3), (0,)), ((3, 2), (0,)), ((3, 3), (0,)),
                 ((2, 3, 2), (0, 2))]
PURE_MEASURES = {
    "e_t": e_t_pure, "eof": eof_pure, "concurrence": concurrence_pure,
    "s_total": s_total_pure, "t_q": lambda p, b: t_q_pure(p, b, 1.5),
    "t_q_normalized": lambda p, b: t_q_pure_normalized(p, b, 0.8, explicit(3)),
}


@pytest.mark.parametrize("name", sorted(PURE_MEASURES))
@pytest.mark.parametrize("dims, side_a", SPECTRAL_CUTS)
@settings(max_examples=5)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_measures_on_a_schmidt_stack_equal_those_on_its_states(dims, side_a, name, n,
                                                                seed):
    rng = np.random.default_rng(seed)
    stack = PureState(np.array([random_pure(dims, rng).amplitudes for _ in range(n)]),
                       dims)
    b = cut(dims, side_a)
    spectral = SchmidtStack(schmidt_spectrum(stack, side_a), side_a)
    got, slope = PURE_MEASURES[name](spectral, b)
    want = PURE_MEASURES[name](stack, b)
    assert got.shape == (n,) and slope.shape == spectral.spectra.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dims", [(1, 4), (4, 1), (1, 2, 3)], ids=lambda d: "x".join(map(str, d)))
def test_a_cut_with_a_side_of_dim_one_gives_zero_under_every_norm(dims):
    # side A is the first party, of dim 1 in (1, 4) and (1, 2, 3), or the
    # last two parties, of dim 1 in (4, 1)
    b = cut(dims, (0,) if dims[0] == 1 else (1,))
    psi = PureState(np.array([random_pure(dims, np.random.default_rng(s)).amplitudes
                              for s in range(3)]), dims)
    spectral = SchmidtStack(schmidt_spectrum(psi, b.side_a), b.side_a)
    for norm in (MIN_DIM, DIM_A, DIM_B, explicit(3)):
        for measure in (lambda p: e_t_pure(p, b, norm),
                        lambda p: t_q_pure_normalized(p, b, 0.8, norm)):
            assert np.max(np.abs(measure(psi))) <= 1e-13
            value, slope = measure(SchmidtStack(np.ones((3, 1)), b.side_a))
            assert np.array_equal(value, np.zeros(3)) and slope.shape == (3, 1)
            assert np.array_equal(measure(spectral)[0], measure(psi))
