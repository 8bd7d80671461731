from functools import reduce

import numpy as np
import pytest

from dualentropy import (H5_COUPLINGS, H6_COUPLINGS, PureState,
                         SpinHamiltonian, default_cuts, entropy_trajectory,
                         evolve, heisenberg, plus_state, random_fields,
                         schmidt_spectrum, shannon, total_classical)
from dualentropy.dynamics import MAX_QUBITS

PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))


def kron_reference(ham):
    """Dense H from Kronecker products of Pauli matrices, term by term."""
    def site(op, k):
        return reduce(np.kron, [op if q == k else np.eye(2) for q in range(ham.n)])
    h = sum(s * site(p, i) @ site(p, j) for i, j, s in ham.couplings for p in PAULIS)
    return h + sum(f * site(PAULIS[2], k) for k, f in enumerate(ham.fields))


def random_chain(n, rng):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    return heisenberg(n, [(i, j, rng.normal()) for i, j in pairs], rng.uniform(-1, 1, n))


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        heisenberg(MAX_QUBITS + 1, (), (0.0,) * (MAX_QUBITS + 1))
    with pytest.raises(IndexError):
        heisenberg(3, ((0, 3, 1.0),), (0.0,) * 3)
    with pytest.raises(IndexError):
        heisenberg(3, ((1, 1, 1.0),), (0.0,) * 3)
    with pytest.raises(ValueError):
        heisenberg(3, (), (0.0,) * 2)


def test_two_site_heisenberg_spectrum():
    ham = heisenberg(2, ((0, 1, 1.0),), (0.0, 0.0))
    w = np.sort(np.linalg.eigvalsh(ham.matrix()))
    # singlet at -3J, triplet at +J
    assert np.allclose(w, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_fields_only_hamiltonian_is_diagonal():
    ham = heisenberg(2, (), (0.7, -0.2))
    m = ham.matrix()
    assert np.allclose(m, np.diag(np.diagonal(m)), atol=1e-14)
    assert np.allclose(np.diagonal(m).real, [0.5, 0.9, -0.9, -0.5], atol=1e-12)


def test_swap_built_matrix_matches_kron_reference():
    hams = [heisenberg(5, H5_COUPLINGS, random_fields(5, 0)),
            heisenberg(6, H6_COUPLINGS, random_fields(6, 1))]
    rng = np.random.default_rng(11)
    hams += [random_chain(n, rng) for n in range(1, 7) for _ in range(3)]
    for ham in hams:
        assert np.max(np.abs(ham.matrix() - kron_reference(ham))) <= 1e-12, ham


def test_preset_hamiltonians_hermitian_traceless():
    for n, couplings in ((5, H5_COUPLINGS), (6, H6_COUPLINGS)):
        ham = heisenberg(n, couplings, random_fields(n, 0))
        m = ham.matrix()
        assert m.shape == (2 ** n, 2 ** n)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_random_fields_deterministic_in_range():
    f1 = random_fields(6, 3)
    f2 = random_fields(6, 3)
    assert f1 == f2
    assert all(-1.0 <= x <= 1.0 for x in f1)


def test_plus_state():
    psi = plus_state(3)
    assert psi.dims == (2, 2, 2)
    assert np.allclose(psi.amplitudes, np.full(8, 8 ** -0.5))
    for n in (0, MAX_QUBITS + 1, 40):
        with pytest.raises(ValueError):
            plus_state(n)


def test_evolve_equals_propagator_row():
    ham = random_chain(4, np.random.default_rng(2))
    psi0 = plus_state(4)
    times = np.array([0.0, 0.3, 2.5, 40.0])
    stack = evolve(psi0, ham, times)
    assert stack.shape == (4,)
    for t, row in zip(times, stack.amplitudes):
        assert np.max(np.abs(evolve(psi0, ham, t).amplitudes - row)) <= 1e-13


def test_evolve_identity_at_t0_and_unitarity():
    ham = heisenberg(3, ((0, 1, 0.5), (1, 2, -0.3)), random_fields(3, 1))
    psi0 = plus_state(3)
    assert np.allclose(evolve(psi0, ham, 0.0).amplitudes, psi0.amplitudes)
    psi_t = evolve(psi0, ham, 2.7)
    assert abs(np.linalg.norm(psi_t.amplitudes) - 1.0) < 1e-12


def test_evolve_conserves_energy():
    ham = heisenberg(4, ((0, 1, 0.5), (2, 3, -0.4)), random_fields(4, 2))
    m = ham.matrix()
    psi0 = plus_state(4)
    e0 = np.real(psi0.amplitudes.conj() @ m @ psi0.amplitudes)
    for t in (0.5, 3.0, 40.0):
        v = evolve(psi0, ham, t).amplitudes
        assert abs(np.real(v.conj() @ m @ v) - e0) < 1e-9


def test_default_cuts():
    cuts = default_cuts(5)
    assert cuts[:5] == [(0,), (1,), (2,), (3,), (4,)]
    assert cuts[-1] == (0, 1)


def test_trajectory_product_start_and_diagonal_hamiltonian():
    # z-fields only: |+...+> stays a product state, so S and S^t stay 0
    ham = heisenberg(3, (), (0.3, -0.8, 0.1))
    traj = entropy_trajectory(plus_state(3), ham, np.linspace(0, 5, 8))
    assert float(np.max(traj.entropies)) < 1e-10
    assert float(np.max(traj.total_entropies)) < 1e-10


def test_trajectory_inequality_and_shape():
    ham = heisenberg(5, H5_COUPLINGS, random_fields(5, 7))
    times = np.linspace(0.0, 20.0, 25)
    traj = entropy_trajectory(plus_state(5), ham, times)
    assert traj.entropies.shape == (25, 6)
    assert float(np.max(traj.entropies - traj.total_entropies)) <= 1e-9
    assert float(np.max(traj.total_entropies - 2 * traj.entropies)) <= 1e-9
    assert np.max(traj.entropies) > 0.1  # interactions do entangle the chain
    with pytest.raises(ValueError):
        entropy_trajectory(plus_state(5), ham, [0.0, 0.0, 1.0])
    assert entropy_trajectory(plus_state(5), ham, []).entropies.shape == (0, 6)


def test_trajectory_matches_per_sample_evaluation():
    ham = heisenberg(6, H6_COUPLINGS, random_fields(6, 4))
    psi0 = plus_state(6)
    times = np.linspace(0.0, 30.0, 7)
    traj = entropy_trajectory(psi0, ham, times)
    for ti, t in enumerate(times):
        psi_t = evolve(psi0, ham, t)
        for ci, cut_sites in enumerate(default_cuts(6)):
            lam = schmidt_spectrum(psi_t, cut_sites)
            assert abs(traj.entropies[ti, ci] - shannon(lam)) <= 1e-12
            assert abs(traj.total_entropies[ti, ci] - total_classical(lam)) <= 1e-12


def test_trajectory_csv():
    ham = heisenberg(2, ((0, 1, 1.0),), (0.0, 0.0))
    traj = entropy_trajectory(plus_state(2), ham, np.linspace(0, 1, 3))
    assert traj.metadata["n"] == 2
    assert traj.times.tolist() == [0.0, 0.5, 1.0]
    assert traj.entropies.shape == traj.total_entropies.shape == (3, len(traj.cut_labels))
