"""State containers and linear-algebra primitives.

Pure states and density matrices carry an explicit subsystem-dimension
signature ``dims``; subsystem 0 is the leftmost tensor factor in row-major
ordering. All containers are immutable after construction and every
operation is a pure function, so everything here is safe to call from
concurrent workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
PSD_TOL = 1e-10
SPECTRUM_SUM_TOL = 1e-8
EIG_CLAMP = 1e-10


class StateValidationError(ValueError):
    """Raised when a state container violates its invariants."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _check_dims(dims: Sequence[int], size: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise StateValidationError(f"invalid subsystem dimensions {dims}")
    if math.prod(dims) != size:
        raise StateValidationError(
            f"product of dims {dims} does not match size {size}")
    return dims


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a tensor-product space."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = _freeze(np.ravel(self.amplitudes))
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _check_dims(self.dims, amps.size))
        norm = np.linalg.norm(amps)
        if not abs(norm * norm - 1.0) <= NORM_TOL:  # also rejects NaN and inf
            raise StateValidationError(f"state not normalized: |psi|^2 = {norm**2}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()), self.dims)


@dataclass(frozen=True)
class PureStack:
    """A stack of normalized amplitude vectors over one tensor-product space.

    ``amplitudes`` has shape (..., d); each vector along the last axis is one
    pure state, validated as a ``PureState`` would be. The pure-state
    measures accept a stack wherever they accept a ``PureState`` and return
    one value per state.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = _freeze(self.amplitudes)
        if amps.ndim < 1:
            raise StateValidationError("a stack needs amplitudes of shape (..., d)")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _check_dims(self.dims, amps.shape[-1]))
        sq = np.sum(amps.real ** 2 + amps.imag ** 2, axis=-1)
        if not np.all(np.abs(sq - 1.0) <= NORM_TOL):  # also rejects NaN and inf
            raise StateValidationError(
                f"stack not normalized: |psi|^2 in [{sq.min()}, {sq.max()}]")

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the stack: one entry per state."""
        return self.amplitudes.shape[:-1]


@dataclass(frozen=True)
class SchmidtStack:
    """Squared Schmidt coefficients of a stack of pure states across one cut.

    ``spectra`` has shape (..., k), one distribution per state, and
    ``side_a`` names side A of the cut they were taken across. The
    pure-state measures accept it wherever they accept a ``PureStack``:
    ``schmidt_spectrum`` returns its spectra. It holds no amplitudes, and
    reading ``amplitudes`` raises ValueError, so a measure that works on it
    depends on the Schmidt spectrum alone. The spectra are stored as given,
    without the normalization check of a ``PureStack``: the convex roof
    builds one per iteration from the spectra of validated members.
    """

    spectra: np.ndarray
    side_a: tuple[int, ...]

    def __post_init__(self):
        x = np.array(self.spectra, dtype=float)
        if x.ndim < 1:
            raise StateValidationError("a Schmidt stack needs spectra of shape (..., k)")
        x.setflags(write=False)
        object.__setattr__(self, "spectra", x)
        object.__setattr__(self, "side_a", _side(self.side_a))

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the stack: one entry per state."""
        return self.spectra.shape[:-1]

    @property
    def amplitudes(self):
        raise ValueError("a roof measure must depend only on the Schmidt spectrum "
                         "across the cut: it read the amplitudes of a SchmidtStack")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator with a subsystem signature."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateValidationError(f"matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _check_dims(self.dims, m.shape[0]))
        # written so that NaN fails every comparison
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL:
            raise StateValidationError("matrix is not Hermitian")
        if not abs(np.trace(m).real - 1.0) <= TRACE_TOL:
            raise StateValidationError(f"trace is {np.trace(m).real}, expected 1")
        # PSD check without diagonalizing: m + PSD_TOL * 1 has a Cholesky
        # factor iff every eigenvalue of m exceeds -PSD_TOL
        try:
            np.linalg.cholesky(m + PSD_TOL * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            raise StateValidationError(
                f"negative eigenvalue {np.linalg.eigvalsh(m).min()}") from None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues: the one eigendecomposition, made on first use."""
        w = np.linalg.eigvalsh(self.matrix)
        w.setflags(write=False)
        return w


def tensor(a, b):
    """Kronecker product of two states of the same kind.

    The result's ``dims`` is the concatenation of the operand dims.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    raise TypeError("tensor requires two PureState or two DensityMatrix operands")


def tensor_all(states: Iterable):
    return reduce(tensor, states)


def _side(side_a) -> tuple[int, ...]:
    """Side A of a cut, sorted and deduplicated."""
    return tuple(sorted(set(int(k) for k in side_a)))


def _cut(dims: tuple[int, ...], side_a, proper: bool = True):
    """Validate side A of a cut of the subsystems ``dims``.

    Returns (side_a, side_b): A sorted and deduplicated, B its ascending
    complement. A must be nonempty (ValueError) and index into ``dims``
    (IndexError); a ``proper`` cut also needs a nonempty B (ValueError).
    """
    side_a = _side(side_a)
    if not side_a:
        raise ValueError("side A of a cut must be nonempty")
    if side_a[0] < 0 or side_a[-1] >= len(dims):
        raise IndexError(f"subsystem index out of range for dims {dims}: {side_a}")
    side_b = tuple(i for i in range(len(dims)) if i not in side_a)
    if proper and not side_b:
        raise ValueError("side_a must be a proper subset of the subsystems")
    return side_a, side_b


def _cut_matrix(a: np.ndarray, dims: tuple[int, ...], side_a, proper: bool = True):
    """Validate a cut and regroup the leading axis of ``a`` as (d_A, d_B).

    The leading axis of ``a`` runs over the basis of ``dims`` (an amplitude
    vector, or the rows of an operator); trailing axes are kept. Returns the
    regrouped array and the dims of side A.
    """
    side_a, side_b = _cut(dims, side_a, proper)
    n, tail = len(dims), a.shape[1:]
    t = a.reshape(dims + tail).transpose(side_a + side_b + tuple(range(n, n + len(tail))))
    dims_a = tuple(dims[i] for i in side_a)
    return t.reshape((math.prod(dims_a), math.prod(dims[i] for i in side_b)) + tail), dims_a


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the kept subsystems (ascending index order)."""
    rows, dims_a = _cut_matrix(rho.matrix, rho.dims, keep, proper=False)
    d_a, d_b = rows.shape[:2]
    # regroup the columns too: t[a', b', a, b] = <a b| rho |a' b'>
    t, _ = _cut_matrix(rows.reshape(-1, rho.dim).T, rho.dims, keep, proper=False)
    red = np.einsum("xjyj->yx", t.reshape(d_a, d_b, d_a, d_b))
    return DensityMatrix(red, dims_a)


def reduced_state(psi: PureState, keep) -> DensityMatrix:
    """Marginal of a pure state without forming the global density matrix."""
    m, dims_a = _cut_matrix(psi.amplitudes, psi.dims, keep, proper=False)
    return DensityMatrix(m @ m.conj().T, dims_a)


def permute_subsystems(rho: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Reorder tensor factors; ``perm[k]`` is the old index placed at slot k."""
    dims = rho.dims
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of {n} subsystems: {perm}")
    t = rho.matrix.reshape(dims + dims)
    t = t.transpose(perm + [n + p for p in perm])
    d = rho.dim
    return DensityMatrix(t.reshape(d, d), tuple(dims[p] for p in perm))


def spectrum(rho: DensityMatrix) -> np.ndarray:
    """Full eigenvalue spectrum, clamped to [0, 1], descending, renormalized.

    ``rho`` is diagonalized on the first call only. Eigenvalues in
    [-EIG_CLAMP, 0) and (1, 1 + EIG_CLAMP] are clamped to the nearest
    endpoint; larger excursions raise ``StateValidationError``.
    """
    w = rho._eigenvalues
    if w.min() < -EIG_CLAMP or w.max() > 1 + EIG_CLAMP:
        raise StateValidationError(f"eigenvalues outside [0,1]: [{w.min()}, {w.max()}]")
    w = np.clip(w, 0.0, 1.0)
    s = w.sum()
    if abs(s - 1.0) > SPECTRUM_SUM_TOL:
        raise StateValidationError(f"eigenvalue sum {s} too far from 1")
    return np.sort(w / s)[::-1]


def _gram2(m: np.ndarray):
    """Entries and eigenvalues of the 2 x 2 Gram matrices M M^dagger of m (..., 2, n).

    Returns p = |a|^2, q = |b|^2 and c = <b|a> for the rows a, b, so that
    M M^dagger = [[p, c], [c*, q]], and its eigenvalues hi >= lo >= 0 in
    closed form; the form with tr^2 - 4 det would cancel near the degenerate
    point 1/2.
    """
    pq = np.einsum("...ij,...ij->...i", m, m.conj()).real
    c = np.einsum("...j,...j->...", m[..., 0, :], m[..., 1, :].conj())
    p, q, cc = pq[..., 0], pq[..., 1], c.real ** 2 + c.imag ** 2
    hi = (p + q + np.sqrt((p - q) ** 2 + 4.0 * cc)) / 2.0
    return p, q, c, hi, np.maximum(p * q - cc, 0.0) / hi


def schmidt_spectrum(psi, side_a) -> np.ndarray:
    """Squared Schmidt coefficients: the spectrum of either marginal.

    ``psi`` is one ``PureState`` (result shape (k,)) or a ``PureStack`` of
    shape S (result shape S + (k,)), with k = min(d_A, d_B); the values are
    descending and >= 0. They are the eigenvalues of the k x k Gram matrix
    G = M M^dagger of the regrouped amplitudes M: in closed form for k = 2,
    else from one batched ``eigvalsh`` over the stack. A ``SchmidtStack``
    gives its own spectra, and ValueError when it was taken across another cut.
    """
    if isinstance(psi, SchmidtStack):
        if _side(side_a) != psi.side_a:
            raise ValueError(f"Schmidt spectra across side A {psi.side_a} asked for "
                             f"across side A {_side(side_a)}")
        return psi.spectra
    m, _ = _cut_matrix(psi.amplitudes.T, psi.dims, side_a)
    # the batch axes of a stack come out reversed and behind (d_A, d_B)
    m = m.transpose(tuple(range(m.ndim - 1, 1, -1)) + (0, 1))
    if m.shape[-2] > m.shape[-1]:
        m = m.swapaxes(-1, -2)
    if m.shape[-2] == 2:
        return np.stack(_gram2(m)[3:], axis=-1)
    gram = m @ m.conj().swapaxes(-1, -2)
    return np.maximum(np.linalg.eigvalsh(gram)[..., ::-1], 0.0)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    m = rho.matrix
    return float(np.real(np.sum(m * m.T)))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex-Gaussian matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def random_pure(dims, seed=None) -> PureState:
    """Haar-style random pure state; deterministic for a fixed seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = math.prod(dims)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), tuple(dims))


def random_density(dims, rank=None, seed=None) -> DensityMatrix:
    """Random mixed state of bounded rank from a traced-out purification."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dims = tuple(dims)
    d = math.prod(dims)
    if rank is None:
        rank = d
    rank = int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    v = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    v /= np.linalg.norm(v)
    return DensityMatrix(v @ v.conj().T, dims)


# --- JSON wire format: {dims: [int], re: [float], im: [float]} ------------

def state_to_json(state) -> dict:
    if isinstance(state, PureState):
        flat = state.amplitudes
    elif isinstance(state, DensityMatrix):
        flat = state.matrix.ravel()
    else:
        raise TypeError(f"cannot serialize {type(state)}")
    return {
        "dims": list(state.dims),
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }


def state_from_json(obj: dict):
    """Rebuild a state; pure vs density is inferred from the payload length.

    A payload that is not an object, ``dims`` that is not a list of ints, or
    ``re``/``im`` that are not flat number lists of one length, or that hold
    an int beyond the float range, raise ``StateValidationError``.
    """
    if not isinstance(obj, dict):
        raise StateValidationError(f"a state payload is an object, got {type(obj).__name__}")
    dims, re, im = obj.get("dims"), obj.get("re"), obj.get("im")
    # json.load yields bool, str, None, list or dict for anything else
    if not (isinstance(dims, list) and all(type(d) is int for d in dims)):
        raise StateValidationError("'dims' must be a list of ints")
    for key, v in (("re", re), ("im", im)):
        if not (isinstance(v, list) and all(type(x) in (int, float) for x in v)):
            raise StateValidationError(f"{key!r} must be a flat list of numbers")
    if len(re) != len(im):
        raise StateValidationError(f"'re' has {len(re)} entries but 'im' has {len(im)}")
    dims = tuple(dims)
    try:
        flat = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    except OverflowError:  # an int literal beyond the float range
        raise StateValidationError("'re'/'im' hold a number too large for a float") from None
    d = math.prod(dims)
    if flat.size == d:
        return PureState(flat, dims)
    if flat.size == d * d:
        return DensityMatrix(flat.reshape(d, d), dims)
    raise StateValidationError(
        f"payload length {flat.size} matches neither vector ({d}) nor matrix ({d*d})")


def load_state(path):
    with open(path) as fh:
        return state_from_json(json.load(fh))
