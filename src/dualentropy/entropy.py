"""Classical and quantum entropy functionals.

The total entropy family (Shannon + its complementary dual) uses log base 2
throughout; the Tsallis family is base-free via the q-logarithm. The
conventions 0*log 0 = 0 and 0*ln_q 0 = 0 are applied everywhere. The classical
functionals take one distribution p and return a float, or a stack of shape
(..., k) and return one value per row; q may be an array over the rows.
"""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, spectrum

PROB_TOL = 1e-8
UNIT_TOL = 1e-12

# The validators below are written so that NaN fails their checks.


def _probs(p) -> np.ndarray:
    """Distributions along the last axis of p: checked, clipped to [0, 1], renormalized."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all((p >= -PROB_TOL) & (p <= 1 + PROB_TOL)):
        raise ValueError(f"probabilities outside [0, 1]: [{p.min()}, {p.max()}]")
    p = np.clip(p, 0.0, 1.0)
    s = p.sum(axis=-1, keepdims=True)
    bad = ~(np.abs(s - 1.0) <= PROB_TOL)
    if np.any(bad):
        raise ValueError(f"probabilities sum to {s[bad][0]}, expected 1")
    return p / s


def _value(out):
    """A float for a 0-d result, else the array: one value per input."""
    return float(out) if np.ndim(out) == 0 else out


def _check_unit(x, name: str) -> np.ndarray:
    """``x`` as a float array, checked to lie in [0, 1] up to UNIT_TOL and clipped there."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -UNIT_TOL) & (x <= 1 + UNIT_TOL)):
        raise ValueError(f"{name}(x) requires x in [0, 1], got {x}")
    return np.clip(x, 0.0, 1.0)


def _log2(x: np.ndarray) -> np.ndarray:
    """Elementwise log2 x, masked to 0 where x <= 0: finite and warning-free."""
    return np.log2(x, out=np.zeros(x.shape), where=x > 0)


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """Elementwise x log2 x with 0 log2 0 = 0: the one kernel of the log-2 family."""
    return x * _log2(x)


def _total(x) -> np.ndarray:
    """Elementwise total-entropy kernel -x log2 x - (1-x) log2 (1-x).

    ``x`` is clipped to [0, 1] and not otherwise validated, so that the
    pure-state measures can call it on every Schmidt spectrum.
    """
    x = np.clip(x, 0.0, 1.0)
    return 0.0 - _xlog2x(x) - _xlog2x(1.0 - x)  # 0.0 - a: +0.0, never -0.0


def shannon(p):
    """H(p) = -sum p_i log2 p_i, in bits."""
    return _value(0.0 - np.sum(_xlog2x(_probs(p)), axis=-1))


def extropy(p):
    """Complementary dual of Shannon entropy: -sum (1-p_i) log2 (1-p_i)."""
    return _value(0.0 - np.sum(_xlog2x(1.0 - _probs(p)), axis=-1))


def total_classical(p):
    """H^t(p) = H(p) + extropy(p) = sum_i g(p_i)."""
    return _value(np.sum(_total(_probs(p)), axis=-1))


def g(x):
    """Binary entropy g(x) = -x log2 x - (1-x) log2 (1-x) on [0, 1]."""
    return _value(_total(_check_unit(x, "g")))


def von_neumann(rho: DensityMatrix) -> float:
    """S(rho) = -Tr rho log2 rho."""
    return shannon(spectrum(rho))


def s_total(rho: DensityMatrix) -> float:
    """Total entropy S^t(rho) = -Tr[rho log2 rho + (1-rho) log2 (1-rho)].

    Equals the classical total entropy of the full eigenvalue spectrum;
    zero eigenvalues contribute nothing. Range is [0, d log2 d -
    (d-1) log2 (d-1)], with the maximum attained by the maximally mixed
    state and the minimum by pure states.
    """
    return total_classical(spectrum(rho))


def _check_q(q):
    """q as a float, or as an array of q values; each must be positive and != 1."""
    q = np.asarray(q, dtype=float)
    ok = (q > 0) & (q < np.inf) & (q != 1.0)
    if not np.all(ok):
        raise ValueError(f"q must be positive and != 1, got {np.unique(q[~ok]).tolist()}")
    return _value(q)


def q_log(x, q) -> float:
    """q-logarithm ln_q(x) = (1 - x^(1-q)) / (q - 1) for x > 0."""
    q = _check_q(q)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("q_log requires x > 0")
    return _value((1.0 - x ** (1.0 - q)) / (q - 1.0))


def tsallis(p, q):
    """Tsallis entropy T_q(p) = (1 - sum p_i^q) / (q - 1)."""
    q = _check_q(q)
    return _value((1.0 - np.sum(_probs(p) ** np.expand_dims(q, -1), axis=-1)) / (q - 1.0))


def tsallis_dual(p, q):
    """Complementary dual: (sum (1-p_i) - sum (1-p_i)^q) / (q - 1)."""
    q = _check_q(q)
    r = 1.0 - _probs(p)
    rq = r ** np.expand_dims(q, -1)  # q meets the last axis of a stack
    return _value((np.sum(r, axis=-1) - np.sum(rq, axis=-1)) / (q - 1.0))


def tsallis_total(p, q):
    """T^t_q(p) = T_q + dual = sum_i (1 - p_i^q - (1-p_i)^q) / (q - 1)."""
    q = _check_q(q)
    p, qa = _probs(p), np.expand_dims(q, -1)
    return _value(np.sum(1.0 - p ** qa - (1.0 - p) ** qa, axis=-1) / (q - 1.0))


def t_total_q(rho: DensityMatrix, q) -> float:
    """Operator form: [1 - Tr rho^q - Tr(1-rho)^q + Tr(1-rho)] / (q-1).

    Evaluated on the spectrum, where it reduces to ``tsallis_total``.
    """
    return tsallis_total(spectrum(rho), q)
