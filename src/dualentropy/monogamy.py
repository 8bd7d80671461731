"""Residual tangles, monogamy checks, and the reference tripartite scenarios.

``example3_state`` (a 4x2x2 chain of two entangled pairs) and
``example4_state`` (a fixed 6x3x3 state with maximally mixed first
marginal) are the canonical worked scenarios; their pairwise entanglements
have closed forms because every pure-state decomposition of the relevant
two-party marginals shares a single Schmidt spectrum (HJW flatness), which
the convex-roof optimizer can cross-check numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import _xlog2x, shannon, tsallis_total
from .measures import Bipartition, norm_factor
from .states import DensityMatrix, PureState, permute_subsystems, reduced_state

DEFAULT_GAMMAS = (0.5, 1.0, 2.0, 3.0, 5.0)


@dataclass(frozen=True)
class ResidualReport:
    """One-to-group value vs pairwise values at exponent gamma."""

    focus: int
    gamma: float
    one_to_group: float
    pairwise: tuple[tuple[int, float], ...]
    tau: float

    @staticmethod
    def build(focus, gamma, one_to_group, pairwise) -> "ResidualReport":
        tau = one_to_group ** gamma - sum(v ** gamma for _, v in pairwise)
        return ResidualReport(focus, float(gamma), float(one_to_group),
                              tuple(pairwise), float(tau))


@dataclass
class ScanResult:
    """Flat table of residual values over a parameter grid."""

    axes: dict[str, np.ndarray]
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.values)
        for name, col in self.axes.items():
            if len(col) != n:
                raise ValueError(f"axis {name!r} has {len(col)} entries, expected {n}")

    def columns(self) -> list[str]:
        return list(self.axes) + ["tau"]

    def rows(self) -> list[list[float]]:
        cols = [np.asarray(c) for c in self.axes.values()]
        return [[float(c[i]) for c in cols] + [float(v)]
                for i, v in enumerate(self.values)]


def example3_state(alpha: float, beta: float) -> PureState:
    """Chain state on dims (4, 2, 2): (alpha|000> + beta|110> + alpha|201> + beta|311>)/sqrt(2)."""
    if abs(alpha * alpha + beta * beta - 1.0) > 1e-10:
        raise ValueError("alpha^2 + beta^2 must equal 1")
    amps = np.zeros((4, 2, 2), dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    amps[0, 0, 0] = s * alpha
    amps[1, 1, 0] = s * beta
    amps[2, 0, 1] = s * alpha
    amps[3, 1, 1] = s * beta
    return PureState(amps, (4, 2, 2))


def example3_family(theta: float) -> PureState:
    """The same family parameterized as alpha = cos(theta), beta = sin(theta)."""
    return example3_state(np.cos(theta), np.sin(theta))


def example4_state() -> PureState:
    """Fixed state on dims (6, 3, 3) whose first marginal is 1/6."""
    amps = np.zeros((6, 3, 3), dtype=complex)
    w = 1.0 / (2.0 * np.sqrt(3.0))
    for abc in [(0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 1, 0), (2, 0, 1)]:
        amps[abc] = w
    v = 1.0 / np.sqrt(6.0)
    for abc in [(3, 0, 0), (4, 1, 1), (5, 2, 2)]:
        amps[abc] = v
    return PureState(amps, (6, 3, 3))


def pairwise_marginal(psi: PureState, focus: int, other: int) -> DensityMatrix:
    """Two-party reduced state with the focus party as the first factor."""
    rho = reduced_state(psi, {focus, other})
    if focus > other:
        rho = permute_subsystems(rho, [1, 0])
    return rho


def residual_tangle(psi: PureState, focus: int, one_to_group, pairwise,
                    gamma: float = 1.0) -> ResidualReport:
    """tau = E(focus|rest)^gamma - sum_i E(focus,i)^gamma.

    ``one_to_group(psi, bipartition)`` scores the focus-vs-rest cut;
    ``pairwise(rho)`` scores each two-party marginal (focus first).
    A nonnegative tau classifies the state as monogamous for this measure.
    """
    n = len(psi.dims)
    if n < 3:
        raise ValueError("residual tangle needs at least 3 parties")
    bip = Bipartition.of(psi.dims, (focus,))
    group = one_to_group(psi, bip)
    pairs = []
    for other in range(n):
        if other == focus:
            continue
        pairs.append((other, float(pairwise(pairwise_marginal(psi, focus, other)))))
    return ResidualReport.build(focus, gamma, group, pairs)


# --- closed forms for the reference scenarios ------------------------------

def e_t_example3_one_to_group(alpha: float, beta: float) -> float:
    """E_t(A|BC) = (a + b + 4) / r(4) for the 4x2x2 chain state.

    Elementwise over arrays of (alpha, beta).
    """
    a2, b2 = alpha * alpha, beta * beta
    x = _xlog2x(np.array([a2, 2.0 - a2, b2, 2.0 - b2], dtype=float))
    a = -x[0] - x[1]
    b = -x[2] - x[3]
    return (a + b + 4.0) / norm_factor(4)


def pairwise_e_t_example3(alpha: float, beta: float) -> tuple[float, float]:
    """(E_t(rho_AB), E_t(rho_AC)) with the per-term normalization r(4).

    Both follow from decomposition flatness: every pure-state component of
    rho_AB has B-marginal diag(alpha^2, beta^2), and of rho_AC has C-marginal 1/2.
    Elementwise over arrays of (alpha, beta).
    """
    e_ab = 2.0 * shannon(np.stack([alpha * alpha, beta * beta], axis=-1)) / norm_factor(4)
    e_ac = 2.0 / norm_factor(4)
    return e_ab, e_ac


def eof_example3(alpha: float, beta: float) -> tuple[float, float, float]:
    """(E_f(A|BC), E_f(rho_AB), E_f(rho_AC)) closed forms for the chain state.

    Elementwise over arrays of (alpha, beta).
    """
    shared = shannon(np.stack([alpha * alpha, beta * beta], axis=-1))
    return shared + 1.0, shared, 1.0


def pairwise_e_t_example4() -> tuple[float, float]:
    """Both pairwise E_t values of the 6x3x3 scenario, normalized by r(3).

    Every decomposition component of either two-party marginal has the
    spectrum (1/2, 1/4, 1/4), so the roof is flat.
    """
    st = 1.0 + 2.0 * (2.0 - 0.75 * np.log2(3.0))  # g(1/2) + 2 g(1/4)
    val = st / norm_factor(3)
    return val, val


def example6_values(theta: float, q: float) -> tuple[float, float, float]:
    """(T^t_q(A|BC), T^t_q(rho_AB), T^t_q(rho_AC)) evaluated from spectra.

    The one-to-group marginal spectrum is (a^2/2, a^2/2, b^2/2, b^2/2); the
    pairwise roofs are flat with spectra (a^2, b^2) and (1/2, 1/2).
    Elementwise over arrays of theta and q that broadcast together.
    """
    a2 = np.cos(theta) ** 2
    b2 = 1.0 - a2
    group = tsallis_total(np.stack([a2 / 2, a2 / 2, b2 / 2, b2 / 2], axis=-1), q)
    t_ab = tsallis_total(np.stack([a2, b2], axis=-1), q)
    t_ac = tsallis_total([0.5, 0.5], q)
    return group, t_ab, t_ac


def example6_closed_form(theta: float, q: float) -> tuple[float, float, float]:
    """Published closed forms for the same quantities.

    These disagree with the direct spectrum evaluation for generic q (the
    one-to-group exponents look off by one power and the pairwise terms are
    missing the 1/(q-1) factor); kept only for comparison, never asserted.
    """
    a2 = np.cos(theta) ** 2
    b2 = 1.0 - a2
    c = a2 ** (q - 1) + b2 ** (q - 1)
    d = (2.0 - a2) ** (q - 1) + (2.0 - b2) ** (q - 1)
    group = (2.0 ** (q + 1) - c - d) / (2.0 ** (q - 1) * (q - 1))
    t_ab = 2.0 * (1.0 - a2 ** q - b2 ** q)
    t_ac = 2.0 * (1.0 - 2.0 ** (1 - q))
    return group, t_ab, t_ac


def power_crossover(a: float, b_list, alpha_range=range(1, 101)):
    """Smallest integer exponent with a^alpha > sum_i b_i^alpha, or None."""
    if not 0 < a <= 1 or any(not 0 < b <= 1 for b in b_list):
        raise ValueError("values must lie in (0, 1]")
    for alpha in alpha_range:
        if a ** alpha > sum(b ** alpha for b in b_list):
            return int(alpha)
    return None


# --- grid scans -------------------------------------------------------------

def _check_gammas(gammas) -> np.ndarray:
    gammas = np.asarray(gammas, dtype=float)
    if not np.all(np.isfinite(gammas)):
        raise ValueError(f"gamma must be finite, got {gammas}")
    return gammas


def scan_example3(measure: str = "e_t", gamma: float = 1.0,
                  thetas=None) -> ScanResult:
    """Residual tau over the chain-state family, with per-term closed forms.

    ``measure`` is "e_t" (normalization r(4) on every term) or "eof".
    """
    if thetas is None:
        thetas = np.linspace(0.0, np.pi / 2.0, 101)
    thetas = np.asarray(thetas, dtype=float)
    _check_gammas(gamma)
    alpha, beta = np.cos(thetas), np.sin(thetas)
    if measure == "e_t":
        group = e_t_example3_one_to_group(alpha, beta)
        ab, ac = pairwise_e_t_example3(alpha, beta)
    elif measure == "eof":
        group, ab, ac = eof_example3(alpha, beta)
    else:
        raise ValueError(f"unknown measure {measure!r}")
    taus = group ** gamma - ab ** gamma - ac ** gamma
    meta = {"family": "example3", "measure": measure, "gamma": gamma,
            "norm": "explicit:4" if measure == "e_t" else "none"}
    return ScanResult({"theta": thetas}, taus, meta)


def scan_example6(thetas=None, qs=None, gammas=DEFAULT_GAMMAS) -> ScanResult:
    """Residual tau of the Tsallis-total measure over a (theta, q, gamma) grid.

    Values come from the marginal spectra (see ``example6_values``); at
    gamma = 1 the residual is non-positive over the whole grid, so the
    sign changes only show up at the larger exponents in the gamma grid.
    """
    if thetas is None:
        thetas = np.linspace(0.01, np.pi / 2.0 - 0.01, 61)
    if qs is None:
        qs = np.concatenate([np.linspace(0.2, 0.9, 8), np.linspace(1.1, 5.0, 24)])
    th, q, gm = np.meshgrid(thetas, qs, _check_gammas(gammas), indexing="ij")
    group, t_ab, t_ac = example6_values(th, q)
    taus = group ** gm - t_ab ** gm - t_ac ** gm
    axes = {"theta": th.ravel(), "q": q.ravel(), "gamma": gm.ravel()}
    meta = {"family": "example6", "measure": "t_q_total", "source": "spectra",
            "gammas": list(gammas)}
    return ScanResult(axes, taus.ravel(), meta)
