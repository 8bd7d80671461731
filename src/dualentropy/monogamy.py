"""Residual tangles, monogamy checks, and the reference tripartite scenarios.

``example3_state`` (a 4x2x2 chain of two entangled pairs; examples 3, 5, 6)
and ``example4_state`` (a fixed 6x3x3 state with maximally mixed first
marginal) are the canonical worked scenarios. Their closed forms are entropy
functionals of a few declared marginal spectra: every pure-state
decomposition of the relevant two-party marginals shares a single Schmidt
spectrum (HJW flatness), which the convex-roof optimizer can cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import UNIT_TOL, shannon, total_classical, tsallis_total
from .measures import Bipartition, norm_factor
from .states import DensityMatrix, PureState, permute_subsystems, reduced_state

DEFAULT_GAMMAS = (0.5, 1.0, 2.0, 3.0, 5.0)
# the q grid of scan_example6: 32 values, none at the excluded q = 1
EXAMPLE6_QS = np.concatenate([np.linspace(0.2, 0.9, 8), np.linspace(1.1, 5.0, 24)])


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
    return PureState(amps.ravel(), (4, 2, 2))


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
    return PureState(amps.ravel(), (6, 3, 3))


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

def _example3_spectra(alpha, beta):
    """Spectra (a^2, b^2, a^2, b^2) / 2, (a^2, b^2), (1/2, 1/2) of the chain state's
    rho_A, rho_B, rho_C, one row per (alpha, beta); the last two are also the
    Schmidt spectra of every pure component of rho_AB and rho_AC.
    """
    b = np.stack(np.broadcast_arrays(np.square(alpha), np.square(beta)), axis=-1)
    return np.concatenate([b, b], axis=-1) / 2.0, b, np.full_like(b, 0.5)


def e_t_example3_one_to_group(alpha: float, beta: float) -> float:
    """E_t(A|BC) = S^t(rho_A) / r(4) for the 4x2x2 chain state.

    Elementwise over arrays of (alpha, beta).
    """
    return total_classical(_example3_spectra(alpha, beta)[0]) / norm_factor(4)


def pairwise_e_t_example3(alpha: float, beta: float) -> tuple[float, float]:
    """(E_t(rho_AB), E_t(rho_AC)) with the per-term normalization r(4).

    Both roofs are flat, with the rho_B and rho_C spectra.
    Elementwise over arrays of (alpha, beta).
    """
    _, spec_b, spec_c = _example3_spectra(alpha, beta)
    return total_classical(spec_b) / norm_factor(4), total_classical(spec_c) / norm_factor(4)


def eof_example3(alpha: float, beta: float) -> tuple[float, float, float]:
    """(E_f(A|BC), E_f(rho_AB), E_f(rho_AC)) closed forms for the chain state.

    Shannon entropies of the rho_A, rho_B, rho_C spectra.
    Elementwise over arrays of (alpha, beta).
    """
    return tuple(shannon(spec) for spec in _example3_spectra(alpha, beta))


def pairwise_e_t_example4() -> tuple[float, float]:
    """Both pairwise E_t values of the 6x3x3 scenario, normalized by r(3).

    Every decomposition component of either two-party marginal has the
    spectrum (1/2, 1/4, 1/4), so the roof is flat.
    """
    val = total_classical([0.5, 0.25, 0.25]) / norm_factor(3)
    return val, val


def example5_report() -> ScanResult:
    """Marginal entanglements and polygon residual for the 4x2x2 chain state.

    E_A, E_B and E_C are S^t of the rho_A, rho_B and rho_C spectra over the
    per-term normalizations r(4), r(2), r(2) that match the published
    marginal values; tau = E(A|BC) - E(B|AC) - E(C|AB).
    """
    thetas = np.linspace(0.0, np.pi / 2.0, 101)
    spec_a, spec_b, spec_c = _example3_spectra(np.cos(thetas), np.sin(thetas))
    e_a = total_classical(spec_a) / norm_factor(4)
    e_b = total_classical(spec_b) / norm_factor(2)
    e_c = total_classical(spec_c) / norm_factor(2)
    taus = e_a - e_b - e_c
    meta = {"family": "example5", "measure": "e_t",
            "norms": "A:explicit:4 B:explicit:2 C:explicit:2"}
    return ScanResult({"theta": thetas, "E_A": e_a, "E_B": e_b, "E_C": e_c},
                      taus, meta)


def example6_values(theta: float, q: float) -> tuple[float, float, float]:
    """(T^t_q(A|BC), T^t_q(rho_AB), T^t_q(rho_AC)) evaluated from spectra.

    The pairwise roofs are flat, with the rho_B and rho_C spectra.
    Elementwise over arrays of theta and q that broadcast together.
    """
    return tuple(tsallis_total(spec, q)
                 for spec in _example3_spectra(np.cos(theta), np.sin(theta)))


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


def power_crossover(a: float, b_list):
    """Smallest integer exponent 1..100 with a^alpha > sum_i b_i^alpha, or None.

    Values may exceed 1 by UNIT_TOL, as a rounded E_t of a maximally entangled state can.
    """
    if not 0 < a <= 1 + UNIT_TOL or any(not 0 < b <= 1 + UNIT_TOL for b in b_list):
        raise ValueError("values must lie in (0, 1]")
    for alpha in range(1, 101):
        if a ** alpha > sum(b ** alpha for b in b_list):
            return alpha
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

    Values come from the marginal spectra (see ``example6_values``), which
    are evaluated once per (theta, q); gamma enters only the residual. At
    gamma = 1 the residual is non-positive over the whole grid, so the
    sign changes only show up at the larger exponents in the gamma grid.
    """
    if thetas is None:
        thetas = np.linspace(0.01, np.pi / 2.0 - 0.01, 61)
    if qs is None:
        qs = EXAMPLE6_QS
    th, q, gm = np.meshgrid(thetas, qs, _check_gammas(gammas), indexing="ij")
    values = example6_values(*np.meshgrid(thetas, qs, indexing="ij"))
    group, t_ab, t_ac = (v[..., None] for v in values)
    taus = group ** gm - t_ab ** gm - t_ac ** gm
    axes = {"theta": th.ravel(), "q": q.ravel(), "gamma": gm.ravel()}
    meta = {"family": "example6", "measure": "t_q_total", "source": "spectra",
            "gammas": list(gammas)}
    return ScanResult(axes, taus.ravel(), meta)
