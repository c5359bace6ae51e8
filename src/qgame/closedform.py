"""Analytic payoff formulas for Battle of the Sexes under the two-angle scheme,
for every game of its form, alice = ((alpha, sigma), (sigma, beta)) and bob =
((beta, sigma), (sigma, alpha)) in any order, read from GameMatrix.bos.

payoff_general evaluates the full (gamma, delta) expression; the payoff_case_*
functions evaluate the specializations obtained by pinning some parameters
(measurement angle, phases, or the initial entanglement). Every function here
is cross-checkable against scheme.payoffs_oracle, which is the ground truth.

The delta = gamma = pi/2 shortcut circulating in the literature is shipped in
two variants: "printed" reproduces it exactly as published (its leading term
carries sin^2(phi1+phi2)), "corrected" carries cos^2(phi1+phi2) as obtained by
specializing the general expression. Only the corrected variant agrees with
simulation; see payoff_du_maximal.
"""

from __future__ import annotations

import math
import sys

from .scheme import (
    HALF_PI,
    MAX_PAYOFF,
    GameMatrix,
    PayoffPair,
    SchemeParams,
    StrategyParams,
    _check_interval,
    _strategy,
)

DU_FORMS = ("printed", "corrected")


def _require_bos(game: GameMatrix) -> tuple[float, float, float]:
    if (bos := game.bos) is None:  # read once: each read recomputes it from the cells
        raise ValueError("closed-form payoffs need a battle-of-sexes game (alpha, beta, sigma); "
                         "use the simulation path for general matrices")
    return bos


def _coefficients(alpha: float, beta: float, delta: float) -> tuple[float, float, float]:
    """bos_coefficients unchecked, at any float delta: payoff_case_c's is gamma - delta."""
    c2, s2 = math.cos(delta / 2) ** 2, math.sin(delta / 2) ** 2
    chi = 0.5 * (alpha - beta) * math.sin(delta)
    return alpha * c2 + beta * s2, alpha * s2 + beta * c2, chi


def bos_coefficients(alpha: float, beta: float, delta: float) -> tuple[float, float, float]:
    """(xi, eta, chi) for measurement angle delta in [0, pi/2]: payoff
    weights with xi + eta = alpha + beta, and interference weight chi.

    alpha and beta are bounded as payoff cells are, in either order: swapping
    them gives (eta, xi, -chi), which exchanges the players' roles."""
    label = f"[{-MAX_PAYOFF:g}, {MAX_PAYOFF:g}]"  # the payoff cells' bound
    return _coefficients(_check_interval("alpha", alpha, -MAX_PAYOFF, MAX_PAYOFF, label),
                         _check_interval("beta", beta, -MAX_PAYOFF, MAX_PAYOFF, label),
                         _check_interval("delta", delta, 0.0, HALF_PI, "[0, pi/2]"))


def _general(alpha, beta, sigma, gamma, delta, theta1, phi1, theta2, phi2):
    """Both players' general payoffs. delta is a scalar; gamma and the
    strategy angles are numbers or numpy arrays that broadcast together.
    Without an array among them (one profile) the trig comes from math, as
    numpy's cost per call would outweigh the arithmetic, and the payoffs are
    floats. alpha > beta is not required: swapping them exchanges the
    players' roles."""
    np = sys.modules.get("numpy")  # not imported: an array argument means it is loaded
    trig = np if np and np.ndarray in map(type, (gamma, theta1, phi1, theta2, phi2)) else math
    xi, eta, chi = _coefficients(alpha, beta, delta)
    cg2 = trig.cos(gamma / 2) ** 2
    sg2 = trig.sin(gamma / 2) ** 2
    sing = trig.sin(gamma)
    # Trig of each player's own angles only, so that on grids (one player's
    # angles along each axis) the transcendental calls are O(n), not O(n^2):
    # sin(phi1 + phi2) by the angle-sum identity, cos(2x) = 1 - 2 sin(x)^2.
    sin_p1, cos_p1 = trig.sin(phi1), trig.cos(phi1)
    sin_p2, cos_p2 = trig.sin(phi2), trig.cos(phi2)
    sin_t1, sin_t2 = trig.sin(theta1), trig.sin(theta2)
    # The strategy terms are squared as products, which is what an array's
    # ** 2 computes (a float's is a pow), so one profile gets the bits of a
    # one-element grid.
    c1, c2 = trig.cos(theta1 / 2), trig.cos(theta2 / 2)
    s1, s2 = trig.sin(theta1 / 2), trig.sin(theta2 / 2)
    cc = c1 * c1 * (c2 * c2)
    ss = s1 * s1 * (s2 * s2)
    sin_sum = sin_p1 * cos_p2 + cos_p1 * sin_p2
    cos2p = 1 - 2 * (sin_sum * sin_sum)
    # sin(theta1) sin(theta2) sin(phi1 + phi2)
    cross = (sin_t1 * sin_p1) * (sin_t2 * cos_p2) + (sin_t1 * cos_p1) * (sin_t2 * sin_p2)
    alice = (
        cc * (eta * sg2 + xi * cg2 + chi * cos2p * sing - sigma)
        + ss * (eta * cg2 + xi * sg2 - chi * sing - sigma)
        + ((alpha + beta - 2 * sigma) * sing - 2 * chi) / 4 * cross
        + sigma
    )
    bob = (
        cc * (xi * sg2 + eta * cg2 - chi * cos2p * sing - sigma)
        + ss * (xi * cg2 + eta * sg2 + chi * sing - sigma)
        + ((alpha + beta - 2 * sigma) * sing + 2 * chi) / 4 * cross
        + sigma
    )
    return alice, bob


def payoff_general(game: GameMatrix, scheme: SchemeParams, s1: StrategyParams,
                   s2: StrategyParams) -> PayoffPair:
    """Full closed form in gamma and delta; equals payoffs_oracle everywhere."""
    return PayoffPair(*_general(*_require_bos(game), scheme.gamma, scheme.delta,
                                *_strategy("s1", s1), *_strategy("s2", s2)))


def _marinatto_weber(alpha, beta, sigma, angle, theta1, theta2):
    """Probabilistic-tactics payoffs at measurement angle zero and phases zero."""
    c1 = math.cos(theta1 / 2) ** 2
    c2 = math.cos(theta2 / 2) ** 2
    xi, eta, _ = _coefficients(alpha, beta, angle)
    alice = (c1 * (c2 * (alpha + beta - 2 * sigma) - eta + sigma)
             + c2 * (-eta + sigma) + eta)
    bob = (c2 * (c1 * (alpha + beta - 2 * sigma) - xi + sigma)
           + c1 * (-xi + sigma) + xi)
    return alice, bob


def payoff_case_a_i(game: GameMatrix, gamma: float, theta1: float,
                    theta2: float) -> PayoffPair:
    """delta = 0, phi1 = phi2 = 0: probabilistic identity/flip tactics.

    Equivalent to Marinatto-Weber play with identity probabilities
    cos^2(theta_i / 2) on the gamma-entangled state.
    """
    gamma = _check_interval("gamma", gamma, 0.0, HALF_PI, "[0, pi/2]")
    theta1 = _check_interval("theta1", theta1, 0.0, math.pi, "[0, pi]")
    theta2 = _check_interval("theta2", theta2, 0.0, math.pi, "[0, pi]")
    return PayoffPair(*_marinatto_weber(*_require_bos(game), gamma, theta1, theta2))


def payoff_case_a_ii(game: GameMatrix, gamma: float, theta1: float,
                     theta2: float) -> PayoffPair:
    """delta = 0, phi1 + phi2 = pi/2: adds the entanglement interference term."""
    gamma = _check_interval("gamma", gamma, 0.0, HALF_PI, "[0, pi/2]")
    theta1 = _check_interval("theta1", theta1, 0.0, math.pi, "[0, pi]")
    theta2 = _check_interval("theta2", theta2, 0.0, math.pi, "[0, pi]")
    alpha, beta, sigma = _require_bos(game)
    alice, bob = _marinatto_weber(alpha, beta, sigma, gamma, theta1, theta2)
    shared = ((alpha + beta - 2 * sigma) / 4 * math.sin(gamma)
              * math.sin(theta1) * math.sin(theta2))
    return PayoffPair(alice + shared, bob + shared)


def payoff_case_b_i(game: GameMatrix, gamma: float, s1: StrategyParams,
                    s2: StrategyParams) -> PayoffPair:
    """delta = gamma: the Eisert-style regime with free phases."""
    gamma = _check_interval("gamma", gamma, 0.0, HALF_PI, "[0, pi/2]")
    alpha, beta, sigma = _require_bos(game)
    (theta1, phi1), (theta2, phi2) = _strategy("s1", s1), _strategy("s2", s2)
    xi1, eta1, _ = _coefficients(alpha, beta, gamma)
    # unlike bos_coefficients' chi, chi1 carries sin(gamma) squared
    chi1 = 0.5 * (alpha - beta) * math.sin(gamma) ** 2
    cg2 = math.cos(gamma / 2) ** 2
    sg2 = math.sin(gamma / 2) ** 2
    cc = math.cos(theta1 / 2) ** 2 * math.cos(theta2 / 2) ** 2
    ss = math.sin(theta1 / 2) ** 2 * math.sin(theta2 / 2) ** 2
    cos2p = math.cos(2 * (phi1 + phi2))
    cross = math.sin(gamma) * math.sin(theta1) * math.sin(theta2) * math.sin(phi1 + phi2)
    alice = (cc * (eta1 * sg2 + xi1 * cg2 + chi1 * cos2p - sigma)
             + ss * (eta1 * cg2 + xi1 * sg2 - chi1 - sigma)
             + 0.5 * (beta - sigma) * cross + sigma)
    bob = (cc * (xi1 * sg2 + eta1 * cg2 - chi1 * cos2p - sigma)
           + ss * (xi1 * cg2 + eta1 * sg2 + chi1 - sigma)
           + 0.5 * (alpha - sigma) * cross + sigma)
    return PayoffPair(alice, bob)


def payoff_du_maximal(game: GameMatrix, s1: StrategyParams, s2: StrategyParams,
                      form: str) -> PayoffPair:
    """delta = gamma = pi/2 shortcut, in its printed or corrected variant.

    form="printed" evaluates the published equations verbatim; their leading
    term goes with sin^2(phi1+phi2) and disagrees with simulation (it can even
    leave the convex hull of the game payoffs). form="corrected" uses
    cos^2(phi1+phi2), the direct specialization of payoff_general, and matches
    the oracle.
    """
    (theta1, phi1), (theta2, phi2) = _strategy("s1", s1), _strategy("s2", s2)
    if form not in DU_FORMS:
        raise ValueError(f"form must be one of {DU_FORMS}, got {form!r}")
    alpha, beta, sigma = _require_bos(game)
    c1, s1_ = math.cos(theta1 / 2), math.sin(theta1 / 2)
    c2, s2_ = math.cos(theta2 / 2), math.sin(theta2 / 2)
    phi_sum = phi1 + phi2
    mixed = (c1 * c2 * math.sin(phi_sum) + s1_ * s2_) ** 2
    lone = (math.sin(phi_sum) ** 2 if form == "printed"
            else math.cos(phi_sum) ** 2) * c1 ** 2 * c2 ** 2
    alice = (alpha - sigma) * lone + (beta - sigma) * mixed + sigma
    bob = (alpha - sigma) * mixed + (beta - sigma) * lone + sigma
    return PayoffPair(alice, bob)


def payoff_case_b_ii(game: GameMatrix, s1_theta: float, s2_theta: float) -> PayoffPair:
    """delta = gamma = pi/2, phi1 = phi2 = 0: classical mixed strategies."""
    s1_theta = _check_interval("s1_theta", s1_theta, 0.0, math.pi, "[0, pi]")
    s2_theta = _check_interval("s2_theta", s2_theta, 0.0, math.pi, "[0, pi]")
    alpha, beta, sigma = _require_bos(game)
    p = math.cos(s1_theta / 2) ** 2
    q = math.cos(s2_theta / 2) ** 2
    alice = alpha * p * q + beta * (1 - p) * (1 - q) + sigma * (p * (1 - q) + (1 - p) * q)
    bob = beta * p * q + alpha * (1 - p) * (1 - q) + sigma * (p * (1 - q) + (1 - p) * q)
    return PayoffPair(alice, bob)


def payoff_case_c(game: GameMatrix, gamma: float, delta: float, s1_theta: float,
                  s2_theta: float) -> PayoffPair:
    """phi1 = phi2 = 0 with independent gamma, delta: effective angle gamma - delta."""
    gamma = _check_interval("gamma", gamma, 0.0, HALF_PI, "[0, pi/2]")
    delta = _check_interval("delta", delta, 0.0, HALF_PI, "[0, pi/2]")
    s1_theta = _check_interval("s1_theta", s1_theta, 0.0, math.pi, "[0, pi]")
    s2_theta = _check_interval("s2_theta", s2_theta, 0.0, math.pi, "[0, pi]")
    return PayoffPair(*_marinatto_weber(*_require_bos(game), gamma - delta, s1_theta, s2_theta))


def payoff_case_d(game: GameMatrix, delta: float, s1: StrategyParams,
                  s2: StrategyParams) -> PayoffPair:
    """gamma = 0 with an entangled measurement: nonclassical despite a product state.

    The interference term is -/+ (alpha-beta)/4 sin(delta) sin(theta1)
    sin(theta2) sin(phi1+phi2) (minus for Alice). Published write-ups of this
    regime show twice that coefficient, which simulation rejects; the factor
    here is the exact gamma=0 specialization of payoff_general.
    """
    delta = _check_interval("delta", delta, 0.0, HALF_PI, "[0, pi/2]")
    alpha, beta, sigma = _require_bos(game)
    (theta1, phi1), (theta2, phi2) = _strategy("s1", s1), _strategy("s2", s2)
    alice, bob = _marinatto_weber(alpha, beta, sigma, delta, theta1, theta2)
    shift = (0.25 * (alpha - beta) * math.sin(delta) * math.sin(theta1)
             * math.sin(theta2) * math.sin(phi1 + phi2))
    return PayoffPair(alice - shift, bob + shift)
