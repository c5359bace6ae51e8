"""Grid-certified best replies and epsilon-Nash profiles over the strategy space.

The search always runs on the simulation path (payoff tables built from nine
state evolutions by bilinearity, never from the closed forms), so it works
for arbitrary 2x2 bimatrices, not only Battle of the Sexes. Certificates are
exact for the grid: eps_cert is the largest payoff any player could gain by a
unilateral on-grid deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import _general
from .scheme import (
    PHI_RANGES,
    GameMatrix,
    PayoffPair,
    SchemeParams,
    StrategyParams,
    final_state,
    measurement_basis,
)

TIE_TOL = 1e-12

# Largest (4, n, n) float64 probability table that probability_tables will
# allocate (n grid points, 32 n^2 bytes). epsilon_nash peaks at about 1.5
# times the table size: the payoff tables exist alongside it for a while.
MAX_TABLE_BYTES = 2**30

# U(theta, phi) = v0 I + v1 iZ + v2 C with real coefficients
# v = (cos(theta/2) cos(phi), cos(theta/2) sin(phi), sin(theta/2)); these
# three corner strategies give U = I, iZ and C.
_CORNERS = (StrategyParams(0.0, 0.0), StrategyParams(0.0, math.pi / 2),
            StrategyParams(math.pi, 0.0))
# the six (p, p') index pairs with p <= p' of a symmetric 3x3 matrix
_PAIR_P, _PAIR_Q = np.triu_indices(3)


@dataclass(frozen=True)
class StrategyGrid:
    """Evenly spaced (theta, phi) points, endpoints included.

    theta runs over [0, pi]. phi runs over the configured range: "narrow" is
    the closed interval [0, pi/2]; "full" covers [0, 2*pi) without the
    duplicate endpoint. A single step degenerates to the lower endpoint, which
    gives the classical pure-strategy grids.
    """

    theta_steps: int
    phi_steps: int
    phi_range: str = "narrow"

    def __post_init__(self) -> None:
        for name, steps in (("theta_steps", self.theta_steps), ("phi_steps", self.phi_steps)):
            if not isinstance(steps, int) or steps < 1:
                raise ValueError(f"{name} must be a positive integer, got {steps!r}")
        if self.phi_range not in PHI_RANGES:
            raise ValueError(
                f"phi_range must be one of {sorted(PHI_RANGES)}, got {self.phi_range!r}"
            )

    @property
    def phi_interval(self) -> tuple[float, float]:
        return PHI_RANGES[self.phi_range]

    def theta_values(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.theta_steps)

    def phi_values(self) -> np.ndarray:
        lo, hi = self.phi_interval
        # the full range is periodic, so its upper endpoint is excluded
        return np.linspace(lo, hi, self.phi_steps, endpoint=self.phi_range != "full")

    def points(self) -> list[StrategyParams]:
        """All grid strategies, theta-major (lexicographic by grid index)."""
        return [StrategyParams(float(t), float(p))
                for t in self.theta_values() for p in self.phi_values()]


@dataclass(frozen=True)
class ProfileResult:
    """A strategy profile with payoffs and its on-grid deviation certificate."""

    s1: StrategyParams
    s2: StrategyParams
    payoffs: PayoffPair
    eps_cert: float


@dataclass(frozen=True)
class SweepRow:
    """Per-(gamma, delta) summary: equilibria found and formula agreement."""

    gamma: float
    delta: float
    equilibria: int
    best: PayoffPair | None
    max_formula_dev: float | None


def _features(thetas, phis) -> np.ndarray:
    """Rows f(s): the upper triangle of v v^T with off-diagonal entries
    doubled, so that f(s) @ x == v^T X v for a symmetric 3x3 matrix X whose
    upper triangle is x. Shape (..., 6) for angle arrays of shape (...)."""
    half = thetas / 2
    v = np.stack([np.cos(half) * np.cos(phis), np.cos(half) * np.sin(phis),
                  np.sin(half)], axis=-1)
    return v[..., _PAIR_P] * v[..., _PAIR_Q] * np.where(_PAIR_P == _PAIR_Q, 1.0, 2.0)


def _grid_features(grid: StrategyGrid) -> np.ndarray:
    """_features of grid.points(), in that order: shape (n, 6)."""
    thetas = np.repeat(grid.theta_values(), grid.phi_steps)
    phis = np.tile(grid.phi_values(), grid.theta_steps)
    return _features(thetas, phis)


def _outcome_kernels(scheme: SchemeParams) -> np.ndarray:
    """Kernels K of shape (4, 6, 6) with P_o(s1, s2) = f(s1) @ K[o] @ f(s2).

    An outcome amplitude is bilinear in the players' coefficient vectors,
    A_o = v1^T N_o v2, where N_o[p, q] is the amplitude of the corner profile
    (p, q). N comes from the simulation path (nine state evolutions and one
    measurement basis), so the closed forms stay an independent check.
    |A_o|^2 is then a quadratic form in v1 v1^T and v2 v2^T.
    """
    directions = np.stack(measurement_basis(scheme.delta).states())
    states = np.stack([final_state(scheme.gamma, p, q)
                       for p in _CORNERS for q in _CORNERS])
    amps = (directions.conj() @ states.T).reshape(4, 3, 3)
    # pair[o, p, p', q, q'] = Re(N_o[p, q] conj(N_o[p', q']))
    pair = np.einsum("opq,ors->oprqs", amps, amps.conj()).real
    # symmetrizing p <-> p' also makes it symmetric in q <-> q', because
    # swapping both pairs at once conjugates the product
    pair = (pair + pair.transpose(0, 2, 1, 3, 4)) / 2
    return pair[:, _PAIR_P, _PAIR_Q][:, :, _PAIR_P, _PAIR_Q]


def _probabilities(kernels: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Outcome probabilities for Alice's feature rows against Bob's, shape
    (4, len(alice), len(bob)). Rounding can leave true zeros at about -1e-16;
    they are clipped to 0."""
    probs = (alice @ kernels) @ bob.T
    np.maximum(probs, 0.0, out=probs)
    return probs


def _check_table_size(grid: StrategyGrid) -> None:
    """Raise ValueError if the grid's probability tables exceed MAX_TABLE_BYTES."""
    n = grid.theta_steps * grid.phi_steps
    if 32 * n * n > MAX_TABLE_BYTES:
        raise ValueError(
            f"a {grid.theta_steps}x{grid.phi_steps} grid needs {32 * n * n} bytes of "
            f"probability tables, over the limit of {MAX_TABLE_BYTES} bytes")


def probability_tables(scheme: SchemeParams, grid: StrategyGrid) -> np.ndarray:
    """Outcome probabilities for every grid profile, shape (4, n, n).

    Axis 0 is the outcome (OO, OT, TO, TT); entry [:, a, b] pairs Alice's
    grid point a with Bob's grid point b, both in points() order. Each table
    is the rank-6 product F @ K[o] @ F.T of the grid features and the
    outcome kernels, which come from nine state evolutions by bilinearity.

    Raises ValueError before allocating anything when the tables would take
    more than MAX_TABLE_BYTES."""
    _check_table_size(grid)
    features = _grid_features(grid)
    return _probabilities(_outcome_kernels(scheme), features, features)


def weigh_outcomes(game: GameMatrix, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's payoffs from outcome probabilities of shape (4, ...)."""
    alice = np.einsum("o,o...->...", game.alice_by_outcome(), probs)
    bob = np.einsum("o,o...->...", game.bob_by_outcome(), probs)
    return alice, bob


def payoff_tables(game: GameMatrix, scheme: SchemeParams,
                  grid: StrategyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Simulated payoffs for every profile; entry [a, b] pairs Alice's grid
    point a with Bob's grid point b, both in points() order."""
    return weigh_outcomes(game, probability_tables(scheme, grid))


def _certificates(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    best_reply_a = alice.max(axis=0)  # Alice's best against each Bob point
    best_reply_b = bob.max(axis=1)    # Bob's best against each Alice point
    return np.maximum(best_reply_a[np.newaxis, :] - alice,
                      best_reply_b[:, np.newaxis] - bob)


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be nonnegative, got {eps!r}")


def best_response(game: GameMatrix, scheme: SchemeParams, opponent: StrategyParams,
                  responder: str, grid: StrategyGrid) -> tuple[float, list[StrategyParams]]:
    """Exhaustive on-grid best reply for one player, the other held fixed.

    Returns the maximum payoff and every grid point within TIE_TOL of it;
    phase symmetries make genuine ties common, so the whole tie set is kept.
    The values are one row of the same kernel product as payoff_tables.
    """
    if responder not in ("alice", "bob"):
        raise ValueError(f"responder must be 'alice' or 'bob', got {responder!r}")
    kernels = _outcome_kernels(scheme)
    features = _grid_features(grid)
    fixed = _features(opponent.theta, opponent.phi)[np.newaxis]
    if responder == "alice":
        values = weigh_outcomes(game, _probabilities(kernels, features, fixed)[:, :, 0])[0]
    else:
        values = weigh_outcomes(game, _probabilities(kernels, fixed, features)[:, 0, :])[1]
    top = float(values.max())
    ties = [p for p, v in zip(grid.points(), values) if v >= top - TIE_TOL]
    return top, ties


def epsilon_nash(game: GameMatrix, scheme: SchemeParams, grid: StrategyGrid,
                 eps: float) -> list[ProfileResult]:
    """Every grid profile no player can improve by more than eps on-grid.

    Results are ordered lexicographically by grid indices (Alice's point
    first), so runs are reproducible. An empty list is a valid outcome.
    """
    _check_eps(eps)
    alice, bob = payoff_tables(game, scheme, grid)
    cert = _certificates(alice, bob)
    points = grid.points()
    results = []
    for a, b in np.argwhere(cert <= eps):
        results.append(ProfileResult(
            s1=points[a],
            s2=points[b],
            payoffs=PayoffPair(float(alice[a, b]), float(bob[a, b])),
            eps_cert=float(cert[a, b]),
        ))
    return results


def _pair_up(gamma_values, delta_values) -> list[tuple[float, float]]:
    gammas = [float(g) for g in gamma_values]
    deltas = [float(d) for d in delta_values]
    if len(gammas) == 1 and len(deltas) > 1:
        gammas = gammas * len(deltas)
    if len(deltas) == 1 and len(gammas) > 1:
        deltas = deltas * len(gammas)
    if len(gammas) != len(deltas):
        raise ValueError(
            f"gamma and delta lists must pair up elementwise, got lengths "
            f"{len(gammas)} and {len(deltas)}"
        )
    return list(zip(gammas, deltas))


def sweep(game: GameMatrix, gamma_values, delta_values, grid: StrategyGrid,
          eps: float) -> list[SweepRow]:
    """Summaries for each (gamma, delta) pair, in input order.

    gamma_values and delta_values are paired elementwise (a singleton
    broadcasts against the other list). Each row records the equilibrium
    count, the payoff pair of the most egalitarian equilibrium (largest
    min(alice, bob), then largest sum, then first in grid order), and the
    worst observed |simulation - closed form| when the game has the
    battle-of-sexes structure.
    """
    _check_eps(eps)
    points = grid.points()
    thetas = np.array([p.theta for p in points])
    phis = np.array([p.phi for p in points])
    rows = []
    for gamma, delta in _pair_up(gamma_values, delta_values):
        scheme = SchemeParams(gamma, delta)
        alice, bob = payoff_tables(game, scheme, grid)
        cert = _certificates(alice, bob)
        hits = np.argwhere(cert <= eps)
        best: PayoffPair | None = None
        best_key: tuple[float, float] | None = None
        for a, b in hits:
            pair = (float(alice[a, b]), float(bob[a, b]))
            key = (min(pair), pair[0] + pair[1])
            if best_key is None or key > best_key:
                best_key = key
                best = PayoffPair(*pair)
        dev: float | None = None
        if game.bos is not None:
            al, bo = _general(*game.bos, gamma, delta,
                              thetas[:, np.newaxis], phis[:, np.newaxis],
                              thetas[np.newaxis, :], phis[np.newaxis, :])
            dev = float(max(np.abs(al - alice).max(), np.abs(bo - bob).max()))
        rows.append(SweepRow(gamma=gamma, delta=delta, equilibria=int(len(hits)),
                             best=best, max_formula_dev=dev))
    return rows
