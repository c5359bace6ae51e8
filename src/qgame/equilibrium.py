"""Grid-certified best replies and epsilon-Nash profiles over the strategy space.

The search always runs on the simulation path (payoff tables built from nine
state evolutions by bilinearity, never from the closed forms), so it works
for arbitrary 2x2 bimatrices, not only Battle of the Sexes. Certificates are
exact for the grid: eps_cert is the largest payoff any player could gain by a
unilateral on-grid deviation.
"""

from __future__ import annotations

import math

import numpy as np

from .closedform import _general
from .scheme import (
    GameMatrix,
    SchemeParams,
    StrategyParams,
    _number,
    _phi_interval,
    _record,
    _shown,
    final_state,
    measurement_basis,
)

# The grid commands build tables in blocks of Alice's rows (table_blocks),
# never whole ones, of about BLOCK_BYTES of probabilities each (a grid of up
# to 181 points is one block): the smallest budget that costs no wall time
# on the certificate paths or on sweep rows. MAX_TABLE_BYTES is the byte
# budget of two bounds: the grid, at POINT_BYTES per point (all a command
# holds per point at once: the features and one block's other arrays; traced
# on 1025x513, sweep --summary peaks at 216, equilibria at 200 and sweep rows
# at 193), and the candidate profiles the certificates hold, at
# PROFILE_BYTES each: one flat profile index and three values.
MAX_TABLE_BYTES = 2**30
BLOCK_BYTES = 2**20
PROFILE_BYTES = 32
POINT_BYTES = 224

# the keys of a sweep summary row, in the order sweep --summary writes them
SUMMARY_FIELDS = ("gamma", "delta", "equilibria", "best_payoff_a",
                  "best_payoff_b", "max_formula_dev")

# U(theta, phi) = v0 I + v1 iZ + v2 C with real coefficients
# v = (cos(theta/2) cos(phi), cos(theta/2) sin(phi), sin(theta/2)); these
# three corner strategies give U = I, iZ and C.
_CORNERS = (StrategyParams(0.0, 0.0), StrategyParams(0.0, math.pi / 2),
            StrategyParams(math.pi, 0.0))
# the six (p, p') index pairs with p <= p' of a symmetric 3x3 matrix
_PAIR_P, _PAIR_Q = np.triu_indices(3)


def _steps(name: str, steps) -> int:
    """steps as an int (see scheme._number), checked to be positive."""
    value = _number(name, steps, "a positive integer", int)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {_shown(steps)}")
    return value


class StrategyGrid(_record("StrategyGrid", "theta_steps phi_steps phi_range")):
    """Evenly spaced (theta, phi) points, endpoints included.

    theta runs over [0, pi]. phi runs over the configured range: "narrow" is
    the closed interval [0, pi/2]; "full" covers [0, 2*pi) without the
    duplicate endpoint. A single step degenerates to the lower endpoint, which
    gives the classical pure-strategy grids.
    """

    __slots__ = ()

    def __new__(cls, theta_steps: int, phi_steps: int, phi_range: str = "narrow"):
        theta_steps, phi_steps = _steps("theta_steps", theta_steps), _steps("phi_steps", phi_steps)
        _phi_interval(phi_range)
        n = theta_steps * phi_steps
        if POINT_BYTES * n > MAX_TABLE_BYTES:
            raise ValueError(
                f"a {_shown(theta_steps)}x{_shown(phi_steps)} grid has {_shown(n)} points, over "
                f"the limit of {MAX_TABLE_BYTES // POINT_BYTES} points ({MAX_TABLE_BYTES} "
                f"bytes at {POINT_BYTES} bytes per point)")
        return super().__new__(cls, theta_steps, phi_steps, phi_range)

    def theta_values(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.theta_steps)

    def phi_values(self) -> np.ndarray:
        lo, hi = _phi_interval(self.phi_range)
        # the full range is periodic, so its upper endpoint is excluded
        return np.linspace(lo, hi, self.phi_steps, endpoint=self.phi_range != "full")

    def angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (thetas, phis) of all grid points, theta-major."""
        thetas, phis = np.meshgrid(self.theta_values(), self.phi_values(), indexing="ij")
        return thetas.ravel(), phis.ravel()

    def points(self) -> list[StrategyParams]:
        """All grid strategies in angles() order (lexicographic by grid index)."""
        thetas, phis = self.angles()
        return [StrategyParams(t, p) for t, p in zip(thetas.tolist(), phis.tolist())]

    def indices(self, profiles) -> tuple[np.ndarray, ...]:
        """Alice's theta and phi indices, then Bob's, of flat profile indices
        a * n + b (Alice's grid point a, Bob's b, in points() order, n grid
        points), as epsilon_nash and table_blocks give them."""
        a, b = np.divmod(profiles, self.theta_steps * self.phi_steps)
        return (*np.divmod(a, self.phi_steps), *np.divmod(b, self.phi_steps))


def _features(thetas, phis) -> np.ndarray:
    """Rows f(s): the upper triangle of v v^T with off-diagonal entries
    doubled, so that f(s) @ x == v^T X v for a symmetric 3x3 matrix X whose
    upper triangle is x. Shape (..., 6) for angle arrays of shape (...)."""
    half = thetas / 2
    v = np.stack([np.cos(half) * np.cos(phis), np.cos(half) * np.sin(phis),
                  np.sin(half)], axis=-1)
    return v[..., _PAIR_P] * v[..., _PAIR_Q] * np.where(_PAIR_P == _PAIR_Q, 1.0, 2.0)


def _outcome_kernels(scheme: SchemeParams) -> np.ndarray:
    """Kernels K of shape (4, 6, 6) with P_o(s1, s2) = f(s1) @ K[o] @ f(s2).

    An outcome amplitude is bilinear in the players' coefficient vectors,
    A_o = v1^T N_o v2, where N_o[p, q] is the amplitude of the corner profile
    (p, q). N comes from the simulation path (nine state evolutions and one
    measurement basis), so the closed forms stay an independent check.
    |A_o|^2 is then a quadratic form in v1 v1^T and v2 v2^T.
    """
    bras = np.array(measurement_basis(scheme.delta)).conj()
    states = np.stack([final_state(scheme.gamma, p, q)
                       for p in _CORNERS for q in _CORNERS])
    amps = (bras @ states.T).reshape(4, 3, 3)
    # pair[o, p, p', q, q'] = Re(N_o[p, q] conj(N_o[p', q']))
    pair = np.einsum("opq,ors->oprqs", amps, amps.conj()).real
    # symmetrizing p <-> p' also makes it symmetric in q <-> q', because
    # swapping both pairs at once conjugates the product
    pair = (pair + pair.transpose(0, 2, 1, 3, 4)) / 2
    return pair[:, _PAIR_P, _PAIR_Q][:, :, _PAIR_P, _PAIR_Q]


def probability_tables(features: np.ndarray, kernels: np.ndarray,
                       rows: slice) -> np.ndarray:
    """Outcome probabilities of Alice's grid points in the slice rows against
    every grid point of Bob's, shape (4, len(rows), n), 32 * len(rows) * n
    bytes for n grid points: the per-block stage of table_blocks, from the
    grid's _features (n, 6) and the scheme's _outcome_kernels.

    Axis 0 is the outcome (OO, OT, TO, TT); entry [:, a, b] pairs Alice's
    grid point a (counted from rows.start) with Bob's grid point b, both in
    points() order. Each table is the rank-6 product F[rows] @ K[o] @ F.T.
    Rounding can leave true zeros at about -1e-16; they are clipped to 0."""
    probs = (features[rows] @ kernels) @ features.T
    np.maximum(probs, 0.0, out=probs)
    return probs


def table_blocks(game: GameMatrix, scheme: SchemeParams, grid: StrategyGrid):
    """The grid's tables in blocks of Alice's rows, in grid order: one
    (profiles, probs, alice, bob) per block of about BLOCK_BYTES of
    probabilities (read at call time), at least one row each. profiles is
    the range of the block's flat profile indices a * n + b, which
    StrategyGrid.indices decodes, in the order of the tables' raveled
    entries; probs is the block's probability_tables and alice, bob are its
    payoff tables. The features, the outcome kernels (nine state evolutions
    and one measurement basis) and the payoff weights are built once, in
    this call. Memory is O(n * block) however large the grid is. No
    reference to a block is kept once it is handed over, so a consumer that
    drops every reference to a block (probs, alice, bob and views of them)
    before asking for the next one holds one block at a time."""
    n = grid.theta_steps * grid.phi_steps
    step = max(1, BLOCK_BYTES // (32 * n))
    features, kernels = _features(*grid.angles()), _outcome_kernels(scheme)
    weights = game.alice_by_outcome(), game.bob_by_outcome()
    return (_table_block(features, kernels, weights, slice(lo, min(lo + step, n)))
            for lo in range(0, n, step))


def _table_block(features, kernels, weights, rows: slice) -> tuple:
    probs = probability_tables(features, kernels, rows)
    n = len(features)
    return (range(rows.start * n, rows.stop * n), probs,
            *(np.einsum("o,o...->...", w, probs) for w in weights))


def check_eps(eps: float) -> float:
    """An equilibrium tolerance as a float (see scheme._number), finite and nonnegative."""
    value = _number("eps", eps, "nonnegative and finite")
    if not 0 <= value < math.inf:  # also false for nan
        raise ValueError(f"eps must be nonnegative and finite, got {_shown(eps)}")
    return value + 0.0  # -0.0 as 0.0


def _keep(chunk: tuple[np.ndarray, ...], mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """The chunk's rows where mask holds; the chunk itself when it holds everywhere."""
    return chunk if mask.all() else tuple(part[mask] for part in chunk)


def _merge(held: list, best_a: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The held chunks as one, with each bound raised in place by Alice's
    gain against the column maxima best_a and the rows over eps dropped."""
    for profiles, values in held:
        np.maximum(best_a[profiles % len(best_a)] - values[:, 0], values[:, 2], out=values[:, 2])
    held = [_keep(chunk, chunk[1][:, 2] <= eps) for chunk in held]
    return tuple(np.concatenate(parts) for parts in zip(*held))


def epsilon_nash(game: GameMatrix, scheme: SchemeParams, grid: StrategyGrid,
                 eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Every grid profile no player can improve by more than eps on-grid:
    the m profiles as flat indices a * n + b in increasing order (Alice's
    grid point a, Bob's b, n grid points; grid.indices decodes them), and
    their (m, 3) payoff_a, payoff_b and eps_cert; empty arrays are a valid
    outcome.

    The tables are built and certified in one pass over table_blocks, so
    memory is O(n * block + profiles). Bob's best replies are exact within a
    block and Alice's are running column maxima, which only grow, so each
    profile's bound max(column max - payoff_a, row max - payoff_b) never
    exceeds its eps_cert. Only the profiles bounded within eps are held.
    Each time their count doubles, and after the last block, _merge raises
    the bounds, drops those over eps and merges the rest into one chunk, so
    the work is linear in blocks plus profiles. Rounding is monotone and a
    tie keeps Alice's gain, so the last raise gives eps_cert bit for bit as
    the blocks' tables stacked and certified whole give it.

    Raises ValueError when the candidates left after a block take more than
    MAX_TABLE_BYTES at PROFILE_BYTES each."""
    eps = check_eps(eps)
    best_a = np.full(grid.theta_steps * grid.phi_steps, -np.inf)
    # candidate chunks (profiles, values); a value row is payoff_a, payoff_b
    # and the bound, raised at each merge
    held: list[tuple[np.ndarray, np.ndarray]] = []
    count = pruned = 0
    for profiles, probs, alice, bob in table_blocks(game, scheme, grid):
        del probs  # only the payoffs are certified; free the block now
        np.maximum(best_a, alice.max(axis=0), out=best_a)
        bound = np.maximum(best_a - alice, bob.max(axis=1)[:, np.newaxis] - bob)
        ids = np.flatnonzero(bound <= eps)
        # only held refers to a chunk, so a merge frees all and the heap shrinks
        held.append((ids + profiles.start,
                     np.stack([table.ravel()[ids] for table in (alice, bob, bound)], axis=1)))
        count += len(ids)
        # merging into one chunk each time the count doubles keeps it linear
        if count > 2 * pruned or count * PROFILE_BYTES > MAX_TABLE_BYTES:
            held = [_merge(held, best_a, eps)]
            count = pruned = len(held[0][0])
            if count * PROFILE_BYTES > MAX_TABLE_BYTES:
                raise ValueError(
                    f"a {grid.theta_steps}x{grid.phi_steps} grid holds over "
                    f"{MAX_TABLE_BYTES // PROFILE_BYTES} candidate profiles, the limit of "
                    f"{MAX_TABLE_BYTES} bytes at {PROFILE_BYTES} bytes per profile")
        del ids, alice, bob, bound  # free the block's tables before the next is built
    return _merge(held, best_a, eps)


def sweep_schemes(gamma_values, delta_values) -> list[SchemeParams]:
    """A sweep's schemes in input order, gamma_values and delta_values paired
    elementwise (a singleton broadcasts). Every input check of the pairs
    raises ValueError here, before any table is built; the grid checks its
    own size."""
    gammas, deltas = list(gamma_values), list(delta_values)
    if len(gammas) == 1 and len(deltas) > 1:
        gammas = gammas * len(deltas)
    if len(deltas) == 1 and len(gammas) > 1:
        deltas = deltas * len(gammas)
    if len(gammas) != len(deltas):
        raise ValueError(
            f"gamma and delta lists must pair up elementwise, got lengths "
            f"{len(gammas)} and {len(deltas)}"
        )
    return [SchemeParams(g, d) for g, d in zip(gammas, deltas)]


def _formula_dev(game: GameMatrix, scheme: SchemeParams) -> float:
    """A bound on |simulation - closed form| at every strategy pair: a payoff is
    f1 @ K @ f2 and |f|_1 = (|v0| + |v1| + |v2|)^2 <= 3, so 9 max|K_sim - K_cf|,
    with K_cf = F^-1 G F^-T from the closed forms G on six strategies."""
    thetas = np.array([0.0, 0.0, math.pi, math.pi / 2, math.pi / 2, math.pi / 2])
    phis = np.array([0.0, math.pi / 2, 0.0, 0.0, math.pi / 2, math.pi / 4])
    inverse = np.linalg.inv(_features(thetas, phis))  # independent features, cond 5.8
    closed = _general(*game.bos, scheme.gamma, scheme.delta,
                      thetas[:, np.newaxis], phis[:, np.newaxis], thetas, phis)
    kernels, weights = _outcome_kernels(scheme), (game.alice_by_outcome(), game.bob_by_outcome())
    gaps = [np.einsum("o,o...->...", w, kernels) - inverse @ g @ inverse.T
            for w, g in zip(weights, closed)]
    return 9 * float(np.abs(gaps).max())


def sweep(game: GameMatrix, gamma_values, delta_values, grid: StrategyGrid,
          eps: float) -> list[dict]:
    """The summary row of each (gamma, delta) pair of sweep_schemes, in input
    order: a dict keyed by SUMMARY_FIELDS, as sweep --summary writes it.

    Each row records the equilibrium count, the payoffs of the most
    egalitarian equilibrium (largest min(alice, bob), then largest sum, then
    first in grid order; None when none is certified), and, for games of
    battle-of-sexes form (else None), _formula_dev. Each pair is certified
    by epsilon_nash, whose limit on held profiles applies.
    """
    eps = check_eps(eps)
    rows = []
    for scheme in sweep_schemes(gamma_values, delta_values):
        profiles, values = epsilon_nash(game, scheme, grid, eps)
        best = None, None
        if len(profiles):
            pa, pb = values[:, 0], values[:, 1]
            # the largest sum among the largest minima; argmax takes the first of a tie
            low = np.minimum(pa, pb)
            tied = np.flatnonzero(low == low.max())
            top = tied[np.argmax(pa[tied] + pb[tied])]
            best = float(pa[top]), float(pb[top])
        dev = None if game.bos is None else _formula_dev(game, scheme)
        rows.append(dict(zip(SUMMARY_FIELDS,
                             (scheme.gamma, scheme.delta, len(profiles), *best, dev))))
    return rows
