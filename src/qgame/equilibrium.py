"""Grid-certified best replies and epsilon-Nash profiles over the strategy space.

The search always runs on the simulation path (payoff tables built from nine
state evolutions by bilinearity, never from the closed forms), so it works
for arbitrary 2x2 bimatrices, not only Battle of the Sexes. Certificates are
exact for the grid: eps_cert is the largest payoff any player could gain by a
unilateral on-grid deviation.
"""

from __future__ import annotations

import math
import operator
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

# The grid commands build tables in blocks of Alice's rows (table_blocks),
# never whole ones, of about BLOCK_BYTES of probabilities each (a grid of up
# to 181 points is one block): the smallest budget that costs no wall time
# on the certificate paths or on sweep rows. MAX_TABLE_BYTES is the byte
# budget of two bounds: the grid, at POINT_BYTES per point (all a command
# holds per point at once: the features and one block's other arrays; traced
# on 1025x513, sweep --summary peaks at 216, equilibria at 200 and sweep rows
# at 193), and the candidate profiles the certificates hold, at
# PROFILE_BYTES each: two grid indices and three values.
MAX_TABLE_BYTES = 2**30
BLOCK_BYTES = 2**20
PROFILE_BYTES = 40
POINT_BYTES = 224

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
        # store the checked ints, as SchemeParams stores its checked floats
        for name in ("theta_steps", "phi_steps"):
            steps = getattr(self, name)
            try:
                value = operator.index(steps)
            except TypeError:
                value = 0
            if isinstance(steps, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {steps!r}")
            object.__setattr__(self, name, value)
        if self.phi_range not in PHI_RANGES:
            raise ValueError(
                f"phi_range must be one of {sorted(PHI_RANGES)}, got {self.phi_range!r}"
            )
        n = self.theta_steps * self.phi_steps
        if POINT_BYTES * n > MAX_TABLE_BYTES:
            raise ValueError(
                f"a {self.theta_steps}x{self.phi_steps} grid has {n} points, over the limit "
                f"of {MAX_TABLE_BYTES // POINT_BYTES} points ({MAX_TABLE_BYTES} bytes at "
                f"{POINT_BYTES} bytes per point)")

    @property
    def phi_interval(self) -> tuple[float, float]:
        return PHI_RANGES[self.phi_range]

    def theta_values(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.theta_steps)

    def phi_values(self) -> np.ndarray:
        lo, hi = self.phi_interval
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


def _outcome_kernels(scheme: SchemeParams) -> np.ndarray:
    """Kernels K of shape (4, 6, 6) with P_o(s1, s2) = f(s1) @ K[o] @ f(s2).

    An outcome amplitude is bilinear in the players' coefficient vectors,
    A_o = v1^T N_o v2, where N_o[p, q] is the amplitude of the corner profile
    (p, q). N comes from the simulation path (nine state evolutions and one
    measurement basis), so the closed forms stay an independent check.
    |A_o|^2 is then a quadratic form in v1 v1^T and v2 v2^T.
    """
    bras = measurement_basis(scheme.delta).conj()
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
    (rows, probs, alice, bob) per block of about BLOCK_BYTES of probabilities
    (read at call time), at least one row each, where probs is the block's
    probability_tables and alice, bob are its payoff tables. The features,
    the outcome kernels (nine state evolutions and one measurement basis) and
    the payoff weights are built once, in this call. Memory is O(n * block)
    however large the grid is. No reference to a block is kept once it is
    handed over, so a consumer that drops every reference to a block (probs,
    alice, bob and views of them) before asking for the next one holds one
    block at a time."""
    n = grid.theta_steps * grid.phi_steps
    step = max(1, BLOCK_BYTES // (32 * n))
    features, kernels = _features(*grid.angles()), _outcome_kernels(scheme)
    weights = game.alice_by_outcome(), game.bob_by_outcome()
    return (_table_block(features, kernels, weights, slice(lo, min(lo + step, n)))
            for lo in range(0, n, step))


def _table_block(features, kernels, weights, rows: slice) -> tuple:
    probs = probability_tables(features, kernels, rows)
    return (rows, probs, *(np.einsum("o,o...->...", w, probs) for w in weights))


def check_eps(eps: float) -> None:
    """Validate an equilibrium tolerance: finite and nonnegative."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be nonnegative, got {eps!r}")


def _keep(chunk: tuple[np.ndarray, ...], mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """The chunk's rows where mask holds; the chunk itself when it holds everywhere."""
    return chunk if mask.all() else tuple(part[mask] for part in chunk)


def epsilon_nash(game: GameMatrix, scheme: SchemeParams, grid: StrategyGrid, eps: float,
                 *, visit=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every grid profile no player can improve by more than eps on-grid:
    Alice's and Bob's grid indices a and b of the m profiles, ordered
    lexicographically (Alice's point first), and their (m, 3) payoff_a,
    payoff_b and eps_cert; empty arrays are a valid outcome. visit(rows,
    alice, bob), if given, sees every block's payoff tables.

    The tables are built and certified in one pass over table_blocks, so
    memory is O(n * block + profiles). Bob's best replies are exact within a
    block, and Alice's are running column maxima. A profile more than eps
    short of either can never be certified, because the maxima only grow, so
    only the profiles within eps of both (the candidates) are held. Each time
    their count doubles they are pruned and merged into one chunk, so a prune
    visits that chunk and one chunk per block since: the work is linear in
    blocks plus profiles. Once the maxima are final, eps_cert is computed as
    max(column max - payoff_a, row max - payoff_b), so it equals, bit for
    bit, the certificate of the blocks' tables stacked and certified whole.

    Raises ValueError when the candidates left after a block take more than
    MAX_TABLE_BYTES at PROFILE_BYTES each."""
    check_eps(eps)
    best_a = np.full(grid.theta_steps * grid.phi_steps, -np.inf)
    # candidate chunks (a, b, values); a value row is payoff_a, payoff_b and
    # Bob's gain from deviating, which is final when the chunk is made
    held: list[tuple[np.ndarray, ...]] = []
    count = pruned = 0
    for rows, probs, alice, bob in table_blocks(game, scheme, grid):
        del probs  # only the payoffs are certified; free the block now
        if visit is not None:
            visit(rows, alice, bob)
        np.maximum(best_a, alice.max(axis=0), out=best_a)
        gain_b = bob.max(axis=1)[:, np.newaxis] - bob
        a, b = np.nonzero((best_a - alice <= eps) & (gain_b <= eps))
        # a and b are strided views of one (k, 2) array; a copy of b holds
        # 8 bytes a profile where the view would keep all 16 alive
        held.append((a + rows.start, np.ascontiguousarray(b),
                     np.stack([alice[a, b], bob[a, b], gain_b[a, b]], axis=1)))
        count += len(a)
        # pruning into one chunk each time the count doubles keeps it linear
        if count > 2 * pruned or count * PROFILE_BYTES > MAX_TABLE_BYTES:
            held = [_keep(chunk, best_a[chunk[1]] - chunk[2][:, 0] <= eps) for chunk in held]
            held = [tuple(np.concatenate(parts) for parts in zip(*held))]
            count = pruned = len(held[0][0])
            if count * PROFILE_BYTES > MAX_TABLE_BYTES:
                raise ValueError(
                    f"a {grid.theta_steps}x{grid.phi_steps} grid holds over "
                    f"{MAX_TABLE_BYTES // PROFILE_BYTES} candidate profiles, the limit of "
                    f"{MAX_TABLE_BYTES} bytes at {PROFILE_BYTES} bytes per profile")
    del a, b, alice, bob, gain_b  # the last block's tables and nonzero's array
    for _, b, values in held:
        np.maximum(best_a[b] - values[:, 0], values[:, 2], out=values[:, 2])
    held = [_keep(chunk, chunk[2][:, 2] <= eps) for chunk in held]
    return tuple(np.concatenate(parts) for parts in zip(*held))


def sweep_schemes(gamma_values, delta_values) -> list[SchemeParams]:
    """A sweep's schemes in input order, gamma_values and delta_values paired
    elementwise (a singleton broadcasts). Every input check of the pairs
    raises ValueError here, before any table is built; the grid checks its
    own size."""
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
    return [SchemeParams(g, d) for g, d in zip(gammas, deltas)]


def sweep(game: GameMatrix, gamma_values, delta_values, grid: StrategyGrid,
          eps: float) -> list[SweepRow]:
    """Summaries for each (gamma, delta) pair of sweep_schemes, in input order.

    Each row records the equilibrium count, the payoff pair of the most
    egalitarian equilibrium (largest min(alice, bob), then largest sum, then
    first in grid order), and the worst observed |simulation - closed form|
    when the game has the battle-of-sexes structure. Each pair is certified
    by epsilon_nash, and its closed forms are compared on the same blocks of
    Alice's grid rows; the same limit on held profiles applies.
    """
    check_eps(eps)
    thetas, phis = grid.angles()
    rows = []
    for scheme in sweep_schemes(gamma_values, delta_values):
        devs: list[float] = []

        def formula_dev(block: slice, alice: np.ndarray, bob: np.ndarray) -> None:
            al, bo = _general(*game.bos, scheme.gamma, scheme.delta,
                              thetas[block, np.newaxis], phis[block, np.newaxis],
                              thetas[np.newaxis, :], phis[np.newaxis, :])
            devs.append(max(np.abs(al - alice).max(), np.abs(bo - bob).max()))

        a, _, values = epsilon_nash(game, scheme, grid, eps,
                                    visit=None if game.bos is None else formula_dev)
        best: PayoffPair | None = None
        if len(a):
            pa, pb = values[:, 0], values[:, 1]
            # lexsort's last key is the primary one; the final entry is the
            # largest, and -index makes the earliest profile win a full tie
            top = np.lexsort((-np.arange(len(a)), pa + pb, np.minimum(pa, pb)))[-1]
            best = PayoffPair(float(pa[top]), float(pb[top]))
        dev = float(max(devs)) if devs else None
        rows.append(SweepRow(gamma=scheme.gamma, delta=scheme.delta, equilibria=len(a),
                             best=best, max_formula_dev=dev))
    return rows
