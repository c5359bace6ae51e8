import inspect
import math
import sys
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from qgame import closedform, equilibrium
from qgame.closedform import _general
from qgame.equilibrium import (
    MAX_TABLE_BYTES,
    POINT_BYTES,
    PROFILE_BYTES,
    StrategyGrid,
    _features,
    _outcome_kernels,
    check_eps,
    epsilon_nash,
    probability_tables,
    sweep,
    sweep_schemes,
    table_blocks,
)
from qgame.scheme import (
    PHI_RANGES,
    GameMatrix,
    SchemeParams,
    StrategyParams,
    battle_of_sexes,
    final_state,
    measurement_basis,
    outcome_probabilities,
    payoffs_oracle,
)

HP = math.pi / 2

CLASSICAL = SchemeParams(0.0, 0.0)
QUANTUM = SchemeParams(HP, HP)


def bos210():
    return battle_of_sexes(2.0, 1.0, 0.0)


def pure_grid():
    return StrategyGrid(theta_steps=2, phi_steps=1)


def whole_tables(game, scheme, grid):
    """Alice's and Bob's payoff tables of the whole grid, stacked from
    table_blocks: exactly the tables the certificate paths see."""
    _, _, alice, bob = zip(*table_blocks(game, scheme, grid))
    return np.concatenate(alice), np.concatenate(bob)


def whole_probabilities(scheme, grid):
    """The (4, n, n) outcome probabilities of the whole grid, stacked from
    table_blocks; the game does not enter them."""
    _, probs, _, _ = zip(*table_blocks(bos210(), scheme, grid))
    return np.concatenate(probs, axis=1)


def grid_pairs(grid, profiles):
    """Alice's and Bob's grid indices a and b of the flat profile indices
    a * n + b that epsilon_nash returns, n the grid's point count."""
    return np.divmod(profiles, grid.theta_steps * grid.phi_steps)


def thetas_of(grid, profiles):
    """The (Alice's theta, Bob's theta) pair of each profile."""
    thetas = grid.angles()[0]
    a, b = grid_pairs(grid, profiles)
    return list(zip(thetas[a].tolist(), thetas[b].tolist()))


def certificates(alice, bob):
    """eps_cert of every profile of whole payoff tables: the reference the
    certificate paths, which work block by block, must equal bit for bit."""
    best_reply_a = alice.max(axis=0)  # Alice's best against each Bob point
    best_reply_b = bob.max(axis=1)    # Bob's best against each Alice point
    return np.maximum(best_reply_a[np.newaxis, :] - alice,
                      best_reply_b[:, np.newaxis] - bob)


# six strategies with linearly independent features: the three corners
# (U = I, iZ and C), then (pi/2, 0), (pi/2, pi/2) and (pi/2, pi/4)
SIX_STRATEGIES = ((0.0, 0.0), (0.0, HP), (math.pi, 0.0), (HP, 0.0), (HP, HP), (HP, math.pi / 4))


def closed_form_kernels(game, scheme):
    """Alice's and Bob's 6x6 kernels K with closed-form payoff f1 @ K @ f2:
    F^-1 G F^-T, from the closed forms G on the 36 profiles of
    SIX_STRATEGIES and their features F."""
    thetas, phis = np.array(SIX_STRATEGIES).T
    inverse = np.linalg.inv(_features(thetas, phis))
    closed = _general(*game.bos, scheme.gamma, scheme.delta,
                      thetas[:, np.newaxis], phis[:, np.newaxis], thetas, phis)
    return [inverse @ g @ inverse.T for g in closed]


def kernel_bound(game, scheme):
    """9 max|K_sim - K_cf| over both players: the simulation's payoff kernels
    (the outcome kernels weighed by the game's payoffs) against the closed
    forms'. It bounds |simulation - closed form| at every strategy pair,
    because a feature vector's 1-norm is (|v0| + |v1| + |v2|)^2 <= 3."""
    kernels = _outcome_kernels(scheme)
    simulated = [np.einsum("o,o...->...", w, kernels)
                 for w in (game.alice_by_outcome(), game.bob_by_outcome())]
    return 9 * max(float(np.abs(k_sim - k_cf).max())
                   for k_sim, k_cf in zip(simulated, closed_form_kernels(game, scheme)))


class TestStrategyGrid:
    def test_endpoints_included(self):
        grid = StrategyGrid(3, 2)
        np.testing.assert_allclose(grid.theta_values(), [0.0, HP, math.pi])
        np.testing.assert_allclose(grid.phi_values(), [0.0, HP])

    def test_single_step_degenerates_to_lower_endpoint(self):
        grid = StrategyGrid(1, 1)
        assert list(grid.theta_values()) == [0.0]
        assert list(grid.phi_values()) == [0.0]

    def test_full_phi_range_omits_duplicate_endpoint(self):
        values = StrategyGrid(2, 4, phi_range="full").phi_values()
        np.testing.assert_allclose(values, [0.0, HP, math.pi, 3 * HP])

    def test_points_order_is_theta_major(self):
        pts = StrategyGrid(2, 2).points()
        assert [(p.theta, p.phi) for p in pts] == [
            (0.0, 0.0), (0.0, HP), (math.pi, 0.0), (math.pi, HP)]

    @pytest.mark.parametrize("grid", [StrategyGrid(5, 3), StrategyGrid(4, 6, "full"),
                                      StrategyGrid(1, 1), StrategyGrid(3, 1, "full")],
                             ids=["narrow", "full", "1x1", "1-phi-step"])
    def test_angles_match_points_exactly(self, grid):
        thetas, phis = grid.angles()
        theta_major = [(t, p) for t in grid.theta_values() for p in grid.phi_values()]
        assert list(zip(thetas, phis)) == theta_major
        assert [(p.theta, p.phi) for p in grid.points()] == theta_major

    def test_validation(self):
        with pytest.raises(ValueError, match="theta_steps"):
            StrategyGrid(0, 1)
        with pytest.raises(ValueError, match="phi_range"):
            StrategyGrid(2, 2, phi_range="wide")

    @pytest.mark.parametrize("steps,message", [
        ((10**5000, 1), "^a .*x1 grid has .* points, over the limit of"),
        ((1, -10**5000), "^phi_steps must be a positive integer, got"),
    ], ids=["over-the-limit", "negative"])
    def test_steps_too_long_to_print_named(self, steps, message):
        # Python prints no int of over 4,300 digits: the message must still be the grid's
        with pytest.raises(ValueError, match=message):
            StrategyGrid(*steps)

    @pytest.mark.parametrize("grid", [StrategyGrid(1, 1), StrategyGrid(2, 1), StrategyGrid(5, 3),
                                      StrategyGrid(9, 5), StrategyGrid(17, 9, "full")],
                             ids=["1x1", "2x1", "5x3", "9x5", "17x9-full"])
    def test_indices_decode_every_profile(self, grid):
        n = grid.theta_steps * grid.phi_steps
        profiles = np.arange(n * n)
        got = grid.indices(profiles)
        a, b = np.divmod(profiles, n)
        want = (*np.divmod(a, grid.phi_steps), *np.divmod(b, grid.phi_steps))
        assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))
        thetas, phis = grid.theta_values(), grid.phi_values()
        points = grid.points()
        t1, p1, t2, p2 = got
        assert [(points[i], points[j]) for i, j in zip(a.tolist(), b.tolist())] == [
            (StrategyParams(thetas[i], phis[j]), StrategyParams(thetas[k], phis[m]))
            for i, j, k, m in zip(t1.tolist(), p1.tolist(), t2.tolist(), p2.tolist())]

    def test_steps_are_stored_as_checked_ints(self):
        grid = StrategyGrid(np.int64(3), np.uint8(2))
        assert (grid.theta_steps, grid.phi_steps) == (3, 2)
        assert type(grid.theta_steps) is int and type(grid.phi_steps) is int
        for steps in (True, np.True_, 2.0, "2"):
            with pytest.raises(ValueError, match="phi_steps must be a positive integer"):
                StrategyGrid(2, steps)


class TestPayoffTables:
    def test_matches_scalar_oracle_pointwise(self):
        game = GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))
        grid = StrategyGrid(3, 2)
        scheme = SchemeParams(0.7, 0.4)
        alice, bob = whole_tables(game, scheme, grid)
        pts = grid.points()
        for a, s1 in enumerate(pts):
            for b, s2 in enumerate(pts):
                want = payoffs_oracle(game, scheme, s1, s2)
                assert alice[a, b] == pytest.approx(want.alice, abs=1e-12)
                assert bob[a, b] == pytest.approx(want.bob, abs=1e-12)

    def test_probability_tables_sum_to_one(self):
        probs = whole_probabilities(SchemeParams(1.0, 0.5), StrategyGrid(4, 3))
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-9)
        assert (probs >= -1e-15).all()

    def test_probabilities_never_negative(self):
        # at gamma = delta = pi/2 many probabilities are exactly zero, and the
        # rank-6 product rounds some of them to about -1e-16 before clipping
        probs = whole_probabilities(QUANTUM, StrategyGrid(33, 17))
        assert probs.min() >= 0.0

    def test_tables_call_basis_once_and_no_scalar_path(self, monkeypatch):
        # a traced `qgame verify` run counts these calls exactly; the tables
        # must add one measurement basis and nothing from the scalar paths;
        # the kernels' basis and nine corner evolutions are made once per
        # table_blocks pass, however many blocks it has
        counts = Counter()

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for module_name, module in list(sys.modules.items()):
            if module_name != "qgame" and not module_name.startswith("qgame."):
                continue
            for name in ("measurement_basis", "final_state", "payoffs_oracle",
                         "payoff_general"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 4 * 32 * 15)
        scheme, grid = SchemeParams(0.7, 0.4), StrategyGrid(5, 3)  # 4 blocks
        assert len(list(table_blocks(bos210(), scheme, grid))) == 4
        assert counts == {"measurement_basis": 1, "final_state": 9}
        epsilon_nash(bos210(), scheme, grid, eps=1e-9)
        assert counts == {"measurement_basis": 2, "final_state": 18}


class TestGridSizeLimit:
    """Every grid command holds about POINT_BYTES per grid point at once, so
    MAX_TABLE_BYTES bounds the grid itself at that rate."""

    def test_oversized_grid_rejected_before_allocating(self):
        # 8,388,608 points, over the limit of 1,864,135
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    f"4096x2048 grid has 8388608 points, over the limit of "
                    f"{MAX_TABLE_BYTES // POINT_BYTES} points")):
                StrategyGrid(4096, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 6 * POINT_BYTES)
        StrategyGrid(3, 2)  # 6 points take exactly the limit
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 6 * POINT_BYTES - 1)
        with pytest.raises(ValueError, match="3x2 grid has 6 points"):
            StrategyGrid(3, 2)


def test_table_blocks_slice_the_grid_in_order(monkeypatch):
    # 15 grid points in blocks of 4, 4, 4 and 3 of Alice's rows, so of the
    # profiles a * 15 + b of those rows a
    scheme, grid = SchemeParams(0.7, 0.4), StrategyGrid(5, 3)
    monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 4 * 32 * 15 + 31)
    blocks = list(table_blocks(bos210(), scheme, grid))
    slices = [slice(0, 4), slice(4, 8), slice(8, 12), slice(12, 15)]
    assert [profiles for profiles, *_ in blocks] == [range(0, 60), range(60, 120),
                                                     range(120, 180), range(180, 225)]
    features, kernels = _features(*grid.angles()), _outcome_kernels(scheme)
    for rows, (_, probs, alice, bob) in zip(slices, blocks, strict=True):
        want = probability_tables(features, kernels, rows)
        assert np.array_equal(probs, want)
        want_a = np.einsum("o,o...->...", bos210().alice_by_outcome(), want)
        want_b = np.einsum("o,o...->...", bos210().bob_by_outcome(), want)
        assert np.array_equal(alice, want_a) and np.array_equal(bob, want_b)


@pytest.mark.parametrize("grid", [StrategyGrid(1, 1), StrategyGrid(5, 3), StrategyGrid(9, 5),
                                  StrategyGrid(17, 9, "full")],
                         ids=["1x1", "5x3", "9x5", "17x9-full"])
@pytest.mark.parametrize("block_bytes", [1, 4 * 32 * 15, 4 * 32 * 15 + 31, 2**16, 2**20])
def test_table_blocks_tile_the_profiles_in_order(monkeypatch, grid, block_bytes):
    # each block's range holds the profiles of its tables' raveled entries,
    # whole rows of Alice's, and the ranges follow each other over all n * n
    monkeypatch.setattr(equilibrium, "BLOCK_BYTES", block_bytes)
    n = grid.theta_steps * grid.phi_steps
    stop = 0
    for profiles, probs, alice, bob in table_blocks(bos210(), SchemeParams(0.7, 0.4), grid):
        assert (profiles.start, profiles.step) == (stop, 1) and len(profiles) % n == 0
        assert probs.shape == (4, len(profiles) // n, n)
        assert alice.shape == bob.shape == (len(profiles) // n, n)
        stop = profiles.stop
    assert stop == n * n


PRISONERS = GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))
PENNIES = GameMatrix(alice=((1, -1), (-1, 1)), bob=((-1, 1), (1, -1)))


class TestOracleEquivalence:
    """Tables against references built profile by profile on the scalar
    simulation path, and the equilibria those references certify."""

    GAMES = (bos210(), battle_of_sexes(3.704, 1.902, 0.864), PRISONERS, PENNIES)
    SCHEMES = ((0.0, 0.0), (HP, HP), (HP, 0.0), (0.0, HP), (0.7, 0.4), (1.3, 0.9))
    GRIDS = (StrategyGrid(5, 3), StrategyGrid(5, 4, phi_range="full"), StrategyGrid(2, 1))

    @pytest.mark.parametrize("grid", GRIDS, ids=["5x3", "5x4-full", "2x1"])
    @pytest.mark.parametrize("gamma,delta", SCHEMES)
    def test_tables_and_equilibria_match_scalar_oracle(self, gamma, delta, grid):
        scheme = SchemeParams(gamma, delta)
        pts = grid.points()
        basis = measurement_basis(delta)
        want = np.array([[outcome_probabilities(final_state(gamma, s1, s2), basis)
                          for s2 in pts] for s1 in pts]).transpose(2, 0, 1)
        np.testing.assert_allclose(whole_probabilities(scheme, grid), want,
                                   rtol=0, atol=1e-12)
        for game in self.GAMES:
            oracle = [[payoffs_oracle(game, scheme, s1, s2) for s2 in pts] for s1 in pts]
            want_a = np.array([[o.alice for o in row] for row in oracle])
            want_b = np.array([[o.bob for o in row] for row in oracle])
            alice, bob = whole_tables(game, scheme, grid)
            np.testing.assert_allclose(alice, want_a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(bob, want_b, rtol=0, atol=1e-12)
            # eps = 0 would count genuine ties by rounding luck
            cert = certificates(want_a, want_b)
            for eps in (1e-12, 1e-9, 1e-6):
                a, b = grid_pairs(grid, epsilon_nash(game, scheme, grid, eps)[0])
                assert np.column_stack([a, b]).tolist() == np.argwhere(cert <= eps).tolist()

    @pytest.mark.parametrize("grid", GRIDS, ids=["5x3", "5x4-full", "2x1"])
    @pytest.mark.parametrize("gamma,delta", SCHEMES)
    def test_epsilon_nash_matches_certificates(self, gamma, delta, grid):
        scheme = SchemeParams(gamma, delta)
        for game in self.GAMES:
            alice, bob = whole_tables(game, scheme, grid)
            cert = certificates(alice, bob)
            for eps in (1e-12, 1e-9, 1e-6):
                profiles, values = epsilon_nash(game, scheme, grid, eps)
                a, b = grid_pairs(grid, profiles)
                assert np.column_stack([a, b]).tolist() == np.argwhere(cert <= eps).tolist()
                assert values.shape == (len(a), 3)
                assert values.tolist() == np.column_stack(
                    [alice[a, b], bob[a, b], cert[a, b]]).tolist()


def best_reply(game, scheme, opponent, responder, grid):
    """The responder's best payoff against the grid point opponent and every
    grid point within 1e-12 of it, read off the tables the certificates
    maximise: a column of Alice's table or a row of Bob's."""
    alice, bob = whole_tables(game, scheme, grid)
    pts = grid.points()
    values = alice[:, pts.index(opponent)] if responder == "alice" else bob[pts.index(opponent)]
    top = values.max()
    return top, [p for p, v in zip(pts, values) if v >= top - 1e-12]


class TestBestReply:
    def test_classical_reply_to_opera(self):
        top, ties = best_reply(bos210(), CLASSICAL, StrategyParams(0.0, 0.0), "alice",
                               StrategyGrid(3, 1))
        assert top == pytest.approx(2.0, abs=1e-12)
        assert [p.theta for p in ties] == [0.0]

    def test_classical_reply_to_tv(self):
        top, ties = best_reply(bos210(), CLASSICAL, StrategyParams(math.pi, 0.0), "alice",
                               StrategyGrid(3, 1))
        assert top == pytest.approx(1.0, abs=1e-12)
        assert [p.theta for p in ties] == [math.pi]

    def test_quantum_reply_to_identity(self):
        # at gamma = delta = pi/2 the phase-free identity reply is uniquely
        # best for Alice (payoff alpha); the pure phase move (0, pi/2) instead
        # hands her beta and Bob alpha.
        top, ties = best_reply(bos210(), QUANTUM, StrategyParams(0.0, 0.0), "alice",
                               StrategyGrid(9, 9))
        assert top == pytest.approx(2.0, abs=1e-12)
        assert [(p.theta, p.phi) for p in ties] == [(0.0, 0.0)]
        at_argmax = payoffs_oracle(bos210(), QUANTUM, ties[0], StrategyParams(0, 0))
        assert at_argmax.bob == pytest.approx(1.0, abs=1e-12)
        phase_move = payoffs_oracle(bos210(), QUANTUM, StrategyParams(0, HP),
                                    StrategyParams(0, 0))
        assert (phase_move.alice, phase_move.bob) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_bob_side(self):
        top, ties = best_reply(bos210(), QUANTUM, StrategyParams(0.0, 0.0), "bob",
                               StrategyGrid(9, 9))
        # Bob's phase move against identity reaches alpha
        assert top == pytest.approx(2.0, abs=1e-12)
        assert (0.0, HP) in [(p.theta, p.phi) for p in ties]


class TestEpsilonNash:
    def test_classical_pure_equilibria(self):
        profiles, values = epsilon_nash(bos210(), CLASSICAL, pure_grid(), eps=1e-9)
        assert thetas_of(pure_grid(), profiles) == [(0.0, 0.0), (math.pi, math.pi)]
        assert values[:, 0].tolist() == pytest.approx([2.0, 1.0])
        assert values[:, 1].tolist() == pytest.approx([1.0, 2.0])
        assert (values[:, 2] <= 1e-12).all()

    def test_single_point_grid(self):
        profiles, values = epsilon_nash(bos210(), CLASSICAL, StrategyGrid(1, 1), eps=0.0)
        assert len(profiles) == 1
        assert values[0, 2] == 0.0

    def test_interior_theta_point_excluded(self):
        grid = StrategyGrid(3, 1)
        profiles, _ = epsilon_nash(bos210(), CLASSICAL, grid, eps=0.0)
        assert thetas_of(grid, profiles) == [(0.0, 0.0), (math.pi, math.pi)]

    def test_certificates_verified_by_scalar_oracle(self):
        game = bos210()
        scheme = SchemeParams(0.9, 0.4)
        grid = StrategyGrid(5, 3)
        pts = grid.points()
        profiles, values = epsilon_nash(game, scheme, grid, eps=0.05)
        a, b = grid_pairs(grid, profiles)
        for i, j, cert in zip(a.tolist(), b.tolist(), values[:, 2].tolist()):
            s1, s2 = pts[i], pts[j]
            own = payoffs_oracle(game, scheme, s1, s2)
            best_a = max(payoffs_oracle(game, scheme, p, s2).alice for p in pts)
            best_b = max(payoffs_oracle(game, scheme, s1, p).bob for p in pts)
            recomputed = max(best_a - own.alice, best_b - own.bob)
            assert cert == pytest.approx(recomputed, abs=1e-12)
            assert cert <= 0.05

    def test_refinement_keeps_strict_equilibria_certified(self):
        game = bos210()
        last = 0.0
        for steps in (2, 3, 5, 9, 33):
            grid = StrategyGrid(steps, 1)
            profiles, values = epsilon_nash(game, CLASSICAL, grid, eps=1e-9)
            pure = dict(zip(thetas_of(grid, profiles), values[:, 2].tolist()))
            assert (0.0, 0.0) in pure and (math.pi, math.pi) in pure
            assert pure[(0.0, 0.0)] <= 1e-12
            assert pure[(math.pi, math.pi)] <= 1e-12
            last = max(pure.values())
        assert last <= 1e-12

    def test_classical_limit_matches_independent_bimatrix(self):
        # brute-force classical oracle, written here on purpose
        def classical(game, p, q):
            probs = (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))
            return (sum(w * x for w, x in zip(game.alice_by_outcome(), probs)),
                    sum(w * x for w, x in zip(game.bob_by_outcome(), probs)))

        game = bos210()
        grid = StrategyGrid(5, 1)
        alice, bob = whole_tables(game, CLASSICAL, grid)
        pts = grid.points()
        for a, s1 in enumerate(pts):
            for b, s2 in enumerate(pts):
                ca, cb = classical(game, math.cos(s1.theta / 2) ** 2,
                                   math.cos(s2.theta / 2) ** 2)
                assert alice[a, b] == pytest.approx(ca, abs=1e-12)
                assert bob[a, b] == pytest.approx(cb, abs=1e-12)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            epsilon_nash(bos210(), CLASSICAL, pure_grid(), eps=-1.0)

    def test_empty_result_is_valid(self):
        # matching pennies has no pure equilibrium
        pennies = GameMatrix(alice=((1, -1), (-1, 1)), bob=((-1, 1), (1, -1)))
        profiles, values = epsilon_nash(pennies, CLASSICAL, pure_grid(), eps=1e-9)
        assert len(profiles) == 0 and values.shape == (0, 3)


class TestSweep:
    def test_classical_single_pair(self):
        rows = sweep(bos210(), [0.0], [0.0], pure_grid(), eps=1e-9)
        assert len(rows) == 1
        row = rows[0]
        assert row["equilibria"] == 2
        assert (row["best_payoff_a"], row["best_payoff_b"]) == pytest.approx((2.0, 1.0))
        assert row["max_formula_dev"] <= 1e-9

    def test_rows_follow_input_order(self):
        rows = sweep(bos210(), [0.0, HP], [0.0, HP], pure_grid(), eps=1e-9)
        assert [(r["gamma"], r["delta"]) for r in rows] == [(0.0, 0.0), (HP, HP)]

    def test_singleton_broadcast(self):
        rows = sweep(bos210(), [0.0, 0.5, HP], [0.0], pure_grid(), eps=1e-9)
        assert [(r["gamma"], r["delta"]) for r in rows] == [(0.0, 0.0), (0.5, 0.0), (HP, 0.0)]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="pair up"):
            sweep(bos210(), [0.0, 0.5], [0.0, 0.1, 0.2], pure_grid(), eps=1e-9)

    def test_formula_deviation_small_everywhere(self):
        rows = sweep(bos210(), [0.0, 0.7, HP], [0.3, 0.3, 0.3], StrategyGrid(5, 3),
                     eps=1e-9)
        assert all(r["max_formula_dev"] <= 1e-9 for r in rows)

    def test_no_deviation_reported_for_games_without_bos_form(self):
        pennies = GameMatrix(alice=((1, -1), (-1, 1)), bob=((-1, 1), (1, -1)))
        rows = sweep(pennies, [0.0], [0.0], pure_grid(), eps=1e-9)
        assert rows[0]["max_formula_dev"] is None
        assert rows[0]["best_payoff_a"] is None and rows[0]["best_payoff_b"] is None
        assert rows[0]["equilibria"] == 0

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_invalid_eps_rejected_like_epsilon_nash(self, eps):
        for search in (lambda: sweep(bos210(), [0.0], [0.0], pure_grid(), eps=eps),
                       lambda: epsilon_nash(bos210(), CLASSICAL, pure_grid(), eps=eps)):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                search()

    def test_egalitarian_selection(self):
        # at gamma = delta = 0 both pure equilibria tie on min(): (2,1) vs (1,2);
        # the sum also ties, so the first in grid order is reported
        rows = sweep(bos210(), [0.0], [0.0], pure_grid(), eps=1e-9)
        assert (rows[0]["best_payoff_a"], rows[0]["best_payoff_b"]) == pytest.approx((2.0, 1.0))

    @pytest.mark.parametrize("gammas,deltas,grid,message", [
        ([0.3, 2.0], [0.1], pure_grid(), "gamma must be in"),
        ([0.0, 0.5], [0.0, 0.1, 0.2], pure_grid(), "pair up"),
    ], ids=["second-pair-out-of-range", "mismatched-lengths"])
    def test_inputs_rejected_before_any_table(self, monkeypatch, gammas, deltas, grid,
                                              message):
        calls = []

        def counting(*args):
            calls.append(args)
            return probability_tables(*args)

        monkeypatch.setattr(equilibrium, "probability_tables", counting)
        with pytest.raises(ValueError, match=message):
            sweep_schemes(gammas, deltas)
        with pytest.raises(ValueError, match=message):
            sweep(bos210(), gammas, deltas, grid, eps=1e-9)
        assert calls == []

    @pytest.mark.parametrize("gammas,deltas,message", [
        ([None], [0.1], "gamma must be a finite number, got None"),
        (["a"], [0.1], "gamma must be a finite number, got 'a'"),
        ([0.1, 0.2], [0.1, object], "delta must be a finite number, got <class 'object'>"),
    ], ids=["none-gamma", "text-gamma", "class-delta"])
    def test_non_numeric_pair_named_by_its_angle(self, gammas, deltas, message):
        with pytest.raises(ValueError, match=message):
            sweep_schemes(gammas, deltas)

    @pytest.mark.parametrize("eps", ["x", None, 10**400, -10**400, 10**5000],
                             ids=["text", "none", "int-beyond-floats", "negative-int-beyond",
                                  "int-too-long-to-print"])
    def test_eps_that_is_no_finite_float_rejected(self, eps):
        with pytest.raises(ValueError, match="^eps must be nonnegative and finite"):
            check_eps(eps)

    def test_eps_is_returned_as_a_float(self):
        assert [check_eps(v) for v in (0, np.float64(1e-9), "0.5", -0.0)] == [0.0, 1e-9, 0.5, 0.0]
        assert all(type(check_eps(v)) is float for v in (0, np.float64(1e-9)))
        assert math.copysign(1.0, check_eps(-0.0)) == 1.0


def general_mutant(old, new):
    """closedform._general with one fragment of its source replaced."""
    source = inspect.getsource(closedform._general)
    assert source.count(old) == 1
    namespace = dict(vars(closedform))
    exec(source.replace(old, new), namespace)
    return namespace["_general"]


class TestFormulaKernels:
    """max_formula_dev is one comparison of 6x6 payoff kernels per scheme."""

    GAMES = (bos210(), battle_of_sexes(3.0, 2.0, 0.5), battle_of_sexes(5.0, 3.0, 1.0))
    SCHEMES = (CLASSICAL, QUANTUM, SchemeParams(0.7, 0.4), SchemeParams(HP, 0.0),
               SchemeParams(0.0, 0.9))

    @pytest.mark.parametrize("phi_range", sorted(PHI_RANGES))
    def test_closed_forms_are_bilinear_in_the_features(self, phi_range):
        # the premise: the six strategies' kernels give _general everywhere
        rng = np.random.default_rng(27)
        lo, hi = PHI_RANGES[phi_range]
        th1, th2 = rng.uniform(0.0, math.pi, (2, 200))
        ph1, ph2 = rng.uniform(lo, hi, (2, 200))
        f1, f2 = _features(th1, ph1), _features(th2, ph2)
        for game in self.GAMES:
            for scheme in self.SCHEMES:
                want = _general(*game.bos, scheme.gamma, scheme.delta, th1, ph1, th2, ph2)
                for kernel, payoffs in zip(closed_form_kernels(game, scheme), want):
                    got = np.einsum("ip,pq,iq->i", f1, kernel, f2)
                    assert np.abs(got - payoffs).max() <= 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("game", GAMES)
    def test_bound_is_rounding_noise(self, game, scheme):
        row, = sweep(game, [scheme.gamma], [scheme.delta], pure_grid(), eps=1e-9)
        assert row["max_formula_dev"] == kernel_bound(game, scheme)
        assert row["max_formula_dev"] <= 1e-12

    @pytest.mark.parametrize("old,new", [
        ("xi, eta, chi = bos_coefficients(alpha, beta, delta)\n",
         "xi, eta, chi = bos_coefficients(alpha, beta, delta)\n    chi = -chi\n"),
        ("cross = (", "cross = 0 * ("),
    ], ids=["chi-sign-flipped", "cross-term-dropped"])
    def test_catches_a_wrong_closed_form(self, monkeypatch, old, new):
        monkeypatch.setattr(equilibrium, "_general", general_mutant(old, new))
        rows = sweep(bos210(), [0.7, HP], [0.4, HP], pure_grid(), eps=1e-9)
        assert all(row["max_formula_dev"] > 1e-9 for row in rows)

    @pytest.mark.parametrize("game", [PRISONERS, PENNIES], ids=["prisoners", "pennies"])
    def test_games_without_bos_form_report_none(self, monkeypatch, game):
        monkeypatch.setattr(equilibrium, "_general", None)  # never called
        row, = sweep(game, [0.7], [0.4], StrategyGrid(5, 3), eps=1e-9)
        assert row["max_formula_dev"] is None

    @pytest.mark.parametrize("grid", [StrategyGrid(3, 2), StrategyGrid(33, 17)],
                             ids=["3x2", "33x17"])
    def test_one_closed_form_call_per_scheme_whatever_the_grid(self, monkeypatch, grid):
        calls = []

        def counting(*args):
            calls.append(args)
            return _general(*args)

        monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 1)  # one block per grid row
        monkeypatch.setattr(equilibrium, "_general", counting)
        sweep(bos210(), [0.7, 0.3], [0.4, 0.1], grid, eps=1e-9)
        assert len(calls) == 2


def reference_best(alice, bob, eps):
    """Summary pick profile by profile: largest min, then largest sum, then
    first in grid order, as (best_payoff_a, best_payoff_b)."""
    cert = certificates(alice, bob)
    best, best_key = (None, None), None
    for a, b in np.argwhere(cert <= eps):
        pair = (float(alice[a, b]), float(bob[a, b]))
        key = (min(pair), pair[0] + pair[1])
        if best_key is None or key > best_key:
            best_key = key
            best = pair
    return best


class TestSweepSelection:
    """sweep's vectorized summary pick against the profile-by-profile rule."""

    def check(self, game, gamma, delta, grid, eps):
        row, = sweep(game, [gamma], [delta], grid, eps)
        alice, bob = whole_tables(game, SchemeParams(gamma, delta), grid)
        assert (row["best_payoff_a"], row["best_payoff_b"]) == reference_best(alice, bob, eps)
        return row

    @pytest.mark.parametrize("seed", range(6))
    def test_random_games_and_grids(self, seed):
        rng = np.random.default_rng(seed)
        cells = rng.integers(-3, 4, size=(2, 2, 2)).astype(float)
        game = GameMatrix(alice=cells[0], bob=cells[1])
        grid = StrategyGrid(rng.integers(2, 8), rng.integers(1, 6),
                            str(rng.choice(["narrow", "full"])))
        gamma, delta = rng.uniform(0, HP, size=2)
        for eps in (1e-9, 1e-3, 0.5):
            self.check(game, gamma, delta, grid, eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-9])
    def test_classical_ties(self, eps):
        # at gamma = delta = 0 phase copies make hundreds of tied profiles
        row = self.check(bos210(), 0.0, 0.0, StrategyGrid(33, 17), eps)
        assert row["equilibria"] > 300

    def test_sum_breaks_min_ties(self):
        # pure equilibria (1, 2) at OO and (1, 3) at TT tie on min; TT wins
        game = GameMatrix(alice=((1, 0), (0, 1)), bob=((2, 0), (0, 3)))
        row = self.check(game, 0.0, 0.0, pure_grid(), 1e-9)
        assert (row["equilibria"], row["best_payoff_a"], row["best_payoff_b"]) == (2, 1.0, 3.0)

    def test_constant_game_certifies_every_profile(self):
        constant = GameMatrix(alice=((1, 1), (1, 1)), bob=((1, 1), (1, 1)))
        grid = StrategyGrid(9, 5)
        row = self.check(constant, 0.7, 0.3, grid, 1e-9)
        assert row["equilibria"] == 45 ** 2


CONSTANT = GameMatrix(alice=((1, 1), (1, 1)), bob=((1, 1), (1, 1)))
# --matrix 0,1,0,2,0,3,0,4 and 1,0,2,0,3,0,4,0: one player's payoffs are all 0
ALICE_INDIFFERENT = GameMatrix(alice=((0, 0), (0, 0)), bob=((1, 2), (3, 4)))
BOB_INDIFFERENT = GameMatrix(alice=((1, 2), (3, 4)), bob=((0, 0), (0, 0)))
# T is dominant for Alice: classically her payoff grows with theta1 against
# every Bob point, so her column maxima arrive with the last rows (theta1 = pi)
LATE_MAXIMA = GameMatrix(alice=((0, 1), (2, 3)), bob=((1, 0), (0, 1)))

BLOCK_CASES = {
    **{f"bos-{g:.2f}-{d:.2f}": (bos210(), SchemeParams(g, d))
       for g, d in ((0.0, 0.0), (HP, HP), (0.7, 0.4), (HP, 0.0))},
    "prisoners": (PRISONERS, SchemeParams(0.7, 0.4)),
    "pennies": (PENNIES, SchemeParams(HP, 0.3)),
    "constant": (CONSTANT, SchemeParams(0.7, 0.3)),
    "alice-indifferent": (ALICE_INDIFFERENT, SchemeParams(0.7, 0.4)),
    "bob-indifferent": (BOB_INDIFFERENT, SchemeParams(0.7, 0.4)),
    "late-maxima": (LATE_MAXIMA, CLASSICAL),
}


@pytest.fixture
def one_row_blocks(monkeypatch):
    """Certify one Alice grid row per block."""
    monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 1)


@pytest.mark.usefixtures("one_row_blocks")
class TestRowBlocks:
    """The certificate paths, one Alice row per block, against the same
    one-row blocks stacked and certified whole by certificates."""

    @pytest.mark.parametrize("grid", [StrategyGrid(9, 5), StrategyGrid(17, 9, "full")],
                             ids=["9x5", "17x9-full"])
    @pytest.mark.parametrize("game,scheme", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_matches_tables_certified_whole(self, game, scheme, grid):
        alice, bob = whole_tables(game, scheme, grid)
        cert = certificates(alice, bob)
        bound = None
        if game.bos is not None:
            thetas, phis = grid.angles()
            al, bo = _general(*game.bos, scheme.gamma, scheme.delta,
                              thetas[:, np.newaxis], phis[:, np.newaxis],
                              thetas[np.newaxis, :], phis[np.newaxis, :])
            bound = kernel_bound(game, scheme)
            # the kernel bound covers every strategy pair, so the whole grid
            assert max(np.abs(al - alice).max(), np.abs(bo - bob).max()) <= bound
        # certificates the reference attains, the smallest and the median
        # positive one, pin a profile whose eps_cert equals eps as certified
        attained = np.unique(cert[cert > 0])
        ties = attained[[0, len(attained) // 2]].tolist() if len(attained) else []
        for eps in (0.0, 1e-12, 1e-9, *ties):
            a, b = np.nonzero(cert <= eps)
            values = np.stack([alice[a, b], bob[a, b], cert[a, b]], axis=1)
            profiles, got_values = epsilon_nash(game, scheme, grid, eps)
            # flat indices a * n + b: intp, strictly increasing, inside the n x n table
            assert profiles.dtype == np.intp and (np.diff(profiles) > 0).all()
            assert ((profiles >= 0) & (profiles < alice.size)).all()
            got_a, got_b = grid_pairs(grid, profiles)
            assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
            assert np.array_equal(got_values, values)
            assert got_values.tobytes() == values.tobytes()
            row, = sweep(game, [scheme.gamma], [scheme.delta], grid, eps)
            assert ((row["equilibria"], row["best_payoff_a"], row["best_payoff_b"])
                    == (len(a), *reference_best(alice, bob, eps)))
            assert row["max_formula_dev"] == bound

    @pytest.mark.parametrize("grid", [StrategyGrid(9, 5), StrategyGrid(17, 9, "full")],
                             ids=["9x5", "17x9-full"])
    def test_late_maxima_arrive_in_the_last_rows(self, grid):
        # the premise of the late-maxima case: every column's maximum first
        # appears in the last phi_steps rows, all of them the strategy theta = pi
        alice, _ = whole_tables(LATE_MAXIMA, CLASSICAL, grid)
        assert (alice.argmax(axis=0) >= len(alice) - grid.phi_steps).all()

    @pytest.mark.parametrize("scheme,grid", [
        (SchemeParams(0.7, 0.4), StrategyGrid(33, 17)),
        (CLASSICAL, StrategyGrid(33, 17)),
        (SchemeParams(1.2, 0.3), StrategyGrid(65, 33)),
    ], ids=["0.7-0.4-33x17", "classical-33x17", "1.2-0.3-65x33"])
    def test_each_prune_visits_the_chunks_since_the_last(self, monkeypatch, scheme, grid):
        # the chunks left by a prune are merged into one, so _keep sees each
        # block's chunk once, the merged chunk once a prune and once at the
        # end: linear in the blocks, where visiting every held chunk at each
        # prune made 6,602, 5,271 and 17,966 calls
        events = []
        blocks, keep = equilibrium.table_blocks, equilibrium._keep

        def tracking_blocks(*args):
            for block in blocks(*args):
                events.append("block")
                yield block
            events.append("end")

        def tracking_keep(*args):
            events.append("keep")
            return keep(*args)

        monkeypatch.setattr(equilibrium, "table_blocks", tracking_blocks)
        monkeypatch.setattr(equilibrium, "_keep", tracking_keep)
        epsilon_nash(bos210(), scheme, grid, eps=1e-9)
        # a prune is a run of _keep calls right after a block
        prunes = sum(1 for i, event in enumerate(events)
                     if event == "block" and events[i + 1:i + 2] == ["keep"])
        n = grid.theta_steps * grid.phi_steps
        assert events.count("block") == n
        assert events.count("keep") <= n + prunes + 1, (events.count("keep"), prunes)


class TestProfileLimit:
    """The certificate paths build no whole table: MAX_TABLE_BYTES bounds the
    candidate profiles they hold, at PROFILE_BYTES each, instead."""

    def test_table_limit_does_not_apply(self, monkeypatch):
        grid, scheme = StrategyGrid(9, 5), SchemeParams(0.7, 0.4)
        nash = epsilon_nash(bos210(), scheme, grid, eps=1e-9)
        rows = sweep(bos210(), [0.7, HP], [0.4, 0.3], grid, eps=1e-9)
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 32 * 45 ** 2 - 1)
        got = epsilon_nash(bos210(), scheme, grid, eps=1e-9)
        assert all(np.array_equal(x, y) for x, y in zip(got, nash))
        assert sweep(bos210(), [0.7, HP], [0.4, 0.3], grid, eps=1e-9) == rows

    def test_limit_is_inclusive(self, monkeypatch):
        grid = StrategyGrid(3, 2)  # the constant game certifies all 36 profiles
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 36 * PROFILE_BYTES)
        assert len(epsilon_nash(CONSTANT, QUANTUM, grid, eps=1e-9)[0]) == 36
        assert sweep(CONSTANT, [HP], [HP], grid, eps=1e-9)[0]["equilibria"] == 36
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 36 * PROFILE_BYTES - 1)
        message = (f"3x2 grid holds over 35 candidate profiles, the limit of "
                   f"{36 * PROFILE_BYTES - 1} bytes")
        with pytest.raises(ValueError, match=message):
            epsilon_nash(CONSTANT, QUANTUM, grid, eps=1e-9)
        with pytest.raises(ValueError, match=message):
            sweep(CONSTANT, [HP], [HP], grid, eps=1e-9)

    def test_profile_bytes_are_one_index_and_three_values(self):
        profiles, values = epsilon_nash(CONSTANT, QUANTUM, StrategyGrid(3, 2), eps=1e-9)
        assert len(profiles) == 36
        assert PROFILE_BYTES == profiles.itemsize + values.shape[1] * values.itemsize

    @pytest.mark.usefixtures("one_row_blocks")
    def test_ruled_out_candidates_are_dropped(self, monkeypatch):
        # Bob is indifferent and Alice's classical payoff grows with theta1,
        # so each theta1 value certifies its 5 rows until the next one beats
        # them: only the last 5 * 45 stay, and only if the others are dropped
        grid = StrategyGrid(9, 5)
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 5 * 45 * PROFILE_BYTES)
        a, b = grid_pairs(grid, epsilon_nash(BOB_INDIFFERENT, CLASSICAL, grid, eps=1e-9)[0])
        assert (a.tolist(), b.tolist()) == ([i for i in range(40, 45) for _ in range(45)],
                                            list(range(45)) * 5)


class TestRowBlockMemory:
    @pytest.mark.parametrize("search", [
        lambda grid: epsilon_nash(bos210(), SchemeParams(0.7, 0.4), grid, eps=1e-9),
        lambda grid: sweep(bos210(), [0.7], [0.4], grid, eps=1e-9),
    ], ids=["epsilon_nash", "sweep"])
    def test_peak_far_below_the_whole_table(self, search):
        grid = StrategyGrid(65, 33)  # whole tables: 32 * 2145^2 bytes, 147 MB
        tracemalloc.start()
        try:
            search(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_held_profiles_peak_at_twice_the_result(self):
        # the constant game certifies all 561^2 profiles of 33x17, held in
        # chunks (merged at each prune) until they are concatenated: 32 bytes
        # a profile held and 32 in the result. Holding the last block's
        # tables or chunk into the concatenation would add more
        tracemalloc.start()
        try:
            profiles, values = epsilon_nash(CONSTANT, SchemeParams(0.3, 0.2),
                                            StrategyGrid(33, 17), eps=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(profiles) == 561 ** 2
        assert profiles.nbytes + values.nbytes == 32 * 561 ** 2
        assert peak < 2.1 * (profiles.nbytes + values.nbytes), peak

    def test_each_block_of_probabilities_is_freed(self, monkeypatch):
        # only the payoffs are certified, so neither table_blocks nor the
        # certificates may hold a block's probabilities into the next block
        freed = []

        def tracking(*args):
            assert all(ref() is None for ref in freed)
            probs = probability_tables(*args)
            freed.append(weakref.ref(probs))
            return probs

        monkeypatch.setattr(equilibrium, "probability_tables", tracking)
        monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 4 * 32 * 15)
        grid = StrategyGrid(5, 3)  # blocks of 4, 4, 4 and 3 rows
        epsilon_nash(bos210(), SchemeParams(0.7, 0.4), grid, eps=1e-9)
        sweep(bos210(), [0.7], [0.4], grid, eps=1e-9)
        assert len(freed) == 8

    def test_a_handed_over_block_is_unreferenced(self, monkeypatch):
        # table_blocks keeps nothing of a block it has handed over, so a
        # consumer that drops the block frees it before asking for the next
        monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 4 * 32 * 15)
        blocks = table_blocks(bos210(), SchemeParams(0.7, 0.4), StrategyGrid(5, 3))
        for _ in range(4):  # blocks of 4, 4, 4 and 3 rows
            block = next(blocks)
            refs = [weakref.ref(table) for table in block[1:]]  # probs, alice, bob
            del block
            assert all(ref() is None for ref in refs)
        assert next(blocks, None) is None

    def test_each_block_of_payoffs_is_freed_before_the_next(self, monkeypatch):
        # the certificates hold copies of the candidates only, so a block's
        # payoff tables may not live on while the next block is built
        payoffs = []
        table_block = equilibrium._table_block

        def keeping(*args):
            block = table_block(*args)
            payoffs.extend(weakref.ref(table) for table in block[2:])
            return block

        def tracking(*args):
            assert all(ref() is None for ref in payoffs)
            return probability_tables(*args)

        monkeypatch.setattr(equilibrium, "_table_block", keeping)
        monkeypatch.setattr(equilibrium, "probability_tables", tracking)
        monkeypatch.setattr(equilibrium, "BLOCK_BYTES", 4 * 32 * 15)
        grid = StrategyGrid(5, 3)  # blocks of 4, 4, 4 and 3 rows
        epsilon_nash(bos210(), SchemeParams(0.7, 0.4), grid, eps=1e-9)
        sweep(bos210(), [0.7], [0.4], grid, eps=1e-9)
        assert len(payoffs) == 2 * 8
