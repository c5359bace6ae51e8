import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qgame import equilibrium
from qgame.equilibrium import (
    MAX_TABLE_BYTES,
    StrategyGrid,
    best_response,
    certified_profiles,
    epsilon_nash,
    payoff_tables,
    probability_tables,
    sweep,
    sweep_schemes,
)
from qgame.scheme import (
    GameMatrix,
    PayoffPair,
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


class TestPayoffTables:
    def test_matches_scalar_oracle_pointwise(self):
        game = GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))
        grid = StrategyGrid(3, 2)
        scheme = SchemeParams(0.7, 0.4)
        alice, bob = payoff_tables(game, scheme, grid)
        pts = grid.points()
        for a, s1 in enumerate(pts):
            for b, s2 in enumerate(pts):
                want = payoffs_oracle(game, scheme, s1, s2)
                assert alice[a, b] == pytest.approx(want.alice, abs=1e-12)
                assert bob[a, b] == pytest.approx(want.bob, abs=1e-12)

    def test_probability_tables_sum_to_one(self):
        probs = probability_tables(SchemeParams(1.0, 0.5), StrategyGrid(4, 3))
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-9)
        assert (probs >= -1e-15).all()

    def test_probabilities_never_negative(self):
        # at gamma = delta = pi/2 many probabilities are exactly zero, and the
        # rank-6 product rounds some of them to about -1e-16 before clipping
        probs = probability_tables(QUANTUM, StrategyGrid(33, 17))
        assert probs.min() >= 0.0

    def test_tables_call_basis_once_and_no_scalar_path(self, monkeypatch):
        # a traced `qgame verify` run counts these calls exactly; the tables
        # must add one measurement basis and nothing from the scalar paths
        counts = Counter()

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for module_name, module in list(sys.modules.items()):
            if module_name != "qgame" and not module_name.startswith("qgame."):
                continue
            for name in ("measurement_basis", "payoffs_oracle", "payoff_general"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        scheme, grid = SchemeParams(0.7, 0.4), StrategyGrid(5, 3)
        probability_tables(scheme, grid)
        assert counts == {"measurement_basis": 1}
        payoff_tables(bos210(), scheme, grid)
        epsilon_nash(bos210(), scheme, grid, eps=1e-9)
        best_response(bos210(), scheme, StrategyParams(0, 0), "bob", grid)
        assert counts == {"measurement_basis": 4}


class TestTableSizeLimit:
    def test_oversized_grid_rejected_before_allocating(self):
        # 181x91 needs 32 * 16471^2 bytes, about 8.7 GB
        grid = StrategyGrid(181, 91)
        assert 32 * (181 * 91) ** 2 > MAX_TABLE_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"181x91.*limit of {MAX_TABLE_BYTES} bytes"):
                probability_tables(QUANTUM, grid)
            with pytest.raises(ValueError, match="limit"):
                payoff_tables(bos210(), QUANTUM, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_epsilon_nash_and_sweep_rejected(self):
        grid = StrategyGrid(181, 91)
        with pytest.raises(ValueError, match="limit"):
            epsilon_nash(bos210(), QUANTUM, grid, eps=1e-9)
        with pytest.raises(ValueError, match="limit"):
            sweep(bos210(), [0.0], [0.0], grid, eps=1e-9)

    def test_limit_is_inclusive(self, monkeypatch):
        grid = StrategyGrid(3, 2)  # 32 * 6^2 = 1152 bytes
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 1152)
        assert probability_tables(QUANTUM, grid).nbytes == 1152
        monkeypatch.setattr(equilibrium, "MAX_TABLE_BYTES", 1151)
        with pytest.raises(ValueError, match="3x2 grid needs 1152 bytes"):
            probability_tables(QUANTUM, grid)


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
        np.testing.assert_allclose(probability_tables(scheme, grid), want,
                                   rtol=0, atol=1e-12)
        index = {(p.theta, p.phi): i for i, p in enumerate(pts)}
        for game in self.GAMES:
            oracle = [[payoffs_oracle(game, scheme, s1, s2) for s2 in pts] for s1 in pts]
            want_a = np.array([[o.alice for o in row] for row in oracle])
            want_b = np.array([[o.bob for o in row] for row in oracle])
            alice, bob = payoff_tables(game, scheme, grid)
            np.testing.assert_allclose(alice, want_a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(bob, want_b, rtol=0, atol=1e-12)
            # eps = 0 would count genuine ties by rounding luck
            cert = np.maximum(want_a.max(axis=0) - want_a,
                              want_b.max(axis=1)[:, np.newaxis] - want_b)
            for eps in (1e-12, 1e-9, 1e-6):
                got = {(index[(r.s1.theta, r.s1.phi)], index[(r.s2.theta, r.s2.phi)])
                       for r in epsilon_nash(game, scheme, grid, eps)}
                assert got == {tuple(ab) for ab in np.argwhere(cert <= eps).tolist()}

    @pytest.mark.parametrize("grid", GRIDS, ids=["5x3", "5x4-full", "2x1"])
    @pytest.mark.parametrize("gamma,delta", SCHEMES)
    def test_certified_profiles_match_epsilon_nash(self, gamma, delta, grid):
        scheme = SchemeParams(gamma, delta)
        pts = grid.points()
        for game in self.GAMES:
            alice, bob = payoff_tables(game, scheme, grid)
            cert = np.maximum(alice.max(axis=0) - alice, bob.max(axis=1)[:, np.newaxis] - bob)
            for eps in (1e-12, 1e-9, 1e-6):
                a, b, values = certified_profiles(game, scheme, grid, eps)
                results = epsilon_nash(game, scheme, grid, eps)
                assert np.column_stack([a, b]).tolist() == np.argwhere(cert <= eps).tolist()
                assert [(pts[i], pts[j]) for i, j in zip(a.tolist(), b.tolist())] == \
                    [(r.s1, r.s2) for r in results]
                assert values.shape == (len(results), 3)
                assert values.tolist() == [[r.payoffs.alice, r.payoffs.bob, r.eps_cert]
                                           for r in results]
                assert values.tolist() == np.column_stack(
                    [alice[a, b], bob[a, b], cert[a, b]]).tolist()


class TestBestResponse:
    def test_classical_reply_to_opera(self):
        top, ties = best_response(bos210(), CLASSICAL, StrategyParams(0, 0), "alice",
                                  StrategyGrid(3, 1))
        assert top == pytest.approx(2.0, abs=1e-12)
        assert [p.theta for p in ties] == [0.0]

    def test_classical_reply_to_tv(self):
        top, ties = best_response(bos210(), CLASSICAL, StrategyParams(math.pi, 0),
                                  "alice", StrategyGrid(3, 1))
        assert top == pytest.approx(1.0, abs=1e-12)
        assert [p.theta for p in ties] == [math.pi]

    def test_quantum_reply_to_identity(self):
        # at gamma = delta = pi/2 the phase-free identity reply is uniquely
        # best for Alice (payoff alpha); the pure phase move (0, pi/2) instead
        # hands her beta and Bob alpha.
        top, ties = best_response(bos210(), QUANTUM, StrategyParams(0, 0), "alice",
                                  StrategyGrid(9, 9))
        assert top == pytest.approx(2.0, abs=1e-12)
        assert [(p.theta, p.phi) for p in ties] == [(0.0, 0.0)]
        at_argmax = payoffs_oracle(bos210(), QUANTUM, ties[0], StrategyParams(0, 0))
        assert at_argmax.bob == pytest.approx(1.0, abs=1e-12)
        phase_move = payoffs_oracle(bos210(), QUANTUM, StrategyParams(0, HP),
                                    StrategyParams(0, 0))
        assert (phase_move.alice, phase_move.bob) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_bob_side(self):
        top, ties = best_response(bos210(), QUANTUM, StrategyParams(0, 0), "bob",
                                  StrategyGrid(9, 9))
        # Bob's phase move against identity reaches alpha
        assert top == pytest.approx(2.0, abs=1e-12)
        assert (0.0, HP) in [(p.theta, p.phi) for p in ties]

    def test_invalid_responder(self):
        with pytest.raises(ValueError, match="responder"):
            best_response(bos210(), CLASSICAL, StrategyParams(0, 0), "carol",
                          StrategyGrid(2, 1))


class TestEpsilonNash:
    def test_classical_pure_equilibria(self):
        results = epsilon_nash(bos210(), CLASSICAL, pure_grid(), eps=1e-9)
        assert [(r.s1.theta, r.s2.theta) for r in results] == [(0.0, 0.0),
                                                               (math.pi, math.pi)]
        assert [r.payoffs.alice for r in results] == pytest.approx([2.0, 1.0])
        assert [r.payoffs.bob for r in results] == pytest.approx([1.0, 2.0])
        assert all(r.eps_cert <= 1e-12 for r in results)

    def test_single_point_grid(self):
        results = epsilon_nash(bos210(), CLASSICAL, StrategyGrid(1, 1), eps=0.0)
        assert len(results) == 1
        assert results[0].eps_cert == 0.0

    def test_interior_theta_point_excluded(self):
        results = epsilon_nash(bos210(), CLASSICAL, StrategyGrid(3, 1), eps=0.0)
        thetas = [(r.s1.theta, r.s2.theta) for r in results]
        assert thetas == [(0.0, 0.0), (math.pi, math.pi)]

    def test_certificates_verified_by_scalar_oracle(self):
        game = bos210()
        scheme = SchemeParams(0.9, 0.4)
        grid = StrategyGrid(5, 3)
        pts = grid.points()
        for r in epsilon_nash(game, scheme, grid, eps=0.05):
            own = payoffs_oracle(game, scheme, r.s1, r.s2)
            best_a = max(payoffs_oracle(game, scheme, p, r.s2).alice for p in pts)
            best_b = max(payoffs_oracle(game, scheme, r.s1, p).bob for p in pts)
            recomputed = max(best_a - own.alice, best_b - own.bob)
            assert r.eps_cert == pytest.approx(recomputed, abs=1e-12)
            assert r.eps_cert <= 0.05

    def test_refinement_keeps_strict_equilibria_certified(self):
        game = bos210()
        last = 0.0
        for steps in (2, 3, 5, 9, 33):
            results = epsilon_nash(game, CLASSICAL, StrategyGrid(steps, 1), eps=1e-9)
            pure = {(r.s1.theta, r.s2.theta): r.eps_cert for r in results}
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
        alice, bob = payoff_tables(game, CLASSICAL, grid)
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
        assert epsilon_nash(pennies, CLASSICAL, pure_grid(), eps=1e-9) == []


class TestSweep:
    def test_classical_single_pair(self):
        rows = sweep(bos210(), [0.0], [0.0], pure_grid(), eps=1e-9)
        assert len(rows) == 1
        row = rows[0]
        assert row.equilibria == 2
        assert (row.best.alice, row.best.bob) == pytest.approx((2.0, 1.0))
        assert row.max_formula_dev <= 1e-9

    def test_rows_follow_input_order(self):
        rows = sweep(bos210(), [0.0, HP], [0.0, HP], pure_grid(), eps=1e-9)
        assert [(r.gamma, r.delta) for r in rows] == [(0.0, 0.0), (HP, HP)]

    def test_singleton_broadcast(self):
        rows = sweep(bos210(), [0.0, 0.5, HP], [0.0], pure_grid(), eps=1e-9)
        assert [(r.gamma, r.delta) for r in rows] == [(0.0, 0.0), (0.5, 0.0), (HP, 0.0)]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="pair up"):
            sweep(bos210(), [0.0, 0.5], [0.0, 0.1, 0.2], pure_grid(), eps=1e-9)

    def test_formula_deviation_small_everywhere(self):
        rows = sweep(bos210(), [0.0, 0.7, HP], [0.3, 0.3, 0.3], StrategyGrid(5, 3),
                     eps=1e-9)
        assert all(r.max_formula_dev <= 1e-9 for r in rows)

    def test_no_deviation_reported_for_untagged_games(self):
        pennies = GameMatrix(alice=((1, -1), (-1, 1)), bob=((-1, 1), (1, -1)))
        rows = sweep(pennies, [0.0], [0.0], pure_grid(), eps=1e-9)
        assert rows[0].max_formula_dev is None
        assert rows[0].best is None and rows[0].equilibria == 0

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
        assert (rows[0].best.alice, rows[0].best.bob) == pytest.approx((2.0, 1.0))

    @pytest.mark.parametrize("gammas,deltas,grid,message", [
        ([0.3, 2.0], [0.1], pure_grid(), "gamma must be in"),
        ([0.0, 0.5], [0.0, 0.1, 0.2], pure_grid(), "pair up"),
        ([0.0], [0.0], StrategyGrid(181, 91), "181x91"),
    ], ids=["second-pair-out-of-range", "mismatched-lengths", "oversized-grid"])
    def test_inputs_rejected_before_any_table(self, monkeypatch, gammas, deltas, grid,
                                              message):
        calls = []

        def counting(*args):
            calls.append(args)
            return probability_tables(*args)

        monkeypatch.setattr(equilibrium, "probability_tables", counting)
        with pytest.raises(ValueError, match=message):
            sweep_schemes(gammas, deltas, grid)
        with pytest.raises(ValueError, match=message):
            sweep(bos210(), gammas, deltas, grid, eps=1e-9)
        assert calls == []


def reference_best(alice, bob, eps):
    """Summary pick profile by profile: largest min, then largest sum, then
    first in grid order."""
    cert = equilibrium._certificates(alice, bob)
    best = best_key = None
    for a, b in np.argwhere(cert <= eps):
        pair = (float(alice[a, b]), float(bob[a, b]))
        key = (min(pair), pair[0] + pair[1])
        if best_key is None or key > best_key:
            best_key = key
            best = PayoffPair(*pair)
    return best


class TestSweepSelection:
    """sweep's vectorized summary pick against the profile-by-profile rule."""

    def check(self, game, gamma, delta, grid, eps):
        row, = sweep(game, [gamma], [delta], grid, eps)
        alice, bob = payoff_tables(game, SchemeParams(gamma, delta), grid)
        assert row.best == reference_best(alice, bob, eps)
        return row

    @pytest.mark.parametrize("seed", range(6))
    def test_random_games_and_grids(self, seed):
        rng = np.random.default_rng(seed)
        cells = rng.integers(-3, 4, size=(2, 2, 2)).astype(float)
        game = GameMatrix(alice=cells[0], bob=cells[1])
        grid = StrategyGrid(int(rng.integers(2, 8)), int(rng.integers(1, 6)),
                            str(rng.choice(["narrow", "full"])))
        gamma, delta = rng.uniform(0, HP, size=2)
        for eps in (1e-9, 1e-3, 0.5):
            self.check(game, gamma, delta, grid, eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-9])
    def test_classical_ties(self, eps):
        # at gamma = delta = 0 phase copies make hundreds of tied profiles
        row = self.check(bos210(), 0.0, 0.0, StrategyGrid(33, 17), eps)
        assert row.equilibria > 300

    def test_sum_breaks_min_ties(self):
        # pure equilibria (1, 2) at OO and (1, 3) at TT tie on min; TT wins
        game = GameMatrix(alice=((1, 0), (0, 1)), bob=((2, 0), (0, 3)))
        row = self.check(game, 0.0, 0.0, pure_grid(), 1e-9)
        assert (row.equilibria, row.best) == (2, PayoffPair(1.0, 3.0))

    def test_constant_game_certifies_every_profile(self):
        constant = GameMatrix(alice=((1, 1), (1, 1)), bob=((1, 1), (1, 1)))
        grid = StrategyGrid(9, 5)
        row = self.check(constant, 0.7, 0.3, grid, 1e-9)
        assert row.equilibria == 45 ** 2
