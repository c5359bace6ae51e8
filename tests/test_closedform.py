import math

import numpy as np
import pytest

from qgame.closedform import (
    _general,
    bos_coefficients,
    payoff_case_a_i,
    payoff_case_a_ii,
    payoff_case_b_i,
    payoff_case_b_ii,
    payoff_case_c,
    payoff_case_d,
    payoff_du_maximal,
    payoff_general,
)
from qgame.equilibrium import StrategyGrid
from qgame.scheme import (
    GameMatrix,
    SchemeParams,
    StrategyParams,
    battle_of_sexes,
    payoffs_oracle,
)
from qgame.verification import IDENTITY_TOL, ORACLE_TOL

HP = math.pi / 2


def bos210():
    return battle_of_sexes(2.0, 1.0, 0.0)


def draw_bos(rng):
    while True:
        lo, mid, hi = np.sort(rng.uniform(0.0, 5.0, size=3))
        if lo < mid < hi:
            return battle_of_sexes(float(hi), float(mid), float(lo))


def draw_strategy(rng, full_phi=False):
    return StrategyParams(float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, 2 * math.pi if full_phi else HP)))


def dev(x, y):
    return max(abs(x.alice - y.alice), abs(x.bob - y.bob))


class TestBosCoefficients:
    def test_measurement_off(self):
        xi, eta, chi = bos_coefficients(2.0, 1.0, 0.0)
        assert (xi, eta, chi) == (2.0, 1.0, 0.0)

    def test_measurement_maximal(self):
        xi, eta, chi = bos_coefficients(2.0, 1.0, HP)
        assert (xi, eta, chi) == pytest.approx((1.5, 1.5, 0.5))

    def test_sum_rule_and_chi_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(0, 5, size=2))
            if lo == hi:
                continue
            delta = float(rng.uniform(0, HP))
            xi, eta, chi = bos_coefficients(float(hi), float(lo), delta)
            assert xi + eta == pytest.approx(hi + lo, abs=1e-12)
            assert -1e-12 <= chi <= (hi - lo) / 2 + 1e-12

    def test_role_swap_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha, beta = (float(v) for v in rng.uniform(-5, 5, size=2))
            delta = float(rng.uniform(0, HP))
            xi, eta, chi = bos_coefficients(alpha, beta, delta)
            assert bos_coefficients(beta, alpha, delta) == (eta, xi, -chi)


class TestPayoffGeneral:
    def test_classical_limit(self):
        got = payoff_general(bos210(), SchemeParams(0, 0), StrategyParams(0, 0),
                             StrategyParams(0, 0))
        assert (got.alice, got.bob) == (2.0, 1.0)

    def test_quantum_phase_point(self):
        got = payoff_general(bos210(), SchemeParams(HP, HP), StrategyParams(0, HP),
                             StrategyParams(0, 0))
        assert (got.alice, got.bob) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_entangled_computational_point(self):
        got = payoff_general(bos210(), SchemeParams(HP, 0), StrategyParams(0, 0),
                             StrategyParams(0, 0))
        assert (got.alice, got.bob) == pytest.approx((1.5, 1.5), abs=1e-12)

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(500):
            game = draw_bos(rng)
            scheme = SchemeParams(float(rng.uniform(0, HP)), float(rng.uniform(0, HP)))
            s1, s2 = draw_strategy(rng), draw_strategy(rng)
            worst = max(worst, dev(payoff_general(game, scheme, s1, s2),
                                   payoffs_oracle(game, scheme, s1, s2)))
        assert worst <= 1e-9

    def test_matches_oracle_with_full_phase_range(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(500):
            game = draw_bos(rng)
            scheme = SchemeParams(float(rng.uniform(0, HP)), float(rng.uniform(0, HP)))
            s1 = draw_strategy(rng, full_phi=True)
            s2 = draw_strategy(rng, full_phi=True)
            worst = max(worst, dev(payoff_general(game, scheme, s1, s2),
                                   payoffs_oracle(game, scheme, s1, s2)))
        assert worst <= 1e-9

    def test_rejects_matrix_without_bos_form(self):
        pd = GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))
        with pytest.raises(ValueError, match="battle-of-sexes"):
            payoff_general(pd, SchemeParams(0, 0), StrategyParams(0, 0),
                           StrategyParams(0, 0))

    def test_role_swap_symmetry(self):
        # swapping alpha and beta in the formula exchanges the players' payoffs
        rng = np.random.default_rng(107)
        for _ in range(200):
            lo, mid, hi = np.sort(rng.uniform(0, 5, size=3))
            gamma, delta = rng.uniform(0, HP, size=2)
            th1, th2 = rng.uniform(0, math.pi, size=2)
            ph1, ph2 = rng.uniform(0, 2 * math.pi, size=2)
            a1, b1 = _general(hi, mid, lo, gamma, delta, th1, ph1, th2, ph2)
            a2, b2 = _general(mid, hi, lo, gamma, delta, th2, ph2, th1, ph1)
            assert a2 == pytest.approx(b1, abs=1e-12)
            assert b2 == pytest.approx(a1, abs=1e-12)

    @pytest.mark.parametrize("phi_range", ["narrow", "full"])
    def test_broadcast_grid_matches_scalar_calls(self, phi_range):
        # equilibrium.sweep evaluates Alice's grid points along one axis and
        # Bob's along the other, with trig taken once per strategy
        grid = StrategyGrid(7, 5, phi_range=phi_range)
        thetas, phis = grid.angles()
        game, scheme = battle_of_sexes(3.1, 1.7, 0.4), SchemeParams(0.9, 0.35)
        alice, bob = _general(*game.bos, scheme.gamma, scheme.delta,
                              thetas[:, np.newaxis], phis[:, np.newaxis],
                              thetas[np.newaxis, :], phis[np.newaxis, :])
        assert alice.shape == bob.shape == (len(thetas), len(thetas))
        pts = grid.points()
        for i, s1 in enumerate(pts):
            for j, s2 in enumerate(pts):
                want = payoff_general(game, scheme, s1, s2)
                assert abs(alice[i, j] - want.alice) <= 1e-13
                assert abs(bob[i, j] - want.bob) <= 1e-13

    @pytest.mark.parametrize("phi_hi", [HP, 2 * math.pi], ids=["narrow", "full"])
    def test_one_profile_is_a_one_element_grid_bit_for_bit(self, phi_hi):
        # one profile's trig comes from math, a grid's from numpy arrays, and
        # both must give the same floats; the grid path passes the scheme's
        # gamma and delta as floats
        rng = np.random.default_rng(113)
        cases = []
        for _ in range(10_000):
            game = draw_bos(rng)
            g, d = (float(x) for x in rng.uniform(0, HP, size=2))
            t1, t2 = (float(x) for x in rng.uniform(0, math.pi, size=2))
            p1, p2 = (float(x) for x in rng.uniform(0, phi_hi, size=2))
            cases.append((game, g, d, t1, p1, t2, p2))
        ends = (0.0, HP, math.pi)
        phis = ends if phi_hi > math.pi else ends[:2]
        game = battle_of_sexes(3.1, 1.7, 0.4)
        cases += [(game, g, d, t1, p1, t2, p2) for g in ends[:2] for d in ends[:2]
                  for t1 in ends for p1 in phis for t2 in ends for p2 in phis]
        one, floats, grids = [], [], []
        for game, g, d, t1, p1, t2, p2 in cases:
            pair = payoff_general(game, SchemeParams(g, d), StrategyParams(t1, p1),
                                  StrategyParams(t2, p2))
            one += [pair.alice, pair.bob]
            got = _general(*game.bos, g, d, t1, p1, t2, p2)
            assert all(type(x) is float for x in got)
            floats += got
            grid = _general(*game.bos, g, d, *(np.array([x]) for x in (t1, p1, t2, p2)))
            grids += [x.item() for x in grid]
        bits = [np.array(x).view(np.int64) for x in (one, floats, grids)]
        assert len(bits[0]) == 2 * len(cases)
        np.testing.assert_array_equal(bits[0], bits[2])
        np.testing.assert_array_equal(bits[1], bits[2])


class TestCaseAI:
    def test_classical_matched(self):
        got = payoff_case_a_i(bos210(), 0.0, 0.0, 0.0)
        assert (got.alice, got.bob) == (2.0, 1.0)

    def test_classical_even_mix(self):
        got = payoff_case_a_i(bos210(), 0.0, HP, HP)
        assert (got.alice, got.bob) == pytest.approx((0.75, 0.75), abs=1e-15)

    def test_maximal_entanglement_identity_play(self):
        got = payoff_case_a_i(bos210(), HP, 0.0, 0.0)
        assert (got.alice, got.bob) == pytest.approx((1.5, 1.5), abs=1e-15)

    def test_reduces_general(self):
        rng = np.random.default_rng(109)
        for _ in range(300):
            game = draw_bos(rng)
            gamma = float(rng.uniform(0, HP))
            th1, th2 = (float(v) for v in rng.uniform(0, math.pi, size=2))
            got = payoff_case_a_i(game, gamma, th1, th2)
            want = payoff_general(game, SchemeParams(gamma, 0.0),
                                  StrategyParams(th1, 0.0), StrategyParams(th2, 0.0))
            assert dev(got, want) <= 1e-12


class TestCaseAII:
    def test_unentangled_matches_case_a_i(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            game = draw_bos(rng)
            th1, th2 = (float(v) for v in rng.uniform(0, math.pi, size=2))
            assert dev(payoff_case_a_ii(game, 0.0, th1, th2),
                       payoff_case_a_i(game, 0.0, th1, th2)) == 0.0

    def test_interference_vanishes_at_theta_zero(self):
        game = bos210()
        assert dev(payoff_case_a_ii(game, HP, 0.0, 1.3),
                   payoff_case_a_i(game, HP, 0.0, 1.3)) == 0.0

    def test_maximal_entanglement_even_mix(self):
        # frozen from the simulation oracle: interference lifts 0.75 to 1.5
        got = payoff_case_a_ii(bos210(), HP, HP, HP)
        assert (got.alice, got.bob) == pytest.approx((1.5, 1.5), abs=1e-12)
        oracle = payoffs_oracle(bos210(), SchemeParams(HP, 0.0),
                                StrategyParams(HP, HP), StrategyParams(HP, 0.0))
        assert dev(got, oracle) <= 1e-9

    def test_reduces_general(self):
        rng = np.random.default_rng(127)
        for _ in range(300):
            game = draw_bos(rng)
            gamma = float(rng.uniform(0, HP))
            th1, th2 = (float(v) for v in rng.uniform(0, math.pi, size=2))
            split = float(rng.uniform(0, HP))
            got = payoff_case_a_ii(game, gamma, th1, th2)
            want = payoff_general(game, SchemeParams(gamma, 0.0),
                                  StrategyParams(th1, split),
                                  StrategyParams(th2, HP - split))
            assert dev(got, want) <= 1e-12


class TestCaseBI:
    def test_unentangled_is_classical(self):
        got = payoff_case_b_i(bos210(), 0.0, StrategyParams(0, 0.3), StrategyParams(0, 0.2))
        assert (got.alice, got.bob) == pytest.approx((2.0, 1.0), abs=1e-15)

    def test_quantum_phase_point(self):
        got = payoff_case_b_i(bos210(), HP, StrategyParams(0, HP), StrategyParams(0, 0))
        assert (got.alice, got.bob) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_reduces_general_at_matched_angles(self):
        rng = np.random.default_rng(131)
        for _ in range(300):
            game = draw_bos(rng)
            gamma = float(rng.uniform(0, HP))
            s1, s2 = draw_strategy(rng), draw_strategy(rng)
            got = payoff_case_b_i(game, gamma, s1, s2)
            want = payoff_general(game, SchemeParams(gamma, gamma), s1, s2)
            assert dev(got, want) <= 1e-12


class TestDuMaximal:
    def test_double_flip_same_for_both_forms(self):
        s1, s2 = StrategyParams(math.pi, 0.7), StrategyParams(math.pi, 0.1)
        for form in ("printed", "corrected"):
            got = payoff_du_maximal(bos210(), s1, s2, form)
            assert (got.alice, got.bob) == pytest.approx((1.0, 2.0), abs=1e-15)

    def test_probe_point_separates_the_forms(self):
        s1, s2 = StrategyParams(0, HP), StrategyParams(0, 0)
        printed = payoff_du_maximal(bos210(), s1, s2, "printed")
        corrected = payoff_du_maximal(bos210(), s1, s2, "corrected")
        assert (printed.alice, printed.bob) == pytest.approx((3.0, 3.0), abs=1e-12)
        assert (corrected.alice, corrected.bob) == pytest.approx((1.0, 2.0), abs=1e-12)
        oracle = payoffs_oracle(bos210(), SchemeParams(HP, HP), s1, s2)
        assert dev(corrected, oracle) <= 1e-9
        # the printed variant even escapes the convex hull of the payoffs
        assert printed.alice > 2.0

    def test_zero_phases_select_matched_payoff(self):
        got = payoff_du_maximal(bos210(), StrategyParams(0, 0), StrategyParams(0, 0),
                                "corrected")
        assert (got.alice, got.bob) == pytest.approx((2.0, 1.0), abs=1e-15)

    def test_corrected_matches_oracle(self):
        rng = np.random.default_rng(137)
        scheme = SchemeParams(HP, HP)
        worst = 0.0
        for _ in range(300):
            game = draw_bos(rng)
            s1, s2 = draw_strategy(rng), draw_strategy(rng)
            worst = max(worst, dev(payoff_du_maximal(game, s1, s2, "corrected"),
                                   payoffs_oracle(game, scheme, s1, s2)))
        assert worst <= 1e-9

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="form"):
            payoff_du_maximal(bos210(), StrategyParams(0, 0), StrategyParams(0, 0), "best")


class TestCaseBII:
    def test_pure_profiles(self):
        game = bos210()
        got = payoff_case_b_ii(game, 0.0, 0.0)
        assert (got.alice, got.bob) == (2.0, 1.0)
        got = payoff_case_b_ii(game, 0.0, math.pi)
        assert (got.alice, got.bob) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_even_mix(self):
        got = payoff_case_b_ii(bos210(), HP, HP)
        assert (got.alice, got.bob) == pytest.approx((0.75, 0.75), abs=1e-15)

    def test_reduces_general(self):
        rng = np.random.default_rng(139)
        for _ in range(300):
            game = draw_bos(rng)
            th1, th2 = (float(v) for v in rng.uniform(0, math.pi, size=2))
            got = payoff_case_b_ii(game, th1, th2)
            want = payoff_general(game, SchemeParams(HP, HP),
                                  StrategyParams(th1, 0.0), StrategyParams(th2, 0.0))
            assert dev(got, want) <= 1e-12


class TestCaseC:
    def test_matched_angles_cancel(self):
        rng = np.random.default_rng(149)
        for _ in range(100):
            game = draw_bos(rng)
            angle = float(rng.uniform(0, HP))
            th1, th2 = (float(v) for v in rng.uniform(0, math.pi, size=2))
            got = payoff_case_c(game, angle, angle, th1, th2)
            want = payoff_case_a_i(game, 0.0, th1, th2)
            assert dev(got, want) <= 1e-12

    def test_measurement_off_is_case_a_i(self):
        game = bos210()
        assert dev(payoff_case_c(game, 1.1, 0.0, 0.6, 2.0),
                   payoff_case_a_i(game, 1.1, 0.6, 2.0)) == 0.0

    def test_shift_identity(self):
        got = payoff_case_c(bos210(), HP, math.pi / 4, 0.0, 0.0)
        want = payoff_case_a_i(bos210(), math.pi / 4, 0.0, 0.0)
        assert dev(got, want) <= 1e-12

    def test_reduces_general(self):
        rng = np.random.default_rng(151)
        for _ in range(300):
            game = draw_bos(rng)
            gamma, delta = (float(v) for v in rng.uniform(0, HP, size=2))
            th1, th2 = (float(v) for v in rng.uniform(0, math.pi, size=2))
            got = payoff_case_c(game, gamma, delta, th1, th2)
            want = payoff_general(game, SchemeParams(gamma, delta),
                                  StrategyParams(th1, 0.0), StrategyParams(th2, 0.0))
            assert dev(got, want) <= 1e-12


class TestCaseD:
    def test_measurement_off_is_classical(self):
        rng = np.random.default_rng(157)
        for _ in range(100):
            game = draw_bos(rng)
            s1, s2 = draw_strategy(rng), draw_strategy(rng)
            got = payoff_case_d(game, 0.0, s1, s2)
            want = payoff_case_a_i(game, 0.0, s1.theta, s2.theta)
            assert dev(got, want) <= 1e-15

    def test_identity_play_splits_across_basis(self):
        got = payoff_case_d(bos210(), HP, StrategyParams(0, 0), StrategyParams(0, 0))
        assert (got.alice, got.bob) == pytest.approx((1.5, 1.5), abs=1e-15)

    def test_phase_shift_probe(self):
        # frozen from the simulation oracle: (0.75, 0.75) moves to (0.5, 1.0)
        got = payoff_case_d(bos210(), HP, StrategyParams(HP, HP), StrategyParams(HP, 0))
        assert (got.alice, got.bob) == pytest.approx((0.5, 1.0), abs=1e-12)
        oracle = payoffs_oracle(bos210(), SchemeParams(0.0, HP),
                                StrategyParams(HP, HP), StrategyParams(HP, 0))
        assert dev(got, oracle) <= 1e-9

    def test_reduces_general(self):
        rng = np.random.default_rng(163)
        for _ in range(300):
            game = draw_bos(rng)
            delta = float(rng.uniform(0, HP))
            s1 = draw_strategy(rng, full_phi=True)
            s2 = draw_strategy(rng, full_phi=True)
            got = payoff_case_d(game, delta, s1, s2)
            want = payoff_general(game, SchemeParams(0.0, delta), s1, s2)
            assert dev(got, want) <= 1e-12



# each special case with a theta pair, and its theta parameters' names
THETA_CASES = {
    "case_a_i": (lambda t1, t2: payoff_case_a_i(bos210(), 0.3, t1, t2), ("theta1", "theta2")),
    "case_a_ii": (lambda t1, t2: payoff_case_a_ii(bos210(), 0.3, t1, t2), ("theta1", "theta2")),
    "case_b_ii": (lambda t1, t2: payoff_case_b_ii(bos210(), t1, t2), ("s1_theta", "s2_theta")),
    "case_c": (lambda t1, t2: payoff_case_c(bos210(), 0.3, 0.1, t1, t2),
               ("s1_theta", "s2_theta")),
}


@pytest.mark.parametrize("theta", [-0.1, math.pi + 0.1, math.nan, math.inf])
@pytest.mark.parametrize("case", THETA_CASES)
def test_special_cases_reject_theta_outside_0_pi(case, theta):
    # theta lies in [0, pi], as StrategyParams requires; each bad theta is
    # named by its own parameter, before any payoff is computed
    payoff, (first, second) = THETA_CASES[case]
    for args, name in (((theta, 0.5), first), ((0.5, theta), second)):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be (in \[0, pi\]|a finite number), got "):
            payoff(*args)
    payoff(0.0, math.pi)  # the endpoints are accepted

class TestBosFormFromCells:
    """Games typed as plain cells of the BoS form get the closed forms, with
    alpha, beta and sigma in any order, ties and the constant game included."""

    @staticmethod
    def draw_cells(rng):
        # half of the draws from a small set, so that ties and constant games come up
        values = (rng.choice([-1.5, 0.0, 0.25, 2.0, 3.0], 3) if rng.random() < 0.5
                  else rng.uniform(-5.0, 5.0, size=3))
        alpha, beta, sigma = values.tolist()
        game = GameMatrix(alice=((alpha, sigma), (sigma, beta)),
                          bob=((beta, sigma), (sigma, alpha)))
        return game, (alpha, beta, sigma)

    def test_general_matches_oracle(self):
        rng = np.random.default_rng(211)
        for _ in range(300):
            game, expected = self.draw_cells(rng)
            assert game.bos == expected
            scheme = SchemeParams(float(rng.uniform(0, HP)), float(rng.uniform(0, HP)))
            s1, s2 = draw_strategy(rng, full_phi=True), draw_strategy(rng, full_phi=True)
            assert dev(payoff_general(game, scheme, s1, s2),
                       payoffs_oracle(game, scheme, s1, s2)) <= ORACLE_TOL

    def test_cases_match_general_at_their_substitution(self):
        rng = np.random.default_rng(223)
        for _ in range(300):
            game, _ = self.draw_cells(rng)
            gamma, delta, phi1, split = rng.uniform(0, HP, size=4).tolist()
            th1, th2 = rng.uniform(0, math.pi, size=2).tolist()
            s1, s2 = draw_strategy(rng), draw_strategy(rng)
            zero1, zero2 = StrategyParams(th1, 0.0), StrategyParams(th2, 0.0)
            pairs = [
                (payoff_case_a_i(game, gamma, th1, th2),
                 payoff_general(game, SchemeParams(gamma, 0.0), zero1, zero2)),
                (payoff_case_a_ii(game, gamma, th1, th2),
                 payoff_general(game, SchemeParams(gamma, 0.0), StrategyParams(th1, split),
                                StrategyParams(th2, HP - split))),
                (payoff_case_b_i(game, gamma, s1, s2),
                 payoff_general(game, SchemeParams(gamma, gamma), s1, s2)),
                (payoff_case_b_ii(game, th1, th2),
                 payoff_general(game, SchemeParams(HP, HP), zero1, zero2)),
                (payoff_case_c(game, gamma, delta, th1, th2),
                 payoff_general(game, SchemeParams(gamma, delta), zero1, zero2)),
                (payoff_case_d(game, delta, StrategyParams(th1, phi1), s2),
                 payoff_general(game, SchemeParams(0.0, delta), StrategyParams(th1, phi1),
                                s2)),
                (payoff_du_maximal(game, s1, s2, "corrected"),
                 payoff_general(game, SchemeParams(HP, HP), s1, s2)),
            ]
            for case, general in pairs:
                assert dev(case, general) <= IDENTITY_TOL
