import math

import numpy as np
import pytest

from qgame.linalg import KET_OO, KET_OT, KET_TO, KET_TT
from qgame.scheme import (
    MAX_PAYOFF,
    GameMatrix,
    MeasurementBasis,
    PayoffPair,
    SchemeParams,
    StrategyParams,
    battle_of_sexes,
    check_phi,
    final_state,
    flip_op,
    initial_state,
    measurement_basis,
    outcome_probabilities,
    payoffs_oracle,
    rotation_op,
    strategy_op,
)

HP = math.pi / 2
ISQ2 = 1.0 / math.sqrt(2.0)


def bos210():
    return battle_of_sexes(2.0, 1.0, 0.0)


class TestParams:
    @pytest.mark.parametrize("gamma,delta", [(0.0, 0.0), (HP, HP), (0.3, 1.2)])
    def test_scheme_accepts_range(self, gamma, delta):
        SchemeParams(gamma, delta)

    @pytest.mark.parametrize("gamma,delta", [(-0.1, 0.0), (2.0, 0.0), (0.0, HP + 1e-6),
                                             (math.nan, 0.0)])
    def test_scheme_rejects_out_of_range(self, gamma, delta):
        with pytest.raises(ValueError):
            SchemeParams(gamma, delta)

    def test_strategy_theta_range(self):
        StrategyParams(math.pi, 0.0)
        with pytest.raises(ValueError, match="theta"):
            StrategyParams(math.pi + 0.1, 0.0)

    def test_strategy_phi_wide_range(self):
        StrategyParams(0.0, 6.28)  # anything below 2*pi is representable
        with pytest.raises(ValueError, match="phi"):
            StrategyParams(0.0, 2 * math.pi)

    def test_check_phi_narrow_vs_full(self):
        check_phi(HP, "narrow")
        with pytest.raises(ValueError, match="phi"):
            check_phi(HP + 0.2, "narrow")
        check_phi(HP + 0.2, "full")


class TestGameMatrix:
    def test_bos_structure(self):
        g = bos210()
        assert g.alice == ((2.0, 0.0), (0.0, 1.0))
        assert g.bob == ((1.0, 0.0), (0.0, 2.0))
        assert g.alice_by_outcome() == (2.0, 0.0, 0.0, 1.0)
        assert g.bob_by_outcome() == (1.0, 0.0, 0.0, 2.0)

    @pytest.mark.parametrize("a,b,s", [(1, 1, 0), (1, 2, 0), (2, 1, 1), (2, 0, 1)])
    def test_bos_ordering_enforced(self, a, b, s):
        with pytest.raises(ValueError, match="alpha > beta > sigma"):
            battle_of_sexes(a, b, s)

    def test_plain_matrix_has_no_bos_tag(self):
        g = GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))
        assert g.bos is None

    def test_mismatched_bos_tag_rejected(self):
        with pytest.raises(ValueError, match="bos tag"):
            GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)), bos=(2, 1, 0))

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GameMatrix(alice=((math.inf, 0), (0, 1)), bob=((1, 0), (0, 2)))

    def test_payoff_magnitude_limit_is_inclusive(self):
        # at the limit tables, certificates and closed forms stay finite
        GameMatrix(alice=((MAX_PAYOFF, 0), (0, -MAX_PAYOFF)), bob=((1, 0), (0, 2)))
        battle_of_sexes(MAX_PAYOFF, 0.0, -MAX_PAYOFF)
        above = math.nextafter(MAX_PAYOFF, math.inf)
        for cell in (above, -above):
            with pytest.raises(ValueError, match="at most 1e\\+300 in magnitude"):
                GameMatrix(alice=((1, 0), (0, 2)), bob=((1, cell), (0, 2)))


class TestInitialState:
    def test_unentangled(self):
        np.testing.assert_array_equal(initial_state(0.0), KET_OO)

    def test_maximal(self):
        np.testing.assert_allclose(initial_state(HP),
                                   np.array([ISQ2, 0, 0, 1j * ISQ2]), atol=1e-15)

    def test_pi_over_three(self):
        got = initial_state(math.pi / 3)
        np.testing.assert_allclose(got, [math.sqrt(3) / 2, 0, 0, 0.5j], atol=1e-15)

    def test_range(self):
        with pytest.raises(ValueError, match="gamma"):
            initial_state(2.0)


class TestOperators:
    def test_rotation_identity(self):
        np.testing.assert_array_equal(rotation_op(0.0), np.eye(2))

    def test_rotation_quarter_turn(self):
        np.testing.assert_allclose(rotation_op(HP), np.diag([1j, -1j]), atol=1e-15)

    def test_rotation_inverse(self):
        phi = 0.83
        np.testing.assert_allclose(rotation_op(phi) @ rotation_op(-phi), np.eye(2),
                                   atol=1e-15)

    def test_flip_sign_convention(self):
        c = flip_op()
        np.testing.assert_array_equal(c @ [1, 0], [0, -1])  # C|O> = -|T>
        np.testing.assert_array_equal(c @ [0, 1], [1, 0])   # C|T> = |O>
        np.testing.assert_array_equal(c @ c, -np.eye(2))

    def test_strategy_identity(self):
        np.testing.assert_array_equal(strategy_op(StrategyParams(0.0, 0.0)), np.eye(2))

    def test_strategy_full_flip_ignores_phi(self):
        for phi in (0.0, 0.4, 1.5):
            np.testing.assert_allclose(strategy_op(StrategyParams(math.pi, phi)),
                                       flip_op(), atol=1e-15)

    def test_strategy_equal_mix(self):
        got = strategy_op(StrategyParams(HP, 0.0))
        np.testing.assert_allclose(got, ISQ2 * (np.eye(2) + flip_op()), atol=1e-15)

    def test_unitarity_over_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            s = StrategyParams(float(rng.uniform(0, math.pi)),
                               float(rng.uniform(0, 2 * math.pi)))
            u = strategy_op(s)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


class TestFinalState:
    def test_identity_play(self):
        np.testing.assert_array_equal(final_state(0.0, StrategyParams(0, 0),
                                                  StrategyParams(0, 0)), KET_OO)

    def test_double_flip(self):
        got = final_state(0.0, StrategyParams(math.pi, 0.3), StrategyParams(math.pi, 0.9))
        np.testing.assert_allclose(got, KET_TT, atol=1e-15)

    def test_phase_on_entangled_state(self):
        got = final_state(HP, StrategyParams(0, HP), StrategyParams(0, 0))
        np.testing.assert_allclose(got, [1j * ISQ2, 0, 0, ISQ2], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = final_state(float(rng.uniform(0, HP)),
                            StrategyParams(float(rng.uniform(0, math.pi)),
                                           float(rng.uniform(0, 2 * math.pi))),
                            StrategyParams(float(rng.uniform(0, math.pi)),
                                           float(rng.uniform(0, 2 * math.pi))))
            assert abs(np.linalg.norm(s) - 1.0) <= 1e-9


class TestMeasurementBasis:
    def test_delta_zero_is_computational_exactly(self):
        basis = measurement_basis(0.0)
        for got, want in zip(basis.states(), (KET_OO, KET_OT, KET_TO, KET_TT)):
            np.testing.assert_array_equal(got, want)  # exact 0/1 amplitudes

    def test_delta_max_is_bell_like(self):
        basis = measurement_basis(HP)
        np.testing.assert_allclose(basis.psi_oo, [ISQ2, 0, 0, 1j * ISQ2], atol=1e-15)
        np.testing.assert_allclose(basis.psi_ot, [0, ISQ2, -1j * ISQ2, 0], atol=1e-15)

    def test_gram_matrix_is_identity(self):
        states = measurement_basis(0.3).states()
        gram = np.array([[np.vdot(x, y) for y in states] for x in states])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_completeness_over_random_delta(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            states = measurement_basis(float(rng.uniform(0, HP))).states()
            total = sum(np.outer(s, s.conj()) for s in states)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-9)

    def test_range(self):
        with pytest.raises(ValueError, match="delta"):
            measurement_basis(-0.2)

    def test_hand_built_basis_must_be_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            MeasurementBasis(psi_oo=KET_OO, psi_ot=KET_OO, psi_to=KET_TO, psi_tt=KET_TT)

    def test_hand_built_basis_must_be_normalized(self):
        with pytest.raises(ValueError, match="orthonormal"):
            MeasurementBasis(psi_oo=2 * KET_OO, psi_ot=KET_OT, psi_to=KET_TO, psi_tt=KET_TT)

    def test_hand_built_basis_must_be_finite(self):
        bad = np.array([np.nan, 0, 0, 0], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            MeasurementBasis(psi_oo=bad, psi_ot=KET_OT, psi_to=KET_TO, psi_tt=KET_TT)

    def test_hand_built_basis_needs_four_amplitudes(self):
        short = np.array([1, 0, 0], dtype=complex)
        with pytest.raises(ValueError, match="4-amplitude"):
            MeasurementBasis(psi_oo=short, psi_ot=short, psi_to=short, psi_tt=short)


class TestOutcomeProbabilities:
    def test_computational_on_ket(self):
        assert outcome_probabilities(KET_OO, measurement_basis(0.0)) == (1, 0, 0, 0)

    def test_entangled_state_computational_basis(self):
        state = np.array([ISQ2, 0, 0, 1j * ISQ2])
        probs = outcome_probabilities(state, measurement_basis(0.0))
        np.testing.assert_allclose(probs, (0.5, 0, 0, 0.5), atol=1e-15)

    def test_phase_rotated_state_lands_on_tt_direction(self):
        state = np.array([1j * ISQ2, 0, 0, ISQ2])
        probs = outcome_probabilities(state, measurement_basis(HP))
        np.testing.assert_allclose(probs, (0, 0, 0, 1), atol=1e-15)

    def test_rejects_nan_state(self):
        with pytest.raises(ValueError, match="finite"):
            outcome_probabilities(np.array([np.nan, 0, 0, 1]), measurement_basis(0.3))

    @pytest.mark.parametrize("state", [np.ones(3), np.eye(2), np.ones(5)])
    def test_rejects_state_not_of_shape_4(self, state):
        with pytest.raises(ValueError, match="4 finite amplitudes"):
            outcome_probabilities(state, measurement_basis(0.3))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = raw / np.linalg.norm(raw)
            probs = outcome_probabilities(state, measurement_basis(float(rng.uniform(0, HP))))
            assert all(p >= 0 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)


class TestPayoffsOracle:
    def test_classical_matched(self):
        got = payoffs_oracle(bos210(), SchemeParams(0, 0), StrategyParams(0, 0),
                             StrategyParams(0, 0))
        assert (got.alice, got.bob) == (2.0, 1.0)

    def test_classical_mismatched(self):
        got = payoffs_oracle(bos210(), SchemeParams(0, 0), StrategyParams(0, 0),
                             StrategyParams(math.pi, 0))
        assert (got.alice, got.bob) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_quantum_phase_move_favors_bob(self):
        got = payoffs_oracle(bos210(), SchemeParams(HP, HP), StrategyParams(0, HP),
                             StrategyParams(0, 0))
        assert (got.alice, got.bob) == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_entangled_state_computational_measurement(self):
        got = payoffs_oracle(bos210(), SchemeParams(HP, 0), StrategyParams(0, 0),
                             StrategyParams(0, 0))
        assert (got.alice, got.bob) == pytest.approx((1.5, 1.5), abs=1e-12)

    def test_payoffs_stay_in_convex_hull(self):
        rng = np.random.default_rng(29)
        g = bos210()
        for _ in range(300):
            got = payoffs_oracle(
                g,
                SchemeParams(float(rng.uniform(0, HP)), float(rng.uniform(0, HP))),
                StrategyParams(float(rng.uniform(0, math.pi)),
                               float(rng.uniform(0, 2 * math.pi))),
                StrategyParams(float(rng.uniform(0, math.pi)),
                               float(rng.uniform(0, 2 * math.pi))))
            assert 0.0 - 1e-12 <= got.alice <= 2.0 + 1e-12
            assert 0.0 - 1e-12 <= got.bob <= 2.0 + 1e-12

    def test_player_swap_mirrors_payoffs(self):
        # giving Alice the bob-matrix and Bob the alice-matrix swaps the payoffs
        rng = np.random.default_rng(31)
        g = bos210()
        mirrored = GameMatrix(alice=g.bob, bob=g.alice)
        for _ in range(100):
            s1 = StrategyParams(float(rng.uniform(0, math.pi)),
                                float(rng.uniform(0, 2 * math.pi)))
            s2 = StrategyParams(float(rng.uniform(0, math.pi)),
                                float(rng.uniform(0, 2 * math.pi)))
            scheme = SchemeParams(float(rng.uniform(0, HP)), float(rng.uniform(0, HP)))
            direct = payoffs_oracle(g, scheme, s1, s2)
            swapped = payoffs_oracle(mirrored, scheme, s2, s1)
            assert swapped.alice == pytest.approx(direct.bob, abs=1e-12)
            assert swapped.bob == pytest.approx(direct.alice, abs=1e-12)

    def test_works_for_general_bimatrix(self):
        pd = GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))
        got = payoffs_oracle(pd, SchemeParams(0, 0), StrategyParams(math.pi, 0),
                             StrategyParams(0, 0))
        assert (got.alice, got.bob) == pytest.approx((5.0, 0.0), abs=1e-15)

    def test_payoff_pair_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            PayoffPair(math.nan, 1.0)
