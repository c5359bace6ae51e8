import math
import subprocess
import sys

import numpy as np
import pytest

from qgame.scheme import (
    MAX_PAYOFF,
    TWO_PI,
    GameMatrix,
    PayoffPair,
    SchemeParams,
    StrategyParams,
    _shown,
    battle_of_sexes,
    check_phi,
    final_state,
    initial_state,
    measurement_basis,
    outcome_probabilities,
    payoffs_oracle,
    strategy_op,
)

HP = math.pi / 2
ISQ2 = 1.0 / math.sqrt(2.0)
# the computational basis states, Alice's letter first
KET_OO, KET_OT, KET_TO, KET_TT = np.eye(4, dtype=np.complex128)


# the definition of strategy_op: U(theta, phi) = cos(theta/2) R(phi) + sin(theta/2) C
def rotation_op(phi: float) -> np.ndarray:
    """Phase rotation R(phi) = diag(e^{i phi}, e^{-i phi})."""
    return np.array([[np.exp(1j * phi), 0.0], [0.0, np.exp(-1j * phi)]],
                    dtype=np.complex128)


def flip_op() -> np.ndarray:
    """Flip with the sign convention C|O> = -|T>, C|T> = |O>."""
    return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)


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

    def test_checked_values_are_stored_as_floats(self):
        # a numpy scalar or 0-d array passes the check, so the float it was
        # checked as is what the simulation must see
        scheme = SchemeParams(np.float32(0.5), np.array(0.0))
        s = StrategyParams(np.int64(1), 0)
        assert (scheme.gamma, scheme.delta, s.theta, s.phi) == (0.5, 0.0, 1.0, 0.0)
        assert all(type(v) is float
                   for v in (scheme.gamma, scheme.delta, s.theta, s.phi))
        assert payoffs_oracle(bos210(), scheme, s, s) == \
            payoffs_oracle(bos210(), SchemeParams(0.5, 0.0), StrategyParams(1.0, 0.0),
                           StrategyParams(1.0, 0.0))

    def test_check_phi_narrow_vs_full(self):
        check_phi(HP, "narrow")
        with pytest.raises(ValueError, match="phi"):
            check_phi(HP + 0.2, "narrow")
        check_phi(HP + 0.2, "full")

    @pytest.mark.parametrize("make,message", [
        (lambda: SchemeParams("x", 0.0), "gamma must be a finite number, got 'x'"),
        (lambda: SchemeParams(0.0, [0.1]), r"delta must be a finite number, got \[0.1\]"),
        (lambda: StrategyParams(None, 0.0), "theta must be a finite number, got None"),
        (lambda: StrategyParams(0.0, "pi"), "phi must be a finite number, got 'pi'"),
    ], ids=["text-gamma", "list-delta", "none-theta", "token-phi"])
    def test_non_numeric_angle_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("make,message", [
        (lambda: SchemeParams(math.inf, 0.0), "gamma must be a finite number, got inf"),
        (lambda: SchemeParams(0.0, math.nan), "delta must be a finite number, got nan"),
        (lambda: SchemeParams(2.0, 0.0), r"gamma must be in \[0, pi/2\], got 2.0"),
        (lambda: StrategyParams(-0.5, 0.0), r"theta must be in \[0, pi\], got -0.5"),
        (lambda: StrategyParams(0.0, TWO_PI), r"phi must be in \[0, 2\*pi\), got 6.28"),
        (lambda: StrategyParams(0.0, -math.inf), "phi must be a finite number, got -inf"),
    ], ids=["inf-gamma", "nan-delta", "gamma-above", "theta-below", "phi-at-2pi", "-inf-phi"])
    def test_out_of_range_angle_messages(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("make,message", [
        (lambda: SchemeParams(10**400, 0), r"gamma must be in \[0, pi/2\], got 1000"),
        (lambda: StrategyParams(0, -10**400), r"phi must be in \[0, 2\*pi\), got -1000"),
        (lambda: check_phi(10**400), r"phi must be in \[0, pi/2\], got 1000"),
        (lambda: battle_of_sexes(10**400, 1, 0),
         r"alice payoffs entries must be finite and at most 1e\+300 in magnitude"),
        # ordered as given, and bounded by the cells, which show them as given
        (lambda: battle_of_sexes(10**400, 10**399, 0),
         r"^alice payoffs entries must be finite and at most 1e\+300 in magnitude, got 1000"),
        (lambda: battle_of_sexes(10**400, np.float64(2), 1), r"^alice payoffs .*, got 1000"),
        (lambda: battle_of_sexes(np.float32(3), 2, -10**400), r"^alice payoffs .*, got -1000"),
    ], ids=["scheme", "strategy", "check-phi", "battle-of-sexes", "battle-of-sexes-alpha-beta",
            "battle-of-sexes-numpy-alpha", "battle-of-sexes-numpy-sigma"])
    def test_int_beyond_every_float_rejected(self, make, message):
        # float() raises OverflowError for these, not the documented ValueError
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("make,message", [
        (lambda: SchemeParams(10**5000, 0), r"^gamma must be in \[0, pi/2\], got"),
        (lambda: SchemeParams(0, [-10**5000]), "^delta must be a finite number, got"),
        (lambda: StrategyParams(10**5000, 0), r"^theta must be in \[0, pi\], got"),
        (lambda: check_phi(-10**5000, "full"), r"^phi must be in \[0, 2\*pi\), got"),
        (lambda: GameMatrix(ALICE, ((1, 0), (0, 10**5000))),
         r"^bob payoffs entries must be finite and at most 1e\+300 in magnitude, got"),
        (lambda: GameMatrix(ALICE, (BOB[0], BOB[1], (10**5000, 0))), "^bob payoffs must be 2x2"),
        # bos is no field, so namedtuple's _replace names it without showing the value
        (lambda: bos210()._replace(bos=10**5000), r"^Got unexpected field names: \['bos'\]$"),
        (lambda: battle_of_sexes(10**5000, 1, 0), "^alice payoffs entries must be finite"),
        (lambda: battle_of_sexes(1, 10**5000, 0),
         "^battle of sexes requires alpha > beta > sigma, got 1, "),
        (lambda: PayoffPair(0.0, 10**5000), "^payoffs must be finite, got 0.0, "),
    ], ids=["scheme", "scheme-list", "strategy", "check-phi", "game-matrix", "game-matrix-rows",
            "game-matrix-bos", "battle-of-sexes-cells", "battle-of-sexes-order", "payoff-pair"])
    def test_int_too_long_to_print_rejected(self, make, message):
        # Python prints no int of over 4,300 digits, and its own ValueError
        # for that would replace the check's, which names the parameter
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python prints every int")
    def test_int_too_long_to_print_shown_by_its_digits(self):
        limit = sys.get_int_max_str_digits()
        for k in (limit, limit + 1, 5000):
            assert _shown(10**k) == f"<int of {k + 1} digits>"
            assert _shown(-10**k) == f"<negative int of {k + 1} digits>"
            assert _shown(10 ** (k + 1) - 1) == f"<int of {k + 1} digits>"
            assert _shown(2 * 10**k - 1) == f"<int of {k + 1} digits>"
        assert _shown(10**limit - 1) == repr(10**limit - 1)
        assert _shown((1, 10**limit)).startswith("<tuple whose repr fails: Exceeds the limit")
        assert [_shown(v) for v in (5, -1.5, "x", (1, None))] == ["5", "-1.5", "'x'", "(1, None)"]

    def test_negative_zero_angles_are_stored_as_zero(self):
        scheme, s = SchemeParams(-0.0, -0.0), StrategyParams(-0.0, -0.0)
        assert all(math.copysign(1.0, v) == 1.0
                   for v in (scheme.gamma, scheme.delta, s.theta, s.phi))

    @pytest.mark.parametrize("phi_range", ["wide", "Narrow", ""])
    def test_check_phi_rejects_unknown_range(self, phi_range):
        with pytest.raises(ValueError, match=r"phi_range must be one of \['full', 'narrow'\]"):
            check_phi(0.1, phi_range)


ALICE, BOB = ((2, 0), (0, 1)), ((1, 0), (0, 2))  # the cells of bos210()


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

    def test_plain_matrix_has_no_bos_form(self):
        games = [((3, 0), (5, 1), (3, 5), (0, 1)),  # prisoner's dilemma
                 ((1, -1), (-1, 1), (-1, 1), (1, -1)),  # matching pennies
                 ((0, 0), (0, 0), (1, 2), (3, 4)),  # Alice indifferent
                 ((1, 2), (3, 4), (0, 0), (0, 0))]  # Bob indifferent
        for a0, a1, b0, b1 in games:
            assert GameMatrix(alice=(a0, a1), bob=(b0, b1)).bos is None

    def test_bos_is_not_an_init_parameter(self):
        with pytest.raises(TypeError):
            GameMatrix(alice=((2, 0), (0, 1)), bob=((1, 0), (0, 2)), bos=(2, 1, 0))

    @pytest.mark.parametrize("a,b,s", [(2, 1, 0), (1, 2, 0), (0, 1, 2), (-1, 3, 0.5),
                                       (1, 1, 0), (2, 1, 2), (1, 1, 1), (0, 0, 0)])
    def test_bos_derived_from_cells_in_any_order(self, a, b, s):
        g = GameMatrix(alice=((a, s), (s, b)), bob=((b, s), (s, a)))
        assert g.bos == (a, b, s)
        assert all(type(v) is float for v in g.bos)

    def test_one_ulp_off_is_not_bos(self):
        cells = [2.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 2.0]  # alice, then bob, row-major
        for i in range(8):
            moved = list(cells)
            moved[i] = math.nextafter(moved[i], math.inf)
            g = GameMatrix(alice=(moved[0:2], moved[2:4]), bob=(moved[4:6], moved[6:8]))
            assert g.bos is None

    def test_equal_games_compare_equal(self):
        plain = GameMatrix(alice=((2, 0), (0, 1)), bob=((1, 0), (0, 2)))
        assert bos210() == plain and hash(bos210()) == hash(plain)
        assert bos210().bos == (2.0, 1.0, 0.0)

    @pytest.mark.parametrize("alice,bob,message", [
        (((None, 0), (0, 1)), BOB, "alice payoffs must be a 2x2 array of numbers"),
        (ALICE, 5.0, "bob payoffs must be a 2x2 array of numbers"),
        ((("a", 0), (0, 1)), BOB, "alice payoffs must be a 2x2 array of numbers"),
        (((2, 0, 0), (0, 1, 0)), BOB, r"alice payoffs must be 2x2, got \(\(2, 0, 0\)"),
        (ALICE, ((1, 0),), r"bob payoffs must be 2x2, got \(\(1, 0\),\)"),
    ], ids=["none-cell", "scalar", "string-cell", "2x3", "1x2"])
    def test_cells_not_a_2x2_array_of_numbers_rejected(self, alice, bob, message):
        with pytest.raises(ValueError, match=message):
            GameMatrix(alice=alice, bob=bob)

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
            u = np.array(strategy_op(s))
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
        for got, want in zip(basis, (KET_OO, KET_OT, KET_TO, KET_TT)):
            np.testing.assert_array_equal(got, want)  # exact 0/1 amplitudes

    def test_delta_max_is_bell_like(self):
        basis = measurement_basis(HP)
        np.testing.assert_allclose(basis[0], [ISQ2, 0, 0, 1j * ISQ2], atol=1e-15)
        np.testing.assert_allclose(basis[1], [0, ISQ2, -1j * ISQ2, 0], atol=1e-15)

    def test_gram_matrix_is_identity(self):
        states = measurement_basis(0.3)
        gram = np.array([[np.vdot(x, y) for y in states] for x in states])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_completeness_over_random_delta(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            states = np.array(measurement_basis(float(rng.uniform(0, HP))))
            total = sum(np.outer(s, s.conj()) for s in states)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-9)

    def test_range(self):
        with pytest.raises(ValueError, match="delta"):
            measurement_basis(-0.2)

    def test_equals_the_nested_list_construction_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for delta in [0.0, HP, *rng.uniform(0, HP, size=500).tolist()]:
            c, s = math.cos(delta / 2), math.sin(delta / 2)
            want = np.array([[c, 0.0, 0.0, 1j * s],
                             [0.0, c, -1j * s, 0.0],
                             [0.0, -1j * s, c, 0.0],
                             [1j * s, 0.0, 0.0, c]], dtype=np.complex128)
            assert np.array(measurement_basis(delta)).tobytes() == want.tobytes()

    def test_rows_are_immutable_tuples_of_complex(self):
        basis = measurement_basis(0.3)
        assert type(basis) is tuple and len(basis) == 4
        assert all(type(row) is tuple and len(row) == 4 for row in basis)
        assert all(type(amp) is complex for row in basis for amp in row)
        with pytest.raises(TypeError):
            basis[0] = basis[1]
        with pytest.raises(TypeError):
            basis[0][0] = 0


class TestOutcomeProbabilities:
    def test_computational_on_ket(self):
        assert outcome_probabilities(KET_OO, measurement_basis(0.0)) == (1, 0, 0, 0)

    def test_takes_a_hand_built_basis_array(self):
        # any 4x4 array of rows serves as the basis, in the order given
        rows = np.array([KET_OT, KET_OO, KET_TO, KET_TT])
        assert outcome_probabilities(KET_OO, rows) == (0, 1, 0, 0)
        assert outcome_probabilities(KET_OO, np.eye(4)) == (1, 0, 0, 0)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                     complex(1, -math.inf)],
                             ids=["nan", "inf", "-inf", "nan-imag", "inf-imag"])
    @pytest.mark.parametrize("where", [0, 3])
    def test_rejects_nonfinite_amplitude(self, bad, where):
        state = np.array([ISQ2, 0, 0, ISQ2], dtype=np.complex128)
        state[where] = bad
        with pytest.raises(ValueError, match="4 finite amplitudes"):
            outcome_probabilities(state, measurement_basis(0.3))
        with pytest.raises(ValueError, match="4 finite amplitudes"):
            outcome_probabilities(state.tolist(), measurement_basis(0.3))

    @pytest.mark.parametrize("state", [np.ones(3), np.eye(2), np.ones(5), np.ones((1, 4)),
                                       np.ones((4, 1)), 1.0])
    def test_rejects_state_not_of_shape_4(self, state):
        with pytest.raises(ValueError, match="4 finite amplitudes"):
            outcome_probabilities(state, measurement_basis(0.3))

    @pytest.mark.parametrize("basis", [
        measurement_basis(0.3)[:3],
        ((1, 0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "abcd",
        ((None,) * 4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ], ids=["3-rows", "5-entry-row", "str", "row-of-none"])
    def test_rejects_basis_not_4_rows_of_4(self, basis):
        with pytest.raises(ValueError, match="basis must be 4 rows of 4 numbers"):
            outcome_probabilities(KET_OO, basis)

    def test_rejects_state_int_beyond_every_float(self):
        # complex() raises OverflowError for it, not the documented ValueError
        with pytest.raises(ValueError, match=r"^state must be 4 finite amplitudes, got \[1000"):
            outcome_probabilities([10**400, 0, 0, 0], measurement_basis(0.3))

    @pytest.mark.parametrize("bad", [10**400, math.inf, -math.inf, math.nan,
                                     complex(0, math.nan)],
                             ids=["int-beyond-float", "inf", "-inf", "nan", "nan-imag"])
    @pytest.mark.parametrize("where", [(0, 0), (3, 2)])
    def test_rejects_nonfinite_basis_entry(self, bad, where):
        # a nonfinite entry gave nonfinite probabilities, and an int beyond
        # every float an OverflowError, instead of the documented ValueError
        rows = [list(row) for row in measurement_basis(0.3)]
        rows[where[0]][where[1]] = bad
        with pytest.raises(ValueError, match="^basis entries must be finite, got "):
            outcome_probabilities(KET_OO, rows)

    @pytest.mark.parametrize("state", [[1e200, 0, 0, 0], [1e160, 0, 0, 0]],
                             ids=["inf-amplitude", "overflowing-square"])
    def test_rejects_probabilities_beyond_every_float(self, state):
        # the state and the basis are finite, but their products are not
        with pytest.raises(ValueError, match="^probabilities must be finite, but state "):
            outcome_probabilities(state, measurement_basis(0.3))

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python prints every int")
    def test_int_too_long_to_print_rejected(self):
        # repr of an int of over 4,300 digits raises its own ValueError
        rows = [list(row) for row in measurement_basis(0.3)]
        rows[1][1] = 10**5000
        with pytest.raises(ValueError, match=r"^state must be 4 finite amplitudes, got <list "
                                             r"whose repr fails: Exceeds the limit"):
            outcome_probabilities([10**5000, 0, 0, 0], measurement_basis(0.3))
        with pytest.raises(ValueError, match=r"^basis entries must be finite, got <list "
                                             r"whose repr fails: Exceeds the limit"):
            outcome_probabilities(KET_OO, rows)
        with pytest.raises(ValueError, match=r"^basis must be 4 rows of 4 numbers, got <list "
                                             r"whose repr fails: Exceeds the limit"):
            outcome_probabilities(KET_OO, [[10**5000, 0, 0]] + rows[1:])

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

    @pytest.mark.parametrize("alice,bob", [(10**400, 0), (0, -10**400)],
                             ids=["alice", "bob-negative"])
    def test_payoff_pair_rejects_int_beyond_every_float(self, alice, bob):
        # math.isfinite raises OverflowError for these, not the documented ValueError
        with pytest.raises(ValueError, match="^payoffs must be finite"):
            PayoffPair(alice, bob)

    @staticmethod
    def weighted(game, scheme, s1, s2):
        """The payoffs from the checked outcome_probabilities, each player's
        cells weighted in order OO, OT, TO, TT and summed left to right."""
        probs = outcome_probabilities(final_state(scheme.gamma, s1, s2),
                                      measurement_basis(scheme.delta))
        return (sum(w * p for w, p in zip(game.alice_by_outcome(), probs)),
                sum(w * p for w, p in zip(game.bob_by_outcome(), probs)))

    @pytest.mark.parametrize("phi_hi", [HP, 2 * math.pi], ids=["narrow", "full"])
    def test_equals_the_weighted_outcome_probabilities_bit_for_bit(self, phi_hi):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            cells = rng.uniform(-5, 5, size=8).tolist()
            game = GameMatrix(alice=(cells[0:2], cells[2:4]), bob=(cells[4:6], cells[6:8]))
            scheme = SchemeParams(*rng.uniform(0, HP, size=2).tolist())
            s1, s2 = (StrategyParams(float(rng.uniform(0, math.pi)),
                                     float(rng.uniform(0, phi_hi))) for _ in range(2))
            assert payoffs_oracle(game, scheme, s1, s2) == self.weighted(game, scheme, s1, s2)

    @pytest.mark.parametrize("gamma,delta", [(0, 0), (0, HP), (HP, 0), (HP, HP)])
    def test_equals_the_weighted_outcome_probabilities_at_the_corners(self, gamma, delta):
        scheme = SchemeParams(gamma, delta)
        rng = np.random.default_rng(43)
        for game in (bos210(), battle_of_sexes(5.0, 3.0, -1.0),
                     GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))):
            for theta1, phi1, theta2, phi2 in [(0, 0, 0, 0), (math.pi, HP, 0, 0),
                                               (HP, HP, HP, 0), *rng.uniform(0, HP, (50, 4))]:
                s1, s2 = StrategyParams(theta1, phi1), StrategyParams(theta2, phi2)
                assert (payoffs_oracle(game, scheme, s1, s2)
                        == self.weighted(game, scheme, s1, s2))


class TestAgainstDefinitions:
    """The oracle's building blocks against the formulas they implement:
    the Kronecker product on the state vector, the operator sum, and one
    inner product per basis state."""

    TOL = 1e-15

    @pytest.mark.parametrize("phi_hi", [HP, 2 * math.pi], ids=["narrow", "full"])
    @pytest.mark.parametrize("gamma", [0.0, HP, None], ids=["gamma0", "gamma_pi2", "random"])
    def test_fast_paths_match_definitions(self, gamma, phi_hi):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            g = float(rng.uniform(0, HP)) if gamma is None else gamma
            s1, s2 = (StrategyParams(float(rng.uniform(0, math.pi)),
                                     float(rng.uniform(0, phi_hi))) for _ in range(2))
            basis = measurement_basis(float(rng.uniform(0, HP)))
            for s in (s1, s2):
                want = (math.cos(s.theta / 2) * rotation_op(s.phi)
                        + math.sin(s.theta / 2) * flip_op())
                assert np.abs(strategy_op(s) - want).max() <= self.TOL
            state = final_state(g, s1, s2)
            want = np.kron(strategy_op(s1), strategy_op(s2)) @ initial_state(g)
            assert np.abs(state - want).max() <= self.TOL
            probs = outcome_probabilities(state, basis)
            want = [abs(np.vdot(b, state)) ** 2 for b in basis]
            assert np.abs(np.subtract(probs, want)).max() <= self.TOL


# calls every public function of qgame.scheme once, in a fresh interpreter,
# and prints whether numpy was loaded
NO_NUMPY_SCRIPT = """
import sys
from qgame.scheme import (GameMatrix, SchemeParams, StrategyParams, battle_of_sexes,
                          check_phi, final_state, initial_state, measurement_basis,
                          outcome_probabilities, payoffs_oracle, strategy_op)
check_phi(0.5)
s = StrategyParams(1.0, 0.5)
initial_state(0.7)
strategy_op(s)
outcome_probabilities(final_state(0.7, s, s), measurement_basis(0.4))
GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))
payoffs_oracle(battle_of_sexes(2, 1, 0), SchemeParams(0.7, 0.4), s, s)
print("numpy" in sys.modules)
"""


def test_scheme_functions_do_not_load_numpy():
    # one profile is a few dozen complex products; numpy would cost more to
    # import than the whole simulation
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT],
                          check=True, capture_output=True, text=True)
    assert proc.stdout == "False\n"
