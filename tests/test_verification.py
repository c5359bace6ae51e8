import math

import numpy as np
import pytest

from qgame import verification
from qgame.scheme import HALF_PI, TWO_PI, GameMatrix, battle_of_sexes
from qgame.verification import VERIFY_MAX_PAYOFF, run_verification

REQUIRED_CHECKS = {
    "general_vs_oracle",
    "case_a_i_vs_general",
    "case_a_ii_vs_general",
    "case_b_i_vs_general",
    "case_b_ii_vs_general",
    "case_c_vs_general",
    "case_d_vs_general",
    "case_c_shift_vs_case_a_i",
    "du_corrected_vs_oracle",
    "classical_limit_mixed_strategies",
    "classical_pure_equilibria",
    "measurement_orthonormal_complete",
    "outcome_probability_sum",
    "strategy_unitarity",
    "eisert_slice_matched_angles",
    "marinatto_weber_slice",
    "measurement_only_interference",
}

INFORMATIONAL_CHECKS = {
    "du_printed_vs_oracle",
    "measurement_only_printed_coefficient",
}


@pytest.fixture(scope="module")
def report():
    return run_verification(battle_of_sexes(5.0, 3.0, 1.0), seed=1)


def test_all_required_checks_present_and_passing(report):
    names = {c.name for c in report.checks if c.required}
    assert names == REQUIRED_CHECKS
    assert report.passed
    for check in report.checks:
        if check.required:
            assert check.passed, check


def test_informational_checks_flag_the_printed_forms(report):
    infos = {c.name: c for c in report.checks if not c.required}
    assert set(infos) == INFORMATIONAL_CHECKS
    # the printed shortcut misses by at least alpha - beta at the probe point
    assert infos["du_printed_vs_oracle"].value >= 2.0 - 1e-9
    assert "rejected by simulation" in infos["du_printed_vs_oracle"].note


def test_render_names_every_check(report):
    text = report.render()
    for check in report.checks:
        assert check.name in text
    assert "result: PASS" in text
    assert "seed: 1" in text
    assert "alpha=5" in text


def test_requires_bos_game():
    plain = GameMatrix(alice=((3, 0), (5, 1)), bob=((3, 5), (0, 1)))
    with pytest.raises(ValueError, match="battle-of-sexes"):
        run_verification(plain, seed=0)


def test_payoff_bound_checked_before_any_draw(monkeypatch):
    calls = []
    monkeypatch.setattr(verification, "payoffs_oracle", lambda *a: calls.append(a))
    above = math.nextafter(VERIFY_MAX_PAYOFF, math.inf)
    for game in (battle_of_sexes(above, 0.0, -1.0), battle_of_sexes(1.0, 0.0, -above),
                 battle_of_sexes(1e23, 0.0, -1e23)):
        with pytest.raises(ValueError, match="at most 1e\\+06 in magnitude"):
            run_verification(game, seed=0)
    assert calls == []


def test_payoff_bound_is_inclusive():
    bound = VERIFY_MAX_PAYOFF
    assert run_verification(battle_of_sexes(bound, 0.0, -bound), seed=0).passed


def test_verify_makes_the_traced_call_counts(verify_seed0):
    # the benchmark's tracer pins these counts for any seed; a run that
    # skipped oracle calls or built fewer bases would fail here too
    _, code, _, calls = verify_seed0
    assert code == 0
    assert calls == {"payoffs_oracle": 14002, "measurement_basis": 15103,
                     "payoff_general": 17000}


@pytest.mark.parametrize("hi", [HALF_PI, math.pi, TWO_PI, 5.0])
def test_uniform_is_generator_uniform_bit_for_bit(hi):
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(1000):
        assert verification._uniform(ours, hi) == float(theirs.uniform(0.0, hi))
        # _draw_bos scales a block of three the same way
        assert ([hi * u for u in ours.random(3).tolist()]
                == theirs.uniform(0.0, hi, size=3).tolist())
    assert ours.random() == theirs.random()  # same stream position
