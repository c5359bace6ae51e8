import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qgame import cli, closedform, verification
from qgame.scheme import (
    HALF_PI,
    TWO_PI,
    GameMatrix,
    PayoffPair,
    StrategyParams,
    battle_of_sexes,
    measurement_basis,
)
from qgame.verification import VERIFY_MAX_PAYOFF, run_verification


def _benchmark_tracer():
    """perfbench/tracer.py, loaded by path: perfbench is a folder of scripts,
    not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

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
    calls = dict(calls)
    # 17,000 through payoff_general (10,000 + 6 * 1,000 + 1,000) and 2 for
    # each of the 1,000 draws of the gamma - delta shift check
    assert calls.pop("_general") == 19_000
    pinned = _benchmark_tracer().VERIFY_EXACT_CALLS  # "scheme.payoffs_oracle.calls": 14002
    assert calls == {key.split(".")[1]: count for key, count in pinned.items()}


@pytest.mark.parametrize("fault", ["not-normalized", "not-orthogonal"])
def test_non_orthonormal_basis_fails_verify(monkeypatch, capsys, fault):
    # measurement_basis does not check its rows; verify's own check must
    # catch a basis that is not orthonormal, and the command must exit 2
    rows = np.array(measurement_basis(0.3))
    if fault == "not-normalized":
        bad = 2 * rows
    else:
        bad = rows[[0, 0, 2, 3]]
    monkeypatch.setattr(verification, "measurement_basis", lambda delta: bad)
    assert cli.main(["verify", "--seed", "0"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith("[FAIL]")}
    # the probabilities of a doubled basis sum to 4, and those of a basis
    # with a repeated row miss the dropped row's share, so neither sums to 1
    assert failed == {"measurement_orthonormal_complete", "outcome_probability_sum"}
    assert "result: FAIL" in lines


@pytest.mark.parametrize("hi", [HALF_PI, math.pi, TWO_PI, 5.0])
def test_uniform_is_generator_uniform_bit_for_bit(hi):
    # the checks draw an angle in [0, hi) as hi * random()
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    random = verification._uniforms(ours, 4 * 1000)  # 4 doubles a round, in chunks
    for _ in range(1000):
        assert hi * random() == float(theirs.uniform(0.0, hi))
        # _draw_bos scales three draws the same way
        assert [hi * random() for _ in range(3)] == theirs.uniform(0.0, hi, size=3).tolist()
    assert ours.random() == theirs.random()  # same stream position


CHUNK = verification.UNIFORM_CHUNK


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK - 100])
def test_chunked_draws_are_the_scalar_draws(count):
    # the first count doubles come in chunks, the rest one call each; either
    # way they are random()'s doubles, and rng is left where they end
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    random = verification._uniforms(ours, count)
    for taken in range(count + 5):
        assert random() == theirs.random()
        if taken + 1 >= count:  # never drawn ahead of what was taken
            assert ours.bit_generator.state == theirs.bit_generator.state


class TiedFirstGame:
    """A Generator whose first three doubles are 0.2, 0.2 and 0.6, so that
    the first game drawn (5 u for each) ties and _draw_bos draws again. Every
    double, replaced or not, takes one step of the wrapped stream, in scalar
    and chunked calls alike."""

    TIE = [0.2, 0.2, 0.6]

    def __init__(self, seed: int):
        self.rng, self.taken = np.random.default_rng(seed), 0

    def random(self, size=None):
        values = self.rng.random(1 if size is None else size)
        head = self.TIE[self.taken:self.taken + len(values)]
        values[:len(head)] = head
        self.taken += len(values)
        return float(values[0]) if size is None else values


def scalar(func, *args):
    """func(*args) with verification's uniforms drawn one generator call per
    double: the reference that the chunked draws must equal."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "_uniforms", lambda rng, count: rng.random)
        return func(*args)


def test_a_tied_game_draws_again_from_the_same_stream():
    tied = TiedFirstGame(5)
    verification._draw_bos(tied.random)
    assert tied.taken == 6  # the tied game and the one drawn again
    one_by_one, chunked = TiedFirstGame(5), TiedFirstGame(5)
    game = battle_of_sexes(2.0, 1.0, 0.0)
    want = scalar(verification._check_du, one_by_one, game)
    # the count is that of the draws without a tie; the redraw's 3 doubles
    # are scalar calls past it
    got = verification._check_du(chunked, game)
    assert got == want and chunked.taken == one_by_one.taken == 7 * verification.CASE_DRAWS + 3
    assert chunked.rng.bit_generator.state == one_by_one.rng.bit_generator.state


def test_a_chunked_check_leaves_the_stream_to_normal_draws():
    one_by_one, ours = np.random.default_rng(8), np.random.default_rng(8)
    want = scalar(verification._check_reduction_slices, one_by_one)
    assert verification._check_reduction_slices(ours) == want
    assert ours.normal(size=4).tolist() == one_by_one.normal(size=4).tolist()


def test_each_chunked_count_is_what_its_check_takes(monkeypatch):
    # a count too high would draw ahead of the check, one too low would
    # leave the rest to scalar calls; no draw of seed 0 ties
    counts, taken = [], []
    uniforms = verification._uniforms

    def counting(rng, count):
        random, index = uniforms(rng, count), len(counts)
        counts.append(count)
        taken.append(0)

        def counted():
            taken[index] += 1
            return random()

        return counted

    monkeypatch.setattr(verification, "_uniforms", counting)
    run_verification(seed=0)
    assert counts == [90_000, 13_000, 7_000, 5_000, 2_000, 7_000]
    assert taken == counts


def matrix_game(matrix: str) -> GameMatrix:
    """The game of a --matrix argument: the cells row by row, Alice's then
    Bob's payoff in each."""
    v = [float(x) for x in matrix.split(",")]
    return GameMatrix(alice=((v[0], v[2]), (v[4], v[6])), bob=((v[1], v[3]), (v[5], v[7])))


# BoS-form games outside the default ordering: alpha == beta (no
# interference at the measurement-only probe), sigma largest (the classical
# equilibria are (O, T) and (T, O)), and the constant game (all four)
BOS_FORM_MATRICES = ["2,2,0,0,0,0,2,2", "1,2,3,3,3,3,2,1", "1,1,1,1,1,1,1,1"]
REFERENCE_GAMES = {"bos-2,1,0": battle_of_sexes(2.0, 1.0, 0.0),
                   "bos-5,3,1": battle_of_sexes(5.0, 3.0, 1.0),
                   **{f"matrix-{m}": matrix_game(m) for m in BOS_FORM_MATRICES}}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("game", REFERENCE_GAMES.values(), ids=REFERENCE_GAMES.keys())
def test_chunked_run_equals_the_scalar_reference(game, seed):
    assert run_verification(game, seed) == scalar(run_verification, game, seed)


@pytest.mark.parametrize("bump", [0.0, 1e-6])
def test_case_c_shift_sees_a_delta_dependence(monkeypatch, bump):
    # with phases zero the general form depends on gamma - delta alone, so a
    # general form that also moved with delta must fail the shift check
    general = closedform._general

    def bumped(alpha, beta, sigma, gamma, delta, *angles):
        alice, bob = general(alpha, beta, sigma, gamma, delta, *angles)
        return alice + bump * delta, bob + bump * delta

    monkeypatch.setattr(closedform, "_general", bumped)
    checks = verification._check_case_identities(np.random.default_rng(0))
    shift, = (c for c in checks if c.name == "case_c_shift_vs_case_a_i")
    assert shift.passed == (bump == 0.0)
    assert (shift.value > 1e-9) == (bump > 0.0)


def test_printed_coefficient_record_reads_the_simulated_shift(monkeypatch):
    game = battle_of_sexes(2.0, 1.0, 0.0)
    probe, info = verification._check_measurement_only(game)
    assert info.value == 0.5 - probe.value
    assert probe.value == pytest.approx(0.25, abs=1e-12)
    # classical play at theta = pi/2 pays (0.75, 0.75); a probe that moves
    # both payoffs by 0.375 moves the record with it
    monkeypatch.setattr(verification, "payoffs_oracle",
                        lambda *args: PayoffPair(1.125, 0.375))
    probe, info = verification._check_measurement_only(game)
    assert info.value == 0.5 - probe.value
    assert (probe.value, info.value) == pytest.approx((0.375, 0.125), abs=1e-12)
    assert "(0.5 vs 0.375 at the probe)" in info.note


def test_printed_coefficient_record_is_unsigned_for_alpha_below_beta():
    # alpha = 1 < beta = 2: the printed 0.5 * (alpha - beta) is -0.5, and
    # its magnitude is compared with the shift |alpha - beta| / 4 = 0.25
    game = GameMatrix(alice=((1, 3), (3, 2)), bob=((2, 3), (3, 1)))
    probe, info = verification._check_measurement_only(game)
    assert probe.value == pytest.approx(0.25, abs=1e-12)
    assert info.value == pytest.approx(0.25, abs=1e-12)
    assert "(0.5 vs 0.25 at the probe)" in info.note


def test_printed_coefficient_record_quotes_no_rounding_noise_for_alpha_equal_beta():
    # alpha = beta: both coefficients are 0, and the simulated shift is the
    # rounding noise of a zero (2.2e-16), below the probe's resolution
    game = GameMatrix(alice=((2, 0), (0, 2)), bob=((2, 0), (0, 2)))
    probe, info = verification._check_measurement_only(game)
    assert probe.passed and probe.value <= verification.ORACLE_TOL
    assert info.note == ("published and simulated interference coefficients "
                         "are both 0 (alpha = beta)")


@pytest.mark.parametrize("matrix,note", [
    # the probe separates the variants, so the note quotes its payoffs
    ("1,2,3,3,3,3,2,1", "printed variant rejected by simulation; at theta=0, "
                        "phi1+phi2=pi/2 it gives (0, 0) vs simulated (2, 1)"),
    # the constant game pays 1 whatever is played, so only the draws reject it
    ("1,1,1,1,1,1,1,1", "printed variant rejected by simulation on the random draws; "
                        "the probe theta=0, phi1+phi2=pi/2 does not separate it for this game"),
], ids=["separating-probe", "constant-game"])
def test_du_printed_note_quotes_the_probe_only_when_it_separates(monkeypatch, matrix, note):
    monkeypatch.setattr(verification, "CASE_DRAWS", 5)
    game = matrix_game(matrix)
    _, printed = verification._check_du(np.random.default_rng(0), game)
    assert printed.name == "du_printed_vs_oracle" and printed.note == note
    # the draws' other games still reject the printed variant
    assert printed.value > verification.ORACLE_TOL


@pytest.mark.parametrize("kwargs,seed", [({}, 0), ({"seed": 3}, 3)],
                         ids=["no-arguments", "seed-only"])
def test_default_game_is_bos_210(monkeypatch, kwargs, seed):
    for name in ("EQUIVALENCE_DRAWS", "CASE_DRAWS", "BASIS_DRAWS", "UNITARITY_DRAWS"):
        monkeypatch.setattr(verification, name, 5)
    report = run_verification(**kwargs)
    assert report == run_verification(battle_of_sexes(2.0, 1.0, 0.0), seed=seed)
    assert report.game.bos == (2.0, 1.0, 0.0) and report.passed


@pytest.mark.parametrize("matrix", BOS_FORM_MATRICES)
def test_verify_passes_every_bos_form_game(capsys, matrix):
    assert cli.main(["verify", "--matrix", matrix]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "required: 17/17 passed" in lines and "result: PASS" in lines


@pytest.mark.parametrize("matrix,want", [
    ("2,1,0,0,0,0,1,2", [(0, 0), (1, 1)]),
    (BOS_FORM_MATRICES[1], [(0, 1), (1, 0)]),
    (BOS_FORM_MATRICES[2], [(0, 0), (0, 1), (1, 0), (1, 1)]),
    # Prisoner's Dilemma: only mutual defection (T, T)
    ("3,3,0,5,5,0,1,1", [(1, 1)]),
])
def test_classical_pure_equilibria_from_the_cells(matrix, want):
    game = matrix_game(matrix)
    assert verification._classical_pure_equilibria(game) == want


def test_grid_path_with_the_wrong_pure_equilibria_fails(monkeypatch):
    # sigma largest: the grid path must find (O, T) and (T, O); one that
    # returned the default game's (O, O) and (T, T) must fail the check
    game = GameMatrix(alice=((1, 3), (3, 2)), bob=((2, 3), (3, 1)))

    def check():
        _, eq = verification._check_classical(np.random.default_rng(0), game)
        assert eq.name == "classical_pure_equilibria"
        return eq

    assert check().passed
    monkeypatch.setattr(verification, "epsilon_nash",
                        lambda *args, **kwargs: (np.array([0, 3]), np.zeros((2, 3))))
    assert not check().passed


def test_phase_blind_oracle_fails_the_measurement_only_probe(monkeypatch):
    # the probe's shift is |alpha - beta| / 4 = 0.25 here; an oracle that
    # ignored the phases would move nothing and must fail
    game = battle_of_sexes(2.0, 1.0, 0.0)
    probe, _ = verification._check_measurement_only(game)
    assert probe.passed
    oracle = verification.payoffs_oracle
    monkeypatch.setattr(verification, "payoffs_oracle", lambda game, scheme, s1, s2: oracle(
        game, scheme, StrategyParams(s1.theta, 0.0), StrategyParams(s2.theta, 0.0)))
    probe, _ = verification._check_measurement_only(game)
    assert probe.value == pytest.approx(0.0, abs=1e-12) and not probe.passed
