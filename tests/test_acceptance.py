"""Acceptance gate: every primary criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run pytest -s to see them inline).
All randomness is seeded, so a run is reproducible end to end.
"""

import math

import numpy as np

from qgame.cli import main
from qgame.closedform import (
    payoff_case_a_i,
    payoff_case_a_ii,
    payoff_case_b_i,
    payoff_case_b_ii,
    payoff_case_c,
    payoff_case_d,
    payoff_du_maximal,
    payoff_general,
)
from qgame.equilibrium import StrategyGrid, epsilon_nash
from qgame.scheme import (
    SchemeParams,
    StrategyParams,
    battle_of_sexes,
    measurement_basis,
    outcome_probabilities,
    payoffs_oracle,
    strategy_op,
)

HP = math.pi / 2
SEED = 20240901

ORACLE_TOL = 1e-9
IDENTITY_TOL = 1e-12


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


def draw_bos(rng):
    while True:
        lo, mid, hi = np.sort(rng.uniform(0.0, 5.0, size=3))
        if lo < mid < hi:
            return battle_of_sexes(float(hi), float(mid), float(lo))


def draw_angles(rng):
    return (float(rng.uniform(0, HP)), float(rng.uniform(0, HP)),
            float(rng.uniform(0, math.pi)), float(rng.uniform(0, HP)),
            float(rng.uniform(0, math.pi)), float(rng.uniform(0, HP)))


def pair_dev(x, y):
    return max(abs(x.alice - y.alice), abs(x.bob - y.bob))


def test_oracle_closed_form_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        game = draw_bos(rng)
        gamma, delta, th1, ph1, th2, ph2 = draw_angles(rng)
        scheme = SchemeParams(gamma, delta)
        s1, s2 = StrategyParams(th1, ph1), StrategyParams(th2, ph2)
        worst = max(worst, pair_dev(payoff_general(game, scheme, s1, s2),
                                    payoffs_oracle(game, scheme, s1, s2)))
    report("oracle/closed-form equivalence (10000 draws)", worst <= ORACLE_TOL,
           f"max |general - oracle| = {worst:.3e} <= {ORACLE_TOL}")


def test_reduction_suite():
    rng = np.random.default_rng(SEED + 1)
    worst = {"a_i": 0.0, "a_ii": 0.0, "b_i": 0.0, "b_ii": 0.0, "c": 0.0, "d": 0.0,
             "c_shift": 0.0}
    for _ in range(1_000):
        game = draw_bos(rng)
        gamma, delta, th1, ph1, th2, ph2 = draw_angles(rng)
        split = float(rng.uniform(0, HP))
        z1, z2 = StrategyParams(th1, 0.0), StrategyParams(th2, 0.0)
        s1, s2 = StrategyParams(th1, ph1), StrategyParams(th2, ph2)

        worst["a_i"] = max(worst["a_i"], pair_dev(
            payoff_case_a_i(game, gamma, th1, th2),
            payoff_general(game, SchemeParams(gamma, 0.0), z1, z2)))
        worst["a_ii"] = max(worst["a_ii"], pair_dev(
            payoff_case_a_ii(game, gamma, th1, th2),
            payoff_general(game, SchemeParams(gamma, 0.0),
                           StrategyParams(th1, split), StrategyParams(th2, HP - split))))
        worst["b_i"] = max(worst["b_i"], pair_dev(
            payoff_case_b_i(game, gamma, s1, s2),
            payoff_general(game, SchemeParams(gamma, gamma), s1, s2)))
        worst["b_ii"] = max(worst["b_ii"], pair_dev(
            payoff_case_b_ii(game, th1, th2),
            payoff_general(game, SchemeParams(HP, HP), z1, z2)))
        worst["c"] = max(worst["c"], pair_dev(
            payoff_case_c(game, gamma, delta, th1, th2),
            payoff_general(game, SchemeParams(gamma, delta), z1, z2)))
        worst["d"] = max(worst["d"], pair_dev(
            payoff_case_d(game, delta, s1, s2),
            payoff_general(game, SchemeParams(0.0, delta), s1, s2)))
        hi, lo = max(gamma, delta), min(gamma, delta)
        worst["c_shift"] = max(worst["c_shift"], pair_dev(
            payoff_case_c(game, hi, lo, th1, th2),
            payoff_case_a_i(game, hi - lo, th1, th2)))
    bad = {k: v for k, v in worst.items() if v > IDENTITY_TOL}
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report("reduction suite (6 cases + shift, 1000 draws each)", not bad, detail)


def test_classical_recovery():
    rng = np.random.default_rng(SEED + 2)
    game = battle_of_sexes(2.0, 1.0, 0.0)
    scheme = SchemeParams(0.0, 0.0)
    worst = 0.0
    for _ in range(1_000):
        th1, th2 = (float(v) for v in rng.uniform(0, math.pi, size=2))
        p, q = math.cos(th1 / 2) ** 2, math.cos(th2 / 2) ** 2
        probs = (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))
        ca = sum(w * x for w, x in zip(game.alice_by_outcome(), probs))
        cb = sum(w * x for w, x in zip(game.bob_by_outcome(), probs))
        got = payoffs_oracle(game, scheme, StrategyParams(th1, 0.0),
                             StrategyParams(th2, 0.0))
        worst = max(worst, abs(got.alice - ca), abs(got.bob - cb))
    payoffs_ok = worst <= IDENTITY_TOL

    grid = StrategyGrid(2, 1)
    profiles, values = epsilon_nash(game, scheme, grid, eps=1e-9)
    a, b = np.divmod(profiles, 2)  # flat indices a * n + b on the 2-point grid
    grid_thetas = grid.angles()[0]
    thetas = list(zip(grid_thetas[a].tolist(), grid_thetas[b].tolist()))
    certs_ok = bool((values[:, 2] <= IDENTITY_TOL).all())
    nash_ok = thetas == [(0.0, 0.0), (math.pi, math.pi)] and certs_ok
    report("classical recovery (mixed-extension payoffs + two pure equilibria)",
           payoffs_ok and nash_ok,
           f"max payoff dev = {worst:.3e}; equilibria = {thetas}")


def test_measurement_structure():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        states = np.array(measurement_basis(float(rng.uniform(0, HP))))
        gram = np.array([[np.vdot(x, y) for y in states] for x in states])
        worst = max(worst, float(np.max(np.abs(gram - np.eye(4)))))
        complete = sum(np.outer(s, s.conj()) for s in states)
        worst = max(worst, float(np.max(np.abs(complete - np.eye(4)))))
    sums = 0.0
    for _ in range(1_000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = raw / np.linalg.norm(raw)
        probs = outcome_probabilities(state, measurement_basis(float(rng.uniform(0, HP))))
        sums = max(sums, abs(sum(probs) - 1.0))
    report("measurement structure (orthonormal, complete, probabilities sum to 1)",
           worst <= ORACLE_TOL and sums <= ORACLE_TOL,
           f"basis dev = {worst:.3e}, sum dev = {sums:.3e}")


def test_strategy_unitarity():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(1_000):
        s = StrategyParams(float(rng.uniform(0, math.pi)),
                           float(rng.uniform(0, 2 * math.pi)))
        u = np.array(strategy_op(s))
        worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(2)))))
    report("strategy unitarity (1000 draws)", worst <= IDENTITY_TOL,
           f"max |U U* - I| = {worst:.3e}")


def test_du_adjudication():
    rng = np.random.default_rng(SEED + 5)
    scheme = SchemeParams(HP, HP)
    worst = 0.0
    for _ in range(1_000):
        game = draw_bos(rng)
        s1 = StrategyParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, HP)))
        s2 = StrategyParams(float(rng.uniform(0, math.pi)), float(rng.uniform(0, HP)))
        worst = max(worst, pair_dev(payoff_du_maximal(game, s1, s2, "corrected"),
                                    payoffs_oracle(game, scheme, s1, s2)))
    game = battle_of_sexes(2.0, 1.0, 0.0)
    probe1, probe2 = StrategyParams(0.0, HP), StrategyParams(0.0, 0.0)
    oracle = payoffs_oracle(game, scheme, probe1, probe2)
    printed = payoff_du_maximal(game, probe1, probe2, "printed")
    oracle_ok = (abs(oracle.alice - 1.0) <= ORACLE_TOL
                 and abs(oracle.bob - 2.0) <= ORACLE_TOL)
    printed_ok = printed.alice == 3.0 and printed.bob == 3.0
    gap = pair_dev(printed, oracle)
    alpha, beta = 2.0, 1.0
    report("maximal-entanglement shortcut adjudication",
           worst <= ORACLE_TOL and oracle_ok and printed_ok
           and gap >= (alpha - beta) - ORACLE_TOL,
           f"corrected dev = {worst:.3e}; probe: oracle ({oracle.alice:.0f}, "
           f"{oracle.bob:.0f}) vs printed ({printed.alice:.0f}, {printed.bob:.0f})")


def test_measurement_only_nonclassicality():
    game = battle_of_sexes(2.0, 1.0, 0.0)
    alpha, beta = 2.0, 1.0
    # the named interference quantity at the probe point
    term = (alpha - beta) / 2 * math.sin(HP) * math.sin(HP) * math.sin(HP) * math.sin(HP)
    term_ok = abs(term) > ORACLE_TOL
    # and the simulated payoffs actually leave the classical pair
    quantum = payoffs_oracle(game, SchemeParams(0.0, HP), StrategyParams(HP, HP),
                             StrategyParams(HP, 0.0))
    classical = payoff_case_b_ii(game, HP, HP)
    shift = min(abs(quantum.alice - classical.alice), abs(quantum.bob - classical.bob))
    report("measurement-only nonclassicality (gamma=0, delta=pi/2)",
           term_ok and shift > ORACLE_TOL,
           f"interference term = {term:g}; payoff shift = {shift:g}")


def test_verify_determinism(capsys, verify_seed0):
    # one fresh run against the session's run of the same seed
    argv, first_code, first, _ = verify_seed0
    codes = [first_code, main(list(argv))]
    runs = [first, capsys.readouterr().out]
    ok = codes == [0, 0] and runs[0] == runs[1] and len(runs[0]) > 0
    with capsys.disabled():
        report("verify determinism (same seed, byte-identical reports)", ok,
               f"exit codes {codes}, {len(runs[0])} bytes each")
