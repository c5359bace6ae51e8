"""Seeded verification suite: closed forms against the simulation oracle.

Runs every reduction identity (measurement-off, phase-locked, matched-angle,
maximal-entanglement, shifted-angle, measurement-only), the classical limits,
the measurement-structure and unitarity properties, and the adjudication of
the printed maximal-entanglement shortcut. All randomness comes from one
seeded generator, so a report is byte-for-byte reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from .equilibrium import StrategyGrid, epsilon_nash
from .scheme import (
    HALF_PI,
    TWO_PI,
    GameMatrix,
    SchemeParams,
    StrategyParams,
    battle_of_sexes,
    measurement_basis,
    outcome_probabilities,
    payoffs_oracle,
    strategy_op,
)

EQUIVALENCE_DRAWS = 10_000
CASE_DRAWS = 1_000
BASIS_DRAWS = 100
UNITARITY_DRAWS = 1_000

ORACLE_TOL = 1e-9
IDENTITY_TOL = 1e-12

# Largest payoff magnitude of a game to verify. ORACLE_TOL is absolute, and one
# rounding of a payoff this size (about 1e6 * 2.2e-16 = 2e-10) stays below it;
# from about 2e22 rounding alone fails du_corrected_vs_oracle.
VERIFY_MAX_PAYOFF = 1e6


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tol: float | None  # None marks an informational record
    passed: bool
    note: str = ""

    @property
    def required(self) -> bool:
        return self.tol is not None


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    game: GameMatrix
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def render(self) -> str:
        lines = ["verification report", f"seed: {self.seed}"]
        if self.game.bos is not None:
            a, b, s = self.game.bos
            lines.append(f"game: bos alpha={a:g} beta={b:g} sigma={s:g}")
        else:
            lines.append(f"game: matrix {self.game.alice} / {self.game.bob}")
        lines.append(
            f"draws: equivalence={EQUIVALENCE_DRAWS} cases={CASE_DRAWS} "
            f"basis={BASIS_DRAWS} unitarity={UNITARITY_DRAWS}"
        )
        lines.append("")
        width = max(len(c.name) for c in self.checks)
        for c in self.checks:
            if not c.required:
                tag, tol = "info", "-"
            else:
                tag, tol = ("pass" if c.passed else "FAIL"), f"{c.tol:.1e}"
            line = f"[{tag}] {c.name:<{width}}  max_dev={c.value:.3e}  tol={tol}"
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
        required = [c for c in self.checks if c.required]
        ok = sum(1 for c in required if c.passed)
        lines.append("")
        lines.append(f"required: {ok}/{len(required)} passed")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _uniform(rng: np.random.Generator, hi: float) -> float:
    """The float rng.uniform(0, hi) returns, from the same stream position:
    uniform computes 0 + hi * u from the u that random() returns, but spends
    microseconds on argument handling per scalar call."""
    return hi * rng.random()


def _draw_bos(rng: np.random.Generator) -> GameMatrix:
    while True:
        low, mid, high = sorted([5.0 * u for u in rng.random(3).tolist()])
        if low < mid < high:
            return battle_of_sexes(high, mid, low)


def _draw_strategy(rng: np.random.Generator, full_phi: bool = False) -> StrategyParams:
    hi = TWO_PI if full_phi else HALF_PI
    return StrategyParams(_uniform(rng, math.pi), _uniform(rng, hi))


def _pair_dev(x, y) -> float:
    return max(abs(x.alice - y.alice), abs(x.bob - y.bob))


def _classical_mixed(game: GameMatrix, p: float, q: float) -> tuple[float, float]:
    """Independent classical mixed-extension expectation, p = P(Alice plays O)."""
    probs = (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))
    alice = sum(w * pr for w, pr in zip(game.alice_by_outcome(), probs))
    bob = sum(w * pr for w, pr in zip(game.bob_by_outcome(), probs))
    return float(alice), float(bob)


def _check_general_vs_oracle(rng) -> CheckResult:
    worst = 0.0
    for _ in range(EQUIVALENCE_DRAWS):
        game = _draw_bos(rng)
        scheme = SchemeParams(_uniform(rng, HALF_PI), _uniform(rng, HALF_PI))
        s1, s2 = _draw_strategy(rng), _draw_strategy(rng)
        worst = max(worst, _pair_dev(cf.payoff_general(game, scheme, s1, s2),
                                     payoffs_oracle(game, scheme, s1, s2)))
    return CheckResult("general_vs_oracle", worst, ORACLE_TOL, worst <= ORACLE_TOL)


def _check_case_identities(rng) -> list[CheckResult]:
    devs = {"case_a_i_vs_general": 0.0, "case_a_ii_vs_general": 0.0,
            "case_b_i_vs_general": 0.0, "case_b_ii_vs_general": 0.0,
            "case_c_vs_general": 0.0, "case_d_vs_general": 0.0,
            "case_c_shift_vs_case_a_i": 0.0}
    for _ in range(CASE_DRAWS):
        game = _draw_bos(rng)
        gamma = _uniform(rng, HALF_PI)
        delta = _uniform(rng, HALF_PI)
        th1, th2 = _uniform(rng, math.pi), _uniform(rng, math.pi)
        phi1 = _uniform(rng, HALF_PI)
        split = _uniform(rng, HALF_PI)  # phi pair with split + rest = pi/2
        rest = HALF_PI - split
        s1, s2 = _draw_strategy(rng), _draw_strategy(rng)
        zero1, zero2 = StrategyParams(th1, 0.0), StrategyParams(th2, 0.0)

        devs["case_a_i_vs_general"] = max(devs["case_a_i_vs_general"], _pair_dev(
            cf.payoff_case_a_i(game, gamma, th1, th2),
            cf.payoff_general(game, SchemeParams(gamma, 0.0), zero1, zero2)))
        devs["case_a_ii_vs_general"] = max(devs["case_a_ii_vs_general"], _pair_dev(
            cf.payoff_case_a_ii(game, gamma, th1, th2),
            cf.payoff_general(game, SchemeParams(gamma, 0.0),
                              StrategyParams(th1, split), StrategyParams(th2, rest))))
        devs["case_b_i_vs_general"] = max(devs["case_b_i_vs_general"], _pair_dev(
            cf.payoff_case_b_i(game, gamma, s1, s2),
            cf.payoff_general(game, SchemeParams(gamma, gamma), s1, s2)))
        devs["case_b_ii_vs_general"] = max(devs["case_b_ii_vs_general"], _pair_dev(
            cf.payoff_case_b_ii(game, th1, th2),
            cf.payoff_general(game, SchemeParams(HALF_PI, HALF_PI), zero1, zero2)))
        devs["case_c_vs_general"] = max(devs["case_c_vs_general"], _pair_dev(
            cf.payoff_case_c(game, gamma, delta, th1, th2),
            cf.payoff_general(game, SchemeParams(gamma, delta), zero1, zero2)))
        devs["case_d_vs_general"] = max(devs["case_d_vs_general"], _pair_dev(
            cf.payoff_case_d(game, delta, StrategyParams(th1, phi1), s2),
            cf.payoff_general(game, SchemeParams(0.0, delta),
                              StrategyParams(th1, phi1), s2)))
        glo, ghi = min(gamma, delta), max(gamma, delta)
        devs["case_c_shift_vs_case_a_i"] = max(devs["case_c_shift_vs_case_a_i"], _pair_dev(
            cf.payoff_case_c(game, ghi, glo, th1, th2),
            cf.payoff_case_a_i(game, ghi - glo, th1, th2)))
    return [CheckResult(name, dev, IDENTITY_TOL, dev <= IDENTITY_TOL)
            for name, dev in devs.items()]


def _check_du(rng, game: GameMatrix) -> list[CheckResult]:
    scheme = SchemeParams(HALF_PI, HALF_PI)
    corrected = 0.0
    printed = 0.0
    for _ in range(CASE_DRAWS):
        g = _draw_bos(rng)
        s1, s2 = _draw_strategy(rng), _draw_strategy(rng)
        oracle = payoffs_oracle(g, scheme, s1, s2)
        corrected = max(corrected, _pair_dev(cf.payoff_du_maximal(g, s1, s2, "corrected"), oracle))
        printed = max(printed, _pair_dev(cf.payoff_du_maximal(g, s1, s2, "printed"), oracle))
    # probe: theta1 = theta2 = 0, phi1 + phi2 = pi/2
    probe1, probe2 = StrategyParams(0.0, HALF_PI), StrategyParams(0.0, 0.0)
    oracle = payoffs_oracle(game, scheme, probe1, probe2)
    pr = cf.payoff_du_maximal(game, probe1, probe2, "printed")
    co = cf.payoff_du_maximal(game, probe1, probe2, "corrected")
    corrected = max(corrected, _pair_dev(co, oracle))
    printed = max(printed, _pair_dev(pr, oracle))
    note = (f"printed variant rejected by simulation; at theta=0, phi1+phi2=pi/2 it "
            f"gives ({pr.alice:g}, {pr.bob:g}) vs simulated ({oracle.alice:g}, {oracle.bob:g})")
    return [
        CheckResult("du_corrected_vs_oracle", corrected, ORACLE_TOL, corrected <= ORACLE_TOL,
                    note="simulation supports the corrected variant"),
        CheckResult("du_printed_vs_oracle", printed, None, True, note=note),
    ]


def _check_classical(rng, game: GameMatrix) -> list[CheckResult]:
    scheme = SchemeParams(0.0, 0.0)
    worst = 0.0
    for _ in range(CASE_DRAWS):
        g = _draw_bos(rng)
        th1, th2 = _uniform(rng, math.pi), _uniform(rng, math.pi)
        s1, s2 = StrategyParams(th1, 0.0), StrategyParams(th2, 0.0)
        ca, cb = _classical_mixed(g, math.cos(th1 / 2) ** 2, math.cos(th2 / 2) ** 2)
        got = payoffs_oracle(g, scheme, s1, s2)
        form = cf.payoff_general(g, scheme, s1, s2)
        worst = max(worst, abs(got.alice - ca), abs(got.bob - cb),
                    abs(form.alice - ca), abs(form.bob - cb))
    limit = CheckResult("classical_limit_mixed_strategies", worst, IDENTITY_TOL,
                        worst <= IDENTITY_TOL)

    grid = StrategyGrid(theta_steps=2, phi_steps=1)
    a, b, values = epsilon_nash(game, scheme, grid, eps=1e-9)
    grid_thetas = grid.angles()[0]
    thetas = list(zip(grid_thetas[a].tolist(), grid_thetas[b].tolist()))
    expected = [(0.0, 0.0), (math.pi, math.pi)]
    cert = float(values[:, 2].max()) if len(a) else math.inf
    ok = thetas == expected and cert <= IDENTITY_TOL
    eq = CheckResult("classical_pure_equilibria", cert, IDENTITY_TOL, ok,
                     note=f"{len(a)} equilibria on the pure-strategy grid")
    return [limit, eq]


def _check_measurement(rng) -> list[CheckResult]:
    worst = 0.0
    for _ in range(BASIS_DRAWS):
        delta = _uniform(rng, HALF_PI)
        states = measurement_basis(delta)
        gram = np.array([[np.vdot(x, y) for y in states] for x in states])
        worst = max(worst, float(np.max(np.abs(gram - np.eye(4)))))
        complete = sum(np.outer(s, s.conj()) for s in states)
        worst = max(worst, float(np.max(np.abs(complete - np.eye(4)))))
    structure = CheckResult("measurement_orthonormal_complete", worst, ORACLE_TOL,
                            worst <= ORACLE_TOL)

    worst_sum = 0.0
    for _ in range(CASE_DRAWS):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = raw / np.linalg.norm(raw)
        basis = measurement_basis(_uniform(rng, HALF_PI))
        probs = outcome_probabilities(state, basis)
        worst_sum = max(worst_sum, abs(sum(probs) - 1.0))
    sums = CheckResult("outcome_probability_sum", worst_sum, ORACLE_TOL,
                       worst_sum <= ORACLE_TOL)
    return [structure, sums]


def _check_unitarity(rng) -> CheckResult:
    worst = 0.0
    for _ in range(UNITARITY_DRAWS):
        u = strategy_op(_draw_strategy(rng, full_phi=True))
        worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(2)))))
    return CheckResult("strategy_unitarity", worst, IDENTITY_TOL, worst <= IDENTITY_TOL)


def _check_reduction_slices(rng) -> list[CheckResult]:
    eisert = 0.0
    mw = 0.0
    for _ in range(CASE_DRAWS):
        game = _draw_bos(rng)
        gamma = _uniform(rng, HALF_PI)
        th1, th2 = _uniform(rng, math.pi), _uniform(rng, math.pi)
        split = _uniform(rng, HALF_PI)
        s1 = StrategyParams(th1, split)
        s2 = StrategyParams(th2, HALF_PI - split)
        eisert = max(eisert, _pair_dev(
            cf.payoff_case_b_i(game, gamma, s1, s2),
            payoffs_oracle(game, SchemeParams(gamma, gamma), s1, s2)))
        mw = max(mw, _pair_dev(
            cf.payoff_case_a_i(game, gamma, th1, th2),
            payoffs_oracle(game, SchemeParams(gamma, 0.0),
                           StrategyParams(th1, 0.0), StrategyParams(th2, 0.0))))
    return [
        CheckResult("eisert_slice_matched_angles", eisert, ORACLE_TOL, eisert <= ORACLE_TOL,
                    note="delta=gamma with phi1+phi2=pi/2"),
        CheckResult("marinatto_weber_slice", mw, ORACLE_TOL, mw <= ORACLE_TOL,
                    note="delta=0 with phi1=phi2=0"),
    ]


def _check_measurement_only(game: GameMatrix) -> list[CheckResult]:
    """gamma=0, delta=pi/2 probe: phases still move payoffs."""
    scheme = SchemeParams(0.0, HALF_PI)
    with_phase = payoffs_oracle(game, scheme, StrategyParams(HALF_PI, HALF_PI),
                                StrategyParams(HALF_PI, 0.0))
    classical = cf.payoff_case_b_ii(game, HALF_PI, HALF_PI)
    shift = min(abs(with_phase.alice - classical.alice),
                abs(with_phase.bob - classical.bob))
    probe = CheckResult(
        "measurement_only_interference", shift, ORACLE_TOL, shift > ORACLE_TOL,
        note="payoff shift at theta=pi/2, phi1+phi2=pi/2 vs phase-free classical play")
    alpha, beta, _ = game.bos
    actual = 0.25 * (alpha - beta)
    printed = 0.5 * (alpha - beta)
    info = CheckResult(
        "measurement_only_printed_coefficient", abs(printed - actual), None, True,
        note=f"published interference coefficient is twice the simulated one "
             f"({printed:g} vs {actual:g} at the probe)")
    return [probe, info]


def run_verification(game: GameMatrix | None = None, seed: int = 0) -> VerificationReport:
    """Run the whole suite with one seeded generator and collect the results."""
    if game is None:
        game = battle_of_sexes(2.0, 1.0, 0.0)
    if game.bos is None:
        raise ValueError("verification needs a battle-of-sexes game")
    if max(abs(v) for v in game.bos) > VERIFY_MAX_PAYOFF:
        raise ValueError(f"verification needs payoffs at most {VERIFY_MAX_PAYOFF:g} "
                         f"in magnitude, got bos {game.bos}")
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    checks.append(_check_general_vs_oracle(rng))
    checks.extend(_check_case_identities(rng))
    checks.extend(_check_du(rng, game))
    checks.extend(_check_classical(rng, game))
    checks.extend(_check_measurement(rng))
    checks.append(_check_unitarity(rng))
    checks.extend(_check_reduction_slices(rng))
    checks.extend(_check_measurement_only(game))
    return VerificationReport(seed=seed, game=game, checks=tuple(checks))
