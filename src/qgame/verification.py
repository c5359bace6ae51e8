"""Seeded verification suite: closed forms against the simulation oracle.

Runs every reduction identity (measurement-off, phase-locked, matched-angle,
maximal-entanglement, shifted-angle, measurement-only), the classical limits,
the measurement-structure and unitarity properties, and the adjudication of
the printed maximal-entanglement shortcut. All randomness comes from one
seeded generator, so a report is byte-for-byte reproducible from its seed.
A check that draws only uniforms takes them from _uniforms, in chunked
rng.random(k) calls that never draw ahead of the check: the same doubles in
the same order as one call per double, so the same report.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from . import closedform as cf
from .equilibrium import StrategyGrid, epsilon_nash
from .scheme import (
    HALF_PI,
    TWO_PI,
    GameMatrix,
    SchemeParams,
    StrategyParams,
    _record,
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
# eps of the classical pure equilibria, certified and expected alike
CLASSICAL_EPS = 1e-9

# Largest payoff magnitude of a game to verify. ORACLE_TOL is absolute, and one
# rounding of a payoff this size (about 1e6 * 2.2e-16 = 2e-10) stays below it;
# from about 2e22 rounding alone fails du_corrected_vs_oracle.
VERIFY_MAX_PAYOFF = 1e6


class CheckResult(_record("CheckResult", "name value tol passed note", defaults=("",))):
    """One record of a report; a tol of None marks an informational record."""

    __slots__ = ()

    @property
    def required(self) -> bool:
        return self.tol is not None


class VerificationReport(_record("VerificationReport", "seed game checks")):
    """A run's seed, its game and its records, a tuple of CheckResult."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def render(self) -> str:
        a, b, s = self.game.bos  # run_verification takes battle-of-sexes games only
        lines = ["verification report", f"seed: {self.seed}",
                 f"game: bos alpha={a:g} beta={b:g} sigma={s:g}"]
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


UNIFORM_CHUNK = 1024  # most doubles in one rng.random(k) call of _uniforms


def _uniforms(rng: np.random.Generator, count: int):
    """A check's random(): the doubles rng.random() returns, in the same
    order, the first count of them from rng.random(k) calls of at most
    UNIFORM_CHUNK, then one call each. hi * random() is the float that
    rng.uniform(0, hi) returns from the same stream position.

    A scalar call spends most of its time on argument handling: 0.85 us
    against 0.14 us for a double of a chunk (timeit, Python 3.11 and numpy
    2.4 on a shared 2-CPU x86_64 host). count is the number of doubles the
    check takes when no _draw_bos draw ties (3 for a game, 2 for a strategy
    and 1 for each other angle), so the chunks never draw ahead: the check
    leaves rng where its scalar calls would, and the next check and
    rng.normal see the same stream. A tie's redraws are scalar calls.
    """
    chunks = (rng.random(min(k, UNIFORM_CHUNK)).tolist()
              for k in range(count, 0, -UNIFORM_CHUNK))
    # past the count, one rng.random() call per double (None never comes)
    return chain(chain.from_iterable(chunks), iter(rng.random, None)).__next__


def _draw_bos(random) -> GameMatrix:
    """A battle of sexes from three doubles u of random(), its payoffs the
    sorted 5 u; three more are drawn while two of them tie."""
    while True:
        low, mid, high = sorted((5.0 * random(), 5.0 * random(), 5.0 * random()))
        if low < mid < high:
            return battle_of_sexes(high, mid, low)


def _draw_strategy(random, full_phi: bool = False) -> StrategyParams:
    hi = TWO_PI if full_phi else HALF_PI
    return StrategyParams(math.pi * random(), hi * random())


def _pair_dev(x, y) -> float:
    return max(abs(x.alice - y.alice), abs(x.bob - y.bob))


def _classical_mixed(game: GameMatrix, p: float, q: float) -> tuple[float, float]:
    """Independent classical mixed-extension expectation, p = P(Alice plays O)."""
    probs = (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))
    alice = sum(w * pr for w, pr in zip(game.alice_by_outcome(), probs))
    bob = sum(w * pr for w, pr in zip(game.bob_by_outcome(), probs))
    return float(alice), float(bob)


def _classical_pure_equilibria(game: GameMatrix) -> list[tuple[int, int]]:
    """Moves (i, j), O = 0 and T = 1, in lexicographic order, from which no
    player gains more than CLASSICAL_EPS by switching alone: classical best
    replies read off the cells, apart from the simulation path."""
    a, b = game.alice, game.bob
    return [(i, j) for i in (0, 1) for j in (0, 1)
            if max(a[0][j], a[1][j]) - a[i][j] <= CLASSICAL_EPS
            and max(b[i][0], b[i][1]) - b[i][j] <= CLASSICAL_EPS]


def _within(name: str, value: float, tol: float, note: str = "") -> CheckResult:
    """A required record that passes when value is at most tol."""
    return CheckResult(name, value, tol, value <= tol, note)


def _check_general_vs_oracle(rng) -> CheckResult:
    random = _uniforms(rng, 9 * EQUIVALENCE_DRAWS)
    worst = 0.0
    for _ in range(EQUIVALENCE_DRAWS):
        game = _draw_bos(random)
        scheme = SchemeParams(HALF_PI * random(), HALF_PI * random())
        s1, s2 = _draw_strategy(random), _draw_strategy(random)
        worst = max(worst, _pair_dev(cf.payoff_general(game, scheme, s1, s2),
                                     payoffs_oracle(game, scheme, s1, s2)))
    return _within("general_vs_oracle", worst, ORACLE_TOL)


# each special case against payoff_general at its substitution, in report
# order, then the gamma - delta shift of the phase-free general form
_CASE_CHECKS = ("case_a_i_vs_general", "case_a_ii_vs_general", "case_b_i_vs_general",
                "case_b_ii_vs_general", "case_c_vs_general", "case_d_vs_general",
                "case_c_shift_vs_case_a_i")


def _check_case_identities(rng) -> list[CheckResult]:
    random = _uniforms(rng, 13 * CASE_DRAWS)
    worst = [0.0] * len(_CASE_CHECKS)
    for _ in range(CASE_DRAWS):
        game = _draw_bos(random)
        gamma = HALF_PI * random()
        delta = HALF_PI * random()
        th1, th2 = math.pi * random(), math.pi * random()
        phased = StrategyParams(th1, HALF_PI * random())
        split = HALF_PI * random()  # phi pair (split, pi/2 - split)
        s1, s2 = _draw_strategy(random), _draw_strategy(random)
        zero1, zero2 = StrategyParams(th1, 0.0), StrategyParams(th2, 0.0)
        unmeasured = SchemeParams(gamma, 0.0)
        pairs = (
            (cf.payoff_case_a_i(game, gamma, th1, th2),
             cf.payoff_general(game, unmeasured, zero1, zero2)),
            (cf.payoff_case_a_ii(game, gamma, th1, th2),
             cf.payoff_general(game, unmeasured, StrategyParams(th1, split),
                               StrategyParams(th2, HALF_PI - split))),
            (cf.payoff_case_b_i(game, gamma, s1, s2),
             cf.payoff_general(game, SchemeParams(gamma, gamma), s1, s2)),
            (cf.payoff_case_b_ii(game, th1, th2),
             cf.payoff_general(game, SchemeParams(HALF_PI, HALF_PI), zero1, zero2)),
            (cf.payoff_case_c(game, gamma, delta, th1, th2),
             cf.payoff_general(game, SchemeParams(gamma, delta), zero1, zero2)),
            (cf.payoff_case_d(game, delta, phased, s2),
             cf.payoff_general(game, SchemeParams(0.0, delta), phased, s2)),
        )
        devs = [_pair_dev(*pair) for pair in pairs]
        # with phases zero, the general form depends on gamma - delta alone
        glo, ghi = min(gamma, delta), max(gamma, delta)
        sa, sb = cf._general(*game.bos, ghi, glo, th1, 0.0, th2, 0.0)
        ua, ub = cf._general(*game.bos, ghi - glo, 0.0, th1, 0.0, th2, 0.0)
        devs.append(max(abs(sa - ua), abs(sb - ub)))
        worst = list(map(max, worst, devs))
    return [_within(name, dev, IDENTITY_TOL) for name, dev in zip(_CASE_CHECKS, worst)]


def _check_du(rng, game: GameMatrix) -> list[CheckResult]:
    random = _uniforms(rng, 7 * CASE_DRAWS)
    scheme = SchemeParams(HALF_PI, HALF_PI)
    corrected = printed = 0.0
    for _ in range(CASE_DRAWS):
        g = _draw_bos(random)
        s1, s2 = _draw_strategy(random), _draw_strategy(random)
        oracle = payoffs_oracle(g, scheme, s1, s2)
        corrected = max(corrected, _pair_dev(cf.payoff_du_maximal(g, s1, s2, "corrected"), oracle))
        printed = max(printed, _pair_dev(cf.payoff_du_maximal(g, s1, s2, "printed"), oracle))
    # probe: theta1 = theta2 = 0, phi1 + phi2 = pi/2
    probe1, probe2 = StrategyParams(0.0, HALF_PI), StrategyParams(0.0, 0.0)
    oracle = payoffs_oracle(game, scheme, probe1, probe2)
    pr = cf.payoff_du_maximal(game, probe1, probe2, "printed")
    co = cf.payoff_du_maximal(game, probe1, probe2, "corrected")
    corrected = max(corrected, _pair_dev(co, oracle))
    probe = _pair_dev(pr, oracle)
    if probe <= ORACLE_TOL:
        note = ("printed variant rejected by simulation on the random draws; the probe "
                "theta=0, phi1+phi2=pi/2 does not separate it for this game")
    else:
        note = (f"printed variant rejected by simulation; at theta=0, phi1+phi2=pi/2 it "
                f"gives ({pr.alice:g}, {pr.bob:g}) vs simulated ({oracle.alice:g}, {oracle.bob:g})")
    return [_within("du_corrected_vs_oracle", corrected, ORACLE_TOL,
                    "simulation supports the corrected variant"),
            CheckResult("du_printed_vs_oracle", max(printed, probe), None, True, note=note)]


def _check_classical(rng, game: GameMatrix) -> list[CheckResult]:
    random = _uniforms(rng, 5 * CASE_DRAWS)
    scheme = SchemeParams(0.0, 0.0)
    worst = 0.0
    for _ in range(CASE_DRAWS):
        g = _draw_bos(random)
        th1, th2 = math.pi * random(), math.pi * random()
        s1, s2 = StrategyParams(th1, 0.0), StrategyParams(th2, 0.0)
        ca, cb = _classical_mixed(g, math.cos(th1 / 2) ** 2, math.cos(th2 / 2) ** 2)
        got = payoffs_oracle(g, scheme, s1, s2)
        form = cf.payoff_general(g, scheme, s1, s2)
        worst = max(worst, abs(got.alice - ca), abs(got.bob - cb),
                    abs(form.alice - ca), abs(form.bob - cb))
    limit = _within("classical_limit_mixed_strategies", worst, IDENTITY_TOL)

    grid = StrategyGrid(theta_steps=2, phi_steps=1)  # theta index 0 plays O, 1 plays T
    profiles, values = epsilon_nash(game, scheme, grid, eps=CLASSICAL_EPS)
    theta1, _, theta2, _ = grid.indices(profiles)
    cert = float(values[:, 2].max()) if len(profiles) else math.inf
    ok = (list(zip(theta1.tolist(), theta2.tolist())) == _classical_pure_equilibria(game)
          and cert <= IDENTITY_TOL)
    eq = CheckResult("classical_pure_equilibria", cert, IDENTITY_TOL, ok,
                     note=f"{len(profiles)} equilibria on the pure-strategy grid")
    return [limit, eq]


def _check_measurement(rng) -> list[CheckResult]:
    worst = 0.0
    for _ in range(BASIS_DRAWS):
        delta = HALF_PI * rng.random()
        states = np.array(measurement_basis(delta))
        gram = states.conj() @ states.T  # [i, j] = <b_i|b_j>
        complete = states.T @ states.conj()  # sum_i |b_i><b_i|
        worst = max(worst, float(np.max(np.abs(gram - np.eye(4)))),
                    float(np.max(np.abs(complete - np.eye(4)))))
    structure = _within("measurement_orthonormal_complete", worst, ORACLE_TOL)

    worst_sum = 0.0
    for _ in range(CASE_DRAWS):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = raw / np.linalg.norm(raw)
        basis = measurement_basis(HALF_PI * rng.random())
        probs = outcome_probabilities(state, basis)
        worst_sum = max(worst_sum, abs(sum(probs) - 1.0))
    return [structure, _within("outcome_probability_sum", worst_sum, ORACLE_TOL)]


def _check_unitarity(rng) -> CheckResult:
    random = _uniforms(rng, 2 * UNITARITY_DRAWS)
    worst = 0.0
    for _ in range(UNITARITY_DRAWS):
        u = np.array(strategy_op(_draw_strategy(random, full_phi=True)))
        worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(2)))))
    return _within("strategy_unitarity", worst, IDENTITY_TOL)


def _check_reduction_slices(rng) -> list[CheckResult]:
    random = _uniforms(rng, 7 * CASE_DRAWS)
    eisert = mw = 0.0
    for _ in range(CASE_DRAWS):
        game = _draw_bos(random)
        gamma = HALF_PI * random()
        th1, th2 = math.pi * random(), math.pi * random()
        split = HALF_PI * random()
        s1, s2 = StrategyParams(th1, split), StrategyParams(th2, HALF_PI - split)
        eisert = max(eisert, _pair_dev(
            cf.payoff_case_b_i(game, gamma, s1, s2),
            payoffs_oracle(game, SchemeParams(gamma, gamma), s1, s2)))
        mw = max(mw, _pair_dev(
            cf.payoff_case_a_i(game, gamma, th1, th2),
            payoffs_oracle(game, SchemeParams(gamma, 0.0),
                           StrategyParams(th1, 0.0), StrategyParams(th2, 0.0))))
    return [_within("eisert_slice_matched_angles", eisert, ORACLE_TOL,
                    "delta=gamma with phi1+phi2=pi/2"),
            _within("marinatto_weber_slice", mw, ORACLE_TOL, "delta=0 with phi1=phi2=0")]


def _check_measurement_only(game: GameMatrix) -> list[CheckResult]:
    """gamma=0, delta=pi/2 probe: phases still move payoffs, by exactly
    |alpha - beta| / 4 (case_d's interference term at the probe), which is
    zero when alpha == beta."""
    scheme = SchemeParams(0.0, HALF_PI)
    with_phase = payoffs_oracle(game, scheme, StrategyParams(HALF_PI, HALF_PI),
                                StrategyParams(HALF_PI, 0.0))
    classical = cf.payoff_case_b_ii(game, HALF_PI, HALF_PI)
    shift = min(abs(with_phase.alice - classical.alice),
                abs(with_phase.bob - classical.bob))
    alpha, beta, _ = game.bos
    probe = CheckResult(
        "measurement_only_interference", shift, ORACLE_TOL,
        abs(shift - abs(alpha - beta) / 4) <= ORACLE_TOL,
        note="payoff shift at theta=pi/2, phi1+phi2=pi/2 vs phase-free classical play")
    printed = abs(0.5 * (alpha - beta))  # compared with the unsigned shift
    simulated = round(shift / ORACLE_TOL) * ORACLE_TOL  # quoted at the probe's resolution
    if printed == simulated == 0:
        note = "published and simulated interference coefficients are both 0 (alpha = beta)"
    else:
        note = (f"published interference coefficient is twice the simulated one "
                f"({printed:g} vs {simulated:g} at the probe)")
    info = CheckResult("measurement_only_printed_coefficient", abs(printed - shift), None,
                       True, note=note)
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
    rng = np.random.default_rng(seed)  # the checks draw from it in this order
    checks = (_check_general_vs_oracle(rng), *_check_case_identities(rng),
              *_check_du(rng, game), *_check_classical(rng, game), *_check_measurement(rng),
              _check_unitarity(rng), *_check_reduction_slices(rng),
              *_check_measurement_only(game))
    return VerificationReport(seed=seed, game=game, checks=checks)
