"""Output checks for the benchmark, run in a process of their own.

Usage: python3 perfbench/checks.py < JOBS_JSON

JOBS_JSON is a list of jobs, each {"check": NAME, "params": {...}, "code":
EXIT_CODE, "stdout": PATH, "stderr": PATH, "out": PATH or null}. Prints one
JSON list with the failure messages of each job; an empty list is a pass.

The checks load outputs of up to ~85 MB and import numpy and qgame. They
run here, not in run.py, because a child started by a process inherits that
process's peak RSS in its own ru_maxrss: run.py stays small so that each
command's peak RSS is the command's own.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np

from qgame.cli import SWEEP_FIELDS
from qgame.equilibrium import StrategyGrid
from qgame.scheme import (
    SchemeParams,
    StrategyParams,
    battle_of_sexes,
    final_state,
    measurement_basis,
    outcome_probabilities,
    payoffs_oracle,
)

SAMPLE_ROWS = 32  # rows or profiles recomputed by the scalar oracle per output
TOL = 1e-9        # the project's simulation tolerance
EPS = 1e-9        # qgame's default equilibrium tolerance


def _failures(pairs) -> list[str]:
    return [message for ok, message in pairs if not ok]


def _result(job: dict) -> Path:
    return Path(job["out"] or job["stdout"])


def check_payoff(job: dict, bos, gamma, delta, profile) -> list[str]:
    row = json.loads(_result(job).read_text())
    t1, p1, t2, p2 = profile
    want = payoffs_oracle(battle_of_sexes(*bos), SchemeParams(gamma, delta),
                          StrategyParams(t1, p1), StrategyParams(t2, p2))
    probs = sum(row[k] for k in ("p_oo", "p_ot", "p_to", "p_tt"))
    return _failures([
        (abs(row["payoff_a"] - want.alice) <= TOL and abs(row["payoff_b"] - want.bob) <= TOL,
         "payoff differs from the scalar oracle"),
        (max(row["abs_diff_a"], row["abs_diff_b"]) <= TOL, "closed form differs"),
        (abs(probs - 1.0) <= TOL, "probabilities do not sum to 1"),
    ])


def check_verify(job: dict) -> list[str]:
    lines = _result(job).read_text().splitlines()
    required = next((line.split()[1] for line in lines if line.startswith("required: ")), "")
    passed, _, total = required.partition("/")
    return _failures([
        ("result: PASS" in lines, "report does not show 'result: PASS'"),
        (bool(total) and passed == total, f"required checks {required or 'missing'}"),
    ])


def check_equilibria(job: dict, bos, gamma, delta, steps, seed) -> list[str]:
    payload = json.loads(_result(job).read_text())
    profiles = payload["profiles"]
    stderr_count = Path(job["stderr"]).read_text().strip().rpartition(" ")[2]
    game, scheme = battle_of_sexes(*bos), SchemeParams(gamma, delta)
    worst = 0.0
    for p in random.Random(seed).sample(profiles, min(SAMPLE_ROWS, len(profiles))):
        want = payoffs_oracle(game, scheme, StrategyParams(p["theta1"], p["phi1"]),
                              StrategyParams(p["theta2"], p["phi2"]))
        worst = max(worst, abs(p["payoff_a"] - want.alice), abs(p["payoff_b"] - want.bob))
    return _failures([
        ([payload["gamma"], payload["delta"]] == [gamma, delta], "wrong scheme echoed"),
        ([payload["theta_steps"], payload["phi_steps"]] == steps, "wrong grid echoed"),
        (payload["count"] == len(profiles), "count differs from the profile list"),
        (stderr_count == str(len(profiles)), "stderr count differs"),
        (all(p["eps_cert"] <= EPS for p in profiles), "an eps_cert exceeds eps"),
        (worst <= TOL, f"sampled payoffs differ from the oracle by {worst:.3g}"),
    ])


def check_summary(job: dict, pairs) -> list[str]:
    rows = json.loads(_result(job).read_text())
    return _failures([
        ([[r["gamma"], r["delta"]] for r in rows] == pairs, "rows do not match the pairs"),
        (all(r["max_formula_dev"] <= TOL for r in rows), "max_formula_dev exceeds 1e-9"),
        (all((r["best_payoff_a"] is None) == (r["equilibria"] == 0) for r in rows),
         "best payoff present without equilibria"),
    ])


def _load_rows(path: Path) -> np.ndarray:
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = json.loads(path.read_text())
    return np.array([[r[f] for f in SWEEP_FIELDS] for r in rows], dtype=float).reshape(-1, 12)


def check_rows(job: dict, bos, pairs, steps, seed) -> list[str]:
    """Row count, grid order, normalization, payoff weights, sampled oracle agreement."""
    table = _load_rows(_result(job))
    points = StrategyGrid(*steps).points()
    n = len(points)
    if table.shape != (n * n * len(pairs), 12):
        return [f"{table.shape[0]} rows, expected {n * n * len(pairs)}"]
    game = battle_of_sexes(*bos)
    theta = np.array([p.theta for p in points])
    phi = np.array([p.phi for p in points])
    expected = np.column_stack([
        np.repeat([g for g, _ in pairs], n * n), np.repeat([d for _, d in pairs], n * n),
        np.tile(np.repeat(theta, n), len(pairs)), np.tile(np.repeat(phi, n), len(pairs)),
        np.tile(theta, n * len(pairs)), np.tile(phi, n * len(pairs)),
    ])
    probs = table[:, 8:12]
    worst = 0.0
    for i in random.Random(seed).sample(range(len(table)), SAMPLE_ROWS):
        pair, rest = divmod(i, n * n)
        s1, s2 = points[rest // n], points[rest % n]
        scheme = SchemeParams(*pairs[pair])
        want = payoffs_oracle(game, scheme, s1, s2)
        want_p = outcome_probabilities(final_state(scheme.gamma, s1, s2),
                                       measurement_basis(scheme.delta))
        worst = max(worst, abs(table[i, 6] - want.alice), abs(table[i, 7] - want.bob),
                    float(np.max(np.abs(probs[i] - want_p))))
    return _failures([
        (np.max(np.abs(table[:, :6] - expected)) <= 1e-12, "rows out of grid order"),
        (np.max(np.abs(probs.sum(axis=1) - 1.0)) <= TOL, "probabilities do not sum to 1"),
        (np.max(np.abs(probs @ np.array(game.alice_by_outcome()) - table[:, 6])) <= TOL
         and np.max(np.abs(probs @ np.array(game.bob_by_outcome()) - table[:, 7])) <= TOL,
         "payoffs are not the weighted probabilities"),
        (worst <= TOL, f"sampled rows differ from the oracle by {worst:.3g}"),
    ])


CHECKS = {
    "payoff": check_payoff,
    "verify": check_verify,
    "equilibria": check_equilibria,
    "summary": check_summary,
    "rows": check_rows,
}


def run_check(job: dict) -> list[str]:
    if job["code"] != 0:
        return [f"exit code {job['code']}"]
    try:
        return CHECKS[job["check"]](job, **job["params"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output could not be checked: {exc!r}"]


if __name__ == "__main__":
    print(json.dumps([run_check(job) for job in json.load(sys.stdin)]))
