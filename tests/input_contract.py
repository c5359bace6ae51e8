"""The numeric input contract of the public entry points, as one table.

A number is an int or a float (a complex too where an entry point takes
complex amplitudes, an int only where it takes grid steps), or a numpy scalar
or 0-d array of such a dtype. Text, bytes, bools, None, lists and arrays of
one or more dimensions are not.

Each entry point below puts a value into one numeric parameter and keeps the
others valid. At every value it either returns finite values or raises a
ValueError whose message names that parameter; no other exception and no
warning gets out. It rejects every value that is no number to it, and every
nan, inf or int beyond every float. At a number it does what it does at the
plain int, float or complex of that number, as its kind is.

This module imports neither numpy nor pytest, so its rows run under
`python -S` too:

    PYTHONPATH=src:tests python -S -c "import input_contract; input_contract.check_all()"

tests/test_contract.py adds the numpy values and the entry points of the
equilibrium module.
"""

import cmath
import math
import re
import warnings

from qgame.closedform import (
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
from qgame.scheme import (
    GameMatrix,
    PayoffPair,
    SchemeParams,
    StrategyParams,
    battle_of_sexes,
    final_state,
    initial_state,
    measurement_basis,
    outcome_probabilities,
    payoffs_oracle,
    strategy_op,
)

GAME = battle_of_sexes(2, 1, 0)
STRATEGY = StrategyParams(0.5, 0.25)
BASIS = measurement_basis(0.3)

# entry point: (a call with the value in one parameter, a pattern of that
# parameter's name in messages, the kind of number it takes)
ENTRY_POINTS = {
    "SchemeParams": (lambda v: SchemeParams(v, 0.1), "gamma", float),
    "StrategyParams": (lambda v: StrategyParams(0.5, v), "phi", float),
    "GameMatrix": (lambda v: GameMatrix(((v, 0), (0, 1)), ((1, 0), (0, 2))), "alice payoffs",
                   float),
    "PayoffPair": (lambda v: PayoffPair(1.0, v), "payoffs", float),
    "initial_state": (initial_state, "gamma", float),
    "measurement_basis": (measurement_basis, "delta", float),
    "final_state": (lambda v: final_state(v, STRATEGY, STRATEGY), "gamma", float),
    "outcome_probabilities": (lambda v: outcome_probabilities([v, 0, 0, 0], BASIS), "state",
                              complex),
    # sigma is named by its own message, by the cells' bound (as for qgame's
    # --bos) or by the order message, which shows alpha and beta as given
    "battle_of_sexes": (lambda v: battle_of_sexes(3, 2, v), "^sigma |^alice payoffs |^battle of "
                        "sexes requires alpha > beta > sigma, got 3, 2, ", float),
    "bos_coefficients": (lambda v: bos_coefficients(v, 1, 0.3), "alpha", float),
    "payoff_case_a_i": (lambda v: payoff_case_a_i(GAME, v, 0.5, 0.5), "gamma", float),
    "payoff_case_a_ii": (lambda v: payoff_case_a_ii(GAME, 0.5, v, 0.5), "theta1", float),
    "payoff_case_b_i": (lambda v: payoff_case_b_i(GAME, v, STRATEGY, STRATEGY), "gamma", float),
    "payoff_case_b_ii": (lambda v: payoff_case_b_ii(GAME, 0.5, v), "s2_theta", float),
    "payoff_case_c": (lambda v: payoff_case_c(GAME, 0.5, v, 0.5, 0.5), "delta", float),
    "payoff_case_d": (lambda v: payoff_case_d(GAME, v, STRATEGY, STRATEGY), "delta", float),
}

NOT_A_NUMBER, NOT_FINITE = "not a number", "not finite"
KINDS = (int, float, complex)  # an entry point of a kind takes the numbers of kinds before it

# (id, value, what it is: NOT_A_NUMBER, NOT_FINITE or the kind of number)
VALUES = [
    ("int-beyond-floats", 10**400, NOT_FINITE),
    ("int-of-5001-digits", 10**5000, NOT_FINITE),
    ("inf", math.inf, NOT_FINITE),
    ("-inf", -math.inf, NOT_FINITE),
    ("nan", math.nan, NOT_FINITE),
    ("text-int", "1", NOT_A_NUMBER),
    ("text-float", "0.5", NOT_A_NUMBER),
    ("bytes", b"1", NOT_A_NUMBER),
    ("none", None, NOT_A_NUMBER),
    ("bool", True, NOT_A_NUMBER),
    ("list", [0.5], NOT_A_NUMBER),
    ("complex", 1 + 0j, complex),
    ("negative-zero", -0.0, float),
    ("subnormal", 1e-320, float),
]

# A strategy is a StrategyParams, whose fields are checked when it is built.
# entry point:strategy parameter: a call with the value in that parameter
SCHEME = SchemeParams(0.3, 0.2)
STRATEGY_ENTRY_POINTS = {
    "strategy_op:s": strategy_op,
    "final_state:s1": lambda v: final_state(0.3, v, STRATEGY),
    "final_state:s2": lambda v: final_state(0.3, STRATEGY, v),
    "payoffs_oracle:s1": lambda v: payoffs_oracle(GAME, SCHEME, v, STRATEGY),
    "payoffs_oracle:s2": lambda v: payoffs_oracle(GAME, SCHEME, STRATEGY, v),
    "payoff_general:s1": lambda v: payoff_general(GAME, SCHEME, v, STRATEGY),
    "payoff_general:s2": lambda v: payoff_general(GAME, SCHEME, STRATEGY, v),
    "payoff_case_b_i:s1": lambda v: payoff_case_b_i(GAME, 0.3, v, STRATEGY),
    "payoff_case_b_i:s2": lambda v: payoff_case_b_i(GAME, 0.3, STRATEGY, v),
    "payoff_case_d:s1": lambda v: payoff_case_d(GAME, 0.3, v, STRATEGY),
    "payoff_case_d:s2": lambda v: payoff_case_d(GAME, 0.3, STRATEGY, v),
    "payoff_du_maximal:s1": lambda v: payoff_du_maximal(GAME, v, STRATEGY, "corrected"),
    "payoff_du_maximal:s2": lambda v: payoff_du_maximal(GAME, STRATEGY, v, "corrected"),
}

# (id, value) of values that are no strategy: a pair out of range (theta and
# phi are checked only when a StrategyParams is built), a pair with text, None
NOT_STRATEGIES = [
    ("pair-out-of-range", (10.0, -7.0)),
    ("pair-with-text", (0.5, "x")),
    ("none", None),
]


def _outcome(call, value):
    """("returns", the result) or ("rejects", the ValueError's message); any
    other exception, and any warning, propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "returns", call(value)
        except ValueError as exc:
            return "rejects", str(exc)


def _numbers(result):
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, (int, float, complex)):
        yield result


def check(entry_point, value, what) -> str:
    """Assert the contract of entry_point, a row of ENTRY_POINTS, at value,
    which is `what` (as in VALUES); return "returns" or "rejects"."""
    call, name, kind = entry_point
    number = what in KINDS and KINDS.index(what) <= KINDS.index(kind)
    outcome, detail = _outcome(call, value)
    if outcome == "rejects":
        assert re.search(name, detail), f"the message {detail!r} names no {name}"
    else:
        assert number, f"{value!r}, {what}, was taken and gave {detail!r}"
        assert all(map(cmath.isfinite, _numbers(detail))), f"{detail!r} is not finite"
    if number:
        plain = _outcome(call, kind(value))
        assert outcome == plain[0] and (outcome == "rejects" or detail == plain[1]), \
            f"{value!r} gives {detail!r}, its {kind.__name__} {plain[1]!r}"
    return outcome


def check_strategy(name, value) -> None:
    """Assert that the entry point of STRATEGY_ENTRY_POINTS called name takes
    STRATEGY and rejects value with a ValueError that names its parameter."""
    call, parameter = STRATEGY_ENTRY_POINTS[name], name.split(":")[1]
    assert _outcome(call, STRATEGY)[0] == "returns", f"{name} rejects {STRATEGY!r}"
    outcome, detail = _outcome(call, value)
    assert outcome == "rejects", f"{name} took {value!r} and gave {detail!r}"
    assert detail == f"{parameter} must be a StrategyParams, got {value!r}", detail


def check_all(entry_points=ENTRY_POINTS, values=VALUES) -> int:
    """Check every entry point at every value, and every strategy parameter
    at every value that is no strategy; the number of calls checked."""
    for entry in entry_points.values():
        for _, value, what in values:
            check(entry, value, what)
    for name in STRATEGY_ENTRY_POINTS:
        for _, value in NOT_STRATEGIES:
            check_strategy(name, value)
    return len(entry_points) * len(values) + len(STRATEGY_ENTRY_POINTS) * len(NOT_STRATEGIES)
