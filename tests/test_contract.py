"""The numeric input contract (see input_contract.py) of all 19 public entry
points that take numbers, at 20 values: the numpy-free ones and numpy's; and
each strategy parameter of the 7 that take strategies, at values that are no
strategy."""

import numpy as np
import pytest

from input_contract import (
    ENTRY_POINTS,
    NOT_A_NUMBER,
    NOT_STRATEGIES,
    STRATEGY_ENTRY_POINTS,
    VALUES,
    check,
    check_strategy,
)
from qgame.equilibrium import StrategyGrid, check_eps, sweep_schemes

ALL_ENTRY_POINTS = {
    **ENTRY_POINTS,
    # an int too large for any grid is named with the grid it would make
    "StrategyGrid": (lambda v: StrategyGrid(v, 1), "theta_steps|grid", int),
    "check_eps": (check_eps, "eps", float),
    "sweep_schemes": (lambda v: sweep_schemes([v], [0.1]), "gamma", float),
}

ALL_VALUES = VALUES + [
    ("np.float64", np.float64(0.5), float),
    ("np.float32", np.float32(0.5), float),
    ("np.int64", np.int64(1), int),
    ("np.bool_", np.True_, NOT_A_NUMBER),
    ("0-d-array", np.array(0.5), float),
    ("one-element-array", np.array([0.5]), NOT_A_NUMBER),
]


@pytest.mark.parametrize("value,what", [v[1:] for v in ALL_VALUES], ids=[v[0] for v in ALL_VALUES])
@pytest.mark.parametrize("entry", ALL_ENTRY_POINTS)
def test_numeric_input_contract(entry, value, what):
    check(ALL_ENTRY_POINTS[entry], value, what)


@pytest.mark.parametrize("value,what", [v[1:] for v in ALL_VALUES if v[2] in (int, float)],
                         ids=[v[0] for v in ALL_VALUES if v[2] in (int, float)])
def test_real_numbers_in_range_are_taken(value, what):
    # no row of the table is vacuous: every entry point of floats takes each
    # real number of [0, 1], as its float
    for name, entry in ALL_ENTRY_POINTS.items():
        if entry[2] is float:
            assert check(entry, value, what) == "returns", name


class ArithmeticFails(float):
    """A float whose arithmetic raises: an entry point that computes with the
    float it checked, not with the value it was given, never notices."""

    def _fail(self, *args):
        raise AssertionError("computed with the value given, not with the checked float")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _fail
    __truediv__ = __rtruediv__ = __pow__ = __neg__ = _fail


@pytest.mark.parametrize("entry", [name for name, (_, _, kind) in ALL_ENTRY_POINTS.items()
                                   if kind is float])
def test_entry_points_compute_with_the_checked_float(entry):
    call = ALL_ENTRY_POINTS[entry][0]
    assert call(ArithmeticFails(0.5)) == call(0.5)


@pytest.mark.parametrize("value", [v[1] for v in NOT_STRATEGIES], ids=[v[0] for v in NOT_STRATEGIES])
@pytest.mark.parametrize("entry", STRATEGY_ENTRY_POINTS)
def test_strategy_input_contract(entry, value):
    # a strategy is checked where it enters, and the message names the parameter
    check_strategy(entry, value)
