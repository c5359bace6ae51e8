"""Two-angle quantization of 2x2 bimatrix games.

An initial state entangled by gamma, two-parameter unitary strategies, and a
measurement basis entangled by delta. Payoffs come from two independent
paths: exact state simulation (scheme.payoffs_oracle) and analytic formulas
(closedform.payoff_general and its special cases), which the verification
suite cross-checks. The equilibrium module certifies epsilon-Nash profiles
on strategy grids.
"""

from .closedform import (
    BosCoefficients,
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
from .equilibrium import (
    StrategyGrid,
    SweepRow,
    epsilon_nash,
    sweep,
    table_blocks,
)
from .scheme import (
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
from .verification import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "BosCoefficients",
    "GameMatrix",
    "PayoffPair",
    "SchemeParams",
    "StrategyGrid",
    "StrategyParams",
    "SweepRow",
    "VerificationReport",
    "battle_of_sexes",
    "bos_coefficients",
    "epsilon_nash",
    "final_state",
    "initial_state",
    "measurement_basis",
    "outcome_probabilities",
    "payoff_case_a_i",
    "payoff_case_a_ii",
    "payoff_case_b_i",
    "payoff_case_b_ii",
    "payoff_case_c",
    "payoff_case_d",
    "payoff_du_maximal",
    "payoff_general",
    "payoffs_oracle",
    "run_verification",
    "strategy_op",
    "sweep",
    "table_blocks",
]
