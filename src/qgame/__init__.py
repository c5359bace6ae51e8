"""Two-angle quantization of 2x2 bimatrix games.

An initial state entangled by gamma, two-parameter unitary strategies, and a
measurement basis entangled by delta. Payoffs come from two independent
paths: exact state simulation (scheme.payoffs_oracle) and analytic formulas
(closedform.payoff_general and its special cases), which the verification
suite cross-checks. The equilibrium module certifies epsilon-Nash profiles
on strategy grids.

The names below are imported from their modules on first use (PEP 562), so
`import qgame` loads nothing else, and a command such as `qgame payoff`
loads only the modules it runs: neither numpy nor the grid and verification
modules.
"""

import importlib

_EXPORTS = {
    "closedform": ("bos_coefficients payoff_case_a_i payoff_case_a_ii payoff_case_b_i "
                   "payoff_case_b_ii payoff_case_c payoff_case_d payoff_du_maximal "
                   "payoff_general"),
    "equilibrium": "StrategyGrid epsilon_nash sweep table_blocks",
    "scheme": ("GameMatrix PayoffPair SchemeParams StrategyParams battle_of_sexes "
               "final_state initial_state measurement_basis outcome_probabilities "
               "payoffs_oracle strategy_op"),
    "verification": "VerificationReport run_verification",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
