"""Risk-averse dynamic programming on finite state grids.

Subpackages:

- ``risk``: coherent risk functionals on finite discrete distributions
- ``model``: controlled Markov models (grids, actions, noise, transitions)
- ``solver``: risk-averse Bellman operator, value iteration, policy assembly
- ``oracle``: independent verification oracles (scenario trees, enumeration)
- ``fixtures``: seeded random instances for the verification suites and tests
- ``verify``: the oracle-agreement suites of ``riskdp verify``
- ``cli``: JSON-configured command line driver

Importing the package, or ``riskdp.cli``, loads ``risk``, ``model`` and
``solver`` only.  The oracle names exported here (``avar_lp_oracle``,
``exhaustive_policy_search`` and the others of ``_ORACLE_NAMES``) load
``riskdp.oracle`` on first use.
"""

from .model import (
    ActionSet,
    Dynamics,
    InvestmentParams,
    LQParams,
    MarkovModel,
    NoiseModel,
    StateGrid,
    Tabular,
    build_investment,
    build_lq,
    build_tabular,
    interpolate,
    quantize_standard_normal,
    successor_distribution,
)
from .risk import (
    AVaR,
    DiscreteDistribution,
    DualDensity,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    RiskSpec,
    avar_duals,
    avar_primal,
    evaluate,
    kusuoka_evaluate,
    mean_deviation_duals,
    mean_deviation_primal,
)
from .solver import (
    HorizonBound,
    MonotonicityError,
    Policy,
    SolveReport,
    assemble_epsilon_policy,
    backward_induct,
    bellman_update,
    epsilon_horizon,
    evaluate_policy,
    supersolution_check,
    value_iterate,
)

__version__ = "0.1.0"

#: ``riskdp.oracle``'s exports, read from it on each access (``__getattr__``)
_ORACLE_NAMES = frozenset({
    "BudgetExceededError", "ScenarioTree", "avar_lp_oracle", "build_scenario_tree",
    "exhaustive_policy_search", "risk_neutral_dp", "scenario_tree_value",
})


def __getattr__(name):
    # never stored in the package namespace, so each access returns the
    # oracle module's current binding, a rebinding of it included
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
