"""Risk-averse dynamic programming on finite state grids.

Subpackages:

- ``risk``: coherent risk functionals on finite discrete distributions
- ``model``: controlled Markov models (grids, actions, noise, transitions)
- ``solver``: risk-averse Bellman operator, value iteration, policy assembly
- ``oracle``: independent verification oracles (scenario trees, enumeration)
- ``cli``: JSON-configured command line driver
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
from .oracle import (
    BudgetExceededError,
    ScenarioTree,
    avar_lp_oracle,
    build_scenario_tree,
    exhaustive_policy_search,
    risk_neutral_dp,
    scenario_tree_value,
)
from .risk import (
    AVaR,
    DiscreteDistribution,
    DualDensity,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    RiskSpec,
    avar_dual,
    avar_duals,
    avar_primal,
    density_cap,
    evaluate,
    kusuoka_evaluate,
    mean_deviation_dual,
    mean_deviation_duals,
    mean_deviation_primal,
    value_at_risk,
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
