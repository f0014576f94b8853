"""Seeded random instances for verification suites and tests.

Everything here is driven by a ``numpy.random.Generator`` so identical seeds
reproduce identical instances.
"""

from __future__ import annotations

import numpy as np

# the builders are called through their module, where a tool that rebinds
# module-level functions (the benchmark's span tracer) finds them
from . import model as _model
from .model import LQParams, MarkovModel
from .risk import DiscreteDistribution
from .solver import Policy

__all__ = [
    "random_distribution",
    "random_tabular_model",
    "random_lq_model",
    "random_stage_policy",
]


def random_distribution(rng, max_atoms: int = 16, lo: float = -10.0, hi: float = 10.0):
    """Random finite distribution with 1..max_atoms atoms and values in
    [lo, hi]."""
    k = int(rng.integers(1, max_atoms + 1))
    values = rng.uniform(lo, hi, size=k)
    probs = rng.uniform(0.05, 1.0, size=k)
    probs /= probs.sum()
    return DiscreteDistribution(values, probs)


def random_tabular_model(
    rng, n_states: int = 4, n_actions: int = 2, discount: float = 0.5
) -> MarkovModel:
    """Random dense tabular model with uniform-Dirichlet kernel rows and
    stage costs in [0, 1]."""
    kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    costs = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    return _model.build_tabular(kernel, costs, discount)


def random_lq_model(rng, grid_points: int = 9, n_actions: int = 3, noise_atoms: int = 3):
    """Small linear-quadratic model with randomized noise scale and
    discount, suitable for scenario-tree comparisons."""
    params = LQParams(
        sigma=float(rng.uniform(0.3, 1.2)),
        action_bound=1.0,
        x_lo=-2.0,
        x_hi=2.0,
        grid_points=grid_points,
        n_actions=n_actions,
        noise_atoms=noise_atoms,
    )
    discount = float(rng.uniform(0.3, 0.7))
    return _model.build_lq(params, discount)


def random_stage_policy(rng, model: MarkovModel, n_stages: int) -> Policy:
    """Uniformly random admissible decision rule for each stage."""
    rules = []
    for _ in range(n_stages):
        rule = np.array(
            [int(rng.choice(model.actions.indices_for(i))) for i in range(model.n_states)]
        )
        rules.append(rule)
    return Policy(stages=tuple(rules))
