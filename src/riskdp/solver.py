"""Dynamic-programming solver for risk-averse discounted control.

The one-step operator replaces the expectation of classical dynamic
programming with a coherent risk functional applied to the distribution of
next-step values.  Starting from the zero function, backward induction over
a finite horizon and repeated application of the operator (value iteration)
both produce pointwise nondecreasing value sequences; the iteration stops
once the geometric tail implied by the latest residual falls below the
requested tolerance.  A near-optimal infinite-horizon policy is assembled
by following the finite-horizon stage rules and then switching to a fixed
base rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import MarkovModel, successor_distribution
from .risk import RiskSpec, evaluate

__all__ = [
    "MonotonicityError",
    "Policy",
    "SolveReport",
    "HorizonBound",
    "bellman_update",
    "backward_induct",
    "value_iterate",
    "epsilon_horizon",
    "assemble_epsilon_policy",
    "evaluate_policy",
    "supersolution_check",
]

#: slack for pointwise monotonicity of value iterates, times their largest value above 1
MONOTONE_TOL = 1e-12


class MonotonicityError(RuntimeError):
    """Value iterates decreased pointwise: the model breaks the contract
    under which iteration from zero is monotone."""


@dataclass(frozen=True)
class Policy:
    """Sequence of decision rules, one per stage, with an optional
    stationary tail rule used for every stage past the last listed one.

    Each rule maps a state index to an action index.
    """

    stages: Tuple[np.ndarray, ...]
    tail: Optional[np.ndarray] = None

    def __post_init__(self):
        stages = tuple(np.asarray(rule, dtype=int) for rule in self.stages)
        object.__setattr__(self, "stages", stages)
        if self.tail is not None:
            object.__setattr__(self, "tail", np.asarray(self.tail, dtype=int))
        lengths = {len(rule) for rule in stages}
        if self.tail is not None:
            lengths.add(len(self.tail))
        if len(lengths) > 1:
            raise ValueError("all decision rules must cover the same state count")
        if not stages and self.tail is None:
            raise ValueError("policy needs at least one decision rule")

    @classmethod
    def stationary(cls, rule) -> "Policy":
        """Policy applying one rule at every stage."""
        return cls(stages=(), tail=np.asarray(rule, dtype=int))

    def rule(self, stage: int) -> np.ndarray:
        """Decision rule for a stage; the tail rule covers stages beyond
        the listed ones."""
        if stage < 0:
            raise ValueError(f"stage must be nonnegative, got {stage!r}")
        if stage < len(self.stages):
            return self.stages[stage]
        if self.tail is not None:
            return self.tail
        raise ValueError(f"policy defines no decision rule for stage {stage}")


@dataclass
class SolveReport:
    """Outcome of value iteration, optionally extended with the near-optimal
    policy assembly performed by the command-line driver.

    ``values_per_iteration`` starts at the zero function and is pointwise
    nondecreasing; ``residuals`` holds the sweep-to-sweep sup-norm
    increments.
    """

    values_per_iteration: List[np.ndarray]
    residuals: List[float]
    converged: bool
    converged_value: np.ndarray
    stationary_policy: np.ndarray
    horizon: Optional[int] = None
    epsilon: Optional[float] = None
    tail_bound: Optional[float] = None
    policy: Optional[Policy] = None

    @property
    def sweeps(self) -> int:
        return len(self.residuals)

    def to_dict(self) -> dict:
        """JSON-ready dictionary with arrays in grid order."""
        policy = None
        if self.policy is not None:
            policy = {
                "stages": [rule.tolist() for rule in self.policy.stages],
                "tail": None if self.policy.tail is None else self.policy.tail.tolist(),
            }
        return {
            "values_per_iteration": [v.tolist() for v in self.values_per_iteration],
            "residuals": list(self.residuals),
            "converged": self.converged,
            "converged_value": self.converged_value.tolist(),
            "stationary_policy": self.stationary_policy.tolist(),
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "tail_bound": self.tail_bound,
            "policy": policy,
        }


class HorizonBound(NamedTuple):
    """Smallest horizon whose geometric cost tail drops below a target,
    together with that exact tail value."""

    n0: int
    tail: float


def _sweep(model: MarkovModel, risk: RiskSpec, v, choices) -> Tuple[np.ndarray, np.ndarray]:
    """For each state ``i``, the first minimum over the action indices
    ``choices[i]`` of the stage cost plus the discounted risk of the
    successor values ``v``, and the action that attains it; raises
    ``OverflowError`` where none is below infinity."""
    beta = model.discount
    costs = model.cost_table.tolist()
    values = np.empty(model.n_states)
    rule = np.empty(model.n_states, dtype=int)
    # a value that overflows is reported below, not warned of by the kernels
    with np.errstate(over="ignore", invalid="ignore"):
        for i, actions in enumerate(choices):
            best_q = np.inf
            best_a = -1
            for a_idx in actions:
                dist = successor_distribution(model, i, a_idx, v)
                q = costs[i][a_idx] + beta * evaluate(risk, dist)
                if q < best_q:
                    best_q = q
                    best_a = a_idx
            values[i] = best_q
            rule[i] = best_a
    if not np.isfinite(values).all():
        raise OverflowError(f"values overflow the float range at discount {beta!r}")
    return values, rule


def bellman_update(
    model: MarkovModel, risk: RiskSpec, v_next
) -> Tuple[np.ndarray, np.ndarray]:
    """One sweep of the risk-averse optimality operator.

    For every state the update minimizes, over admissible actions, the stage
    cost plus the discounted risk of the successor-value distribution.
    Returns the updated values and the minimizing rule; ties go to the
    lowest action index.  Raises ``OverflowError`` when a value overflows.
    """
    v_next = np.asarray(v_next, dtype=float)
    if v_next.shape != (model.n_states,):
        raise ValueError("value function must align with the grid")
    if not np.all(np.isfinite(v_next)):
        raise ValueError("value function must be finite")
    if np.any(v_next < 0.0):
        raise ValueError("value function must be nonnegative")
    choices = [model.actions.indices_for(i) for i in range(model.n_states)]
    return _sweep(model, risk, v_next, choices)


def backward_induct(
    model: MarkovModel, risk: RiskSpec, horizon: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Finite-horizon backward induction from the zero terminal value.

    Stages run ``0 .. horizon``; the terminal value beyond the last stage is
    identically zero.  Returns (stage_values, stage_rules) indexed by stage,
    so ``stage_values[0]`` is the full-horizon value.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    v = np.zeros(model.n_states)
    stage_values: List[np.ndarray] = []
    stage_rules: List[np.ndarray] = []
    for _ in range(horizon + 1):
        v, rule = bellman_update(model, risk, v)
        stage_values.append(v)
        stage_rules.append(rule)
    stage_values.reverse()
    stage_rules.reverse()
    return stage_values, stage_rules


def value_iterate(
    model: MarkovModel, risk: RiskSpec, tol: float, max_sweeps: int
) -> SolveReport:
    """Repeated application of the optimality operator from zero.

    Stops once ``residual * discount / (1 - discount) < tol`` where the
    residual is the largest pointwise increment of the latest sweep; the
    returned report carries ``converged=False`` (with the full residual
    history) when ``max_sweeps`` sweeps did not reach that bound.  Iterates
    are checked to be pointwise nondecreasing, within ``MONOTONE_TOL``.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps!r}")
    beta = model.discount
    factor = beta / (1.0 - beta)
    v = np.zeros(model.n_states)
    iterates = [v]
    residuals: List[float] = []
    converged = False
    for _ in range(max_sweeps):
        v_new, rule = bellman_update(model, risk, v)
        diff = v_new - v
        if float(diff.min()) < -MONOTONE_TOL * max(1.0, float(v_new.max())):
            raise MonotonicityError(
                "value iterates decreased pointwise; "
                "the model violates the monotone-iteration contract"
            )
        residual = float(diff.max())
        iterates.append(v_new)
        residuals.append(residual)
        v = v_new
        if residual * factor < tol:
            converged = True
            break
    return SolveReport(
        values_per_iteration=iterates,
        residuals=residuals,
        converged=converged,
        converged_value=v,
        stationary_policy=rule,
    )


def epsilon_horizon(c_bar: float, discount: float, epsilon: float) -> HorizonBound:
    """Smallest ``n0`` whose geometric cost tail is below ``epsilon``.

    The tail after stage ``n0`` of a per-stage cost bound ``c_bar`` is
    ``c_bar * discount**(n0 + 1) / (1 - discount)``; the returned pair also
    reports that exact tail value.
    """
    if not (0.0 <= c_bar < math.inf):
        raise ValueError(f"c_bar must be finite and nonnegative, got {c_bar!r}")
    if not (0.0 < discount < 1.0):
        raise ValueError(f"discount must lie in (0, 1), got {discount!r}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    n0 = 0
    tail = c_bar * discount / (1.0 - discount)
    while tail >= epsilon:
        n0 += 1
        tail *= discount
    return HorizonBound(n0, tail)


def assemble_epsilon_policy(stage_rules: Sequence, base_rule) -> Policy:
    """Concatenate finite-horizon stage rules with a stationary base rule.

    The resulting policy follows ``stage_rules[n]`` for the covered stages
    and the base rule for every stage after them.
    """
    rules = tuple(stage_rules)
    if not rules:
        raise ValueError("need at least one stage rule")
    return Policy(stages=rules, tail=base_rule)


def evaluate_policy(
    model: MarkovModel, risk: RiskSpec, policy: Policy, horizon: int
) -> np.ndarray:
    """Nested risk-averse value of a fixed policy over stages 0..horizon.

    Backward recursion from the zero terminal value: each stage is the
    Bellman sweep with the rule's one action per state, adding its stage
    cost to the discounted risk of the successor values.  The policy must
    define a rule for every stage in the range.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    n = model.n_states
    w = np.zeros(n)
    for stage in range(horizon, -1, -1):
        rule = policy.rule(stage)
        if rule.shape != (n,):
            raise ValueError("policy rules must align with the grid")
        choices = []
        for i, a_idx in enumerate(rule.tolist()):
            if a_idx not in model.actions.indices_for(i):
                raise ValueError(
                    f"stage {stage} assigns inadmissible action index "
                    f"{a_idx} at state {i}"
                )
            choices.append((a_idx,))
        w, _ = _sweep(model, risk, w, choices)
    return w


def supersolution_check(v, model: MarkovModel, risk: RiskSpec) -> bool:
    """True when ``v`` dominates its own one-step update pointwise (within
    1e-12), certifying that ``v`` is an upper bound on the optimal value."""
    updated, _ = bellman_update(model, risk, v)
    return bool(np.all(updated - 1e-12 <= v))
