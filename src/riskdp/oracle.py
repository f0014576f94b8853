"""Independent verification oracles for the solver and risk functionals.

Everything here re-derives values through a different route than the main
implementation: scenario trees materialize the nested recursion node by
node, the exhaustive search enumerates every stage-policy sequence, the
linear-programming oracle enumerates dual vertices instead of running the
greedy construction, and the risk-neutral dynamic program recomputes
expectations with its own interpolation.  Budgets are enforced loudly with
``BudgetExceededError``.

The exhaustive search still enumerates every sequence but evaluates each
(state, action) column once per stage, then copies it to every rule's block.
It reads the model's cached successors, as ``successor_distribution`` does;
the scenario tree and the risk-neutral dynamic program keep their own
successor code, so the search's scenario-tree spot-check stays a second
route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import MarkovModel, Tabular, _bracket as _grid_bracket
from .risk import (
    AVaR,
    DiscreteDistribution,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    RiskSpec,
    _check_level,
    _tail_take,
    evaluate,
)
from .solver import Policy

__all__ = [
    "BudgetExceededError",
    "TreeNode",
    "ScenarioTree",
    "build_scenario_tree",
    "scenario_tree_value",
    "exhaustive_policy_search",
    "avar_lp_oracle",
    "risk_neutral_dp",
    "MAX_TREE_NODES",
    "MAX_POLICY_SEQUENCES",
    "MAX_LP_ATOMS",
]

#: largest scenario tree materialized before giving up
MAX_TREE_NODES = 10 ** 6
#: largest number of stage-policy sequences enumerated exhaustively
MAX_POLICY_SEQUENCES = 10 ** 6
#: largest atom count accepted by the dual vertex enumeration
MAX_LP_ATOMS = 12


class BudgetExceededError(RuntimeError):
    """An oracle would exceed its node, sequence, or atom budget."""


@dataclass
class TreeNode:
    """One node of an unrolled scenario tree.

    ``children`` holds one entry per random outcome: the outcome probability
    together with a blend of successor nodes.  Tabular transitions blend a
    single node with weight one; dynamics blend the two grid nodes that
    bracket the clamped successor state, weighted by linear interpolation.
    Leaves (at the tree depth) have no children.
    """

    state_index: int
    state: float
    stage: int
    action_index: int
    children: Tuple[Tuple[float, Tuple[Tuple[float, "TreeNode"], ...]], ...]


@dataclass
class ScenarioTree:
    """Fully materialized policy tree of a fixed depth."""

    depth: int
    root: TreeNode
    n_nodes: int


def _bracket(points: np.ndarray, x: float) -> Tuple[Tuple[int, float], ...]:
    """Grid indices and interpolation weights representing position ``x``."""
    hi = int(np.searchsorted(points, x, side="right"))
    if hi <= 0:
        return ((0, 1.0),)
    if hi >= len(points):
        return ((len(points) - 1, 1.0),)
    lo = hi - 1
    if x == points[lo]:
        return ((lo, 1.0),)
    frac = (x - points[lo]) / (points[hi] - points[lo])
    return ((lo, 1.0 - frac), (hi, frac))


def build_scenario_tree(
    model: MarkovModel, policy: Policy, depth: int, root_index: int
) -> ScenarioTree:
    """Unroll the transitions reachable under ``policy`` from one root state.

    Raises ``BudgetExceededError`` beyond ``MAX_TREE_NODES`` nodes.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth!r}")
    if not (0 <= root_index < model.n_states):
        raise ValueError(f"root index {root_index} out of range")
    points = model.grid.points
    counter = [0]

    def expand(state_index: int, stage: int) -> TreeNode:
        counter[0] += 1
        if counter[0] > MAX_TREE_NODES:
            raise BudgetExceededError(
                f"scenario tree exceeds {MAX_TREE_NODES} nodes"
            )
        a_idx = int(policy.rule(stage)[state_index])
        if a_idx not in model.actions.indices_for(state_index):
            raise ValueError(
                f"stage {stage} assigns inadmissible action index "
                f"{a_idx} at state {state_index}"
            )
        if stage == depth:
            return TreeNode(state_index, float(points[state_index]), stage, a_idx, ())
        children = []
        if isinstance(model.transition, Tabular):
            row = model.transition.kernel[state_index, a_idx]
            for j in np.flatnonzero(row > 0.0):
                child = expand(int(j), stage + 1)
                children.append((float(row[j]), ((1.0, child),)))
        else:
            x = float(points[state_index])
            a = float(model.actions.values[a_idx])
            noise = model.transition.noise.dist
            for xi, prob in zip(noise.values, noise.probs):
                succ = model.clamp(model.transition.next_state(x, a, float(xi)))
                blend = tuple(
                    (weight, expand(j, stage + 1))
                    for j, weight in _bracket(points, succ)
                )
                children.append((float(prob), blend))
        return TreeNode(state_index, float(points[state_index]), stage, a_idx, tuple(children))

    root = expand(root_index, 0)
    return ScenarioTree(depth=depth, root=root, n_nodes=counter[0])


def _node_value(model: MarkovModel, risk: RiskSpec, node: TreeNode) -> float:
    cost = model.cost_at(node.state_index, node.action_index)
    if not node.children:
        return cost
    values = np.empty(len(node.children))
    probs = np.empty(len(node.children))
    for k, (prob, blend) in enumerate(node.children):
        values[k] = sum(w * _node_value(model, risk, child) for w, child in blend)
        probs[k] = prob
    dist = DiscreteDistribution(values, probs)
    return cost + model.discount * evaluate(risk, dist)


def scenario_tree_value(
    model: MarkovModel, risk: RiskSpec, policy: Policy, depth: int, root_index: int
) -> float:
    """Nested value of ``policy`` from one root state, computed on an
    explicit scenario tree.

    Recursively, each node contributes its stage cost plus the discounted
    risk of the distribution of child values; leaves contribute only their
    stage cost.
    """
    tree = build_scenario_tree(model, policy, depth, root_index)
    return _node_value(model, risk, tree.root)


# ---------------------------------------------------------------------------
# exhaustive policy enumeration


def _batch_avar(alpha: float, probs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Tail-average risk of each row of ``outcomes`` under shared atom
    probabilities, via direct tail-mass collection."""
    order = np.argsort(-outcomes, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(outcomes, order, axis=1)
    sorted_probs = np.take_along_axis(
        np.broadcast_to(probs, outcomes.shape), order, axis=1
    )
    take = _tail_take(alpha, sorted_probs)
    return (sorted_vals * take).sum(axis=1) / (1.0 - alpha)


def _batch_risk(risk: RiskSpec, probs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Row-wise risk of an outcome matrix under shared atom probabilities."""
    if isinstance(risk, Expectation):
        return outcomes @ probs
    if isinstance(risk, AVaR):
        return _batch_avar(risk.alpha, probs, outcomes)
    if isinstance(risk, MeanDeviation):
        means = outcomes @ probs
        dev = np.abs(outcomes - means[:, None]) @ probs
        return means + risk.kappa * dev
    if isinstance(risk, KusuokaMixture):
        total = np.zeros(outcomes.shape[0])
        for alpha, weight in risk.components:
            total += weight * _batch_avar(alpha, probs, outcomes)
        return total
    raise TypeError(f"unknown risk specification: {risk!r}")


def _successor_outcomes(
    model: MarkovModel, tails: np.ndarray, state_index: int, action_index: int
):
    """Atom probabilities of one pair's cached successors and, per row of
    ``tails``, the values they read: the kernel row's support for a tabular
    model, ``interpolate``'s bracketing for dynamics."""
    support, probs = model._successor_support(state_index, action_index)
    if isinstance(model.transition, Tabular):
        return probs, tails[:, support]
    points = model.grid.points
    xs, lo, hi, frac = _grid_bracket(points, support)
    outcomes = tails[:, lo] + frac * (tails[:, hi] - tails[:, lo])
    outcomes = np.where(xs == points[-1], tails[:, -1:], outcomes)
    # C order, as stacked ``interpolate`` rows: ``@`` sums F order otherwise
    return probs, np.ascontiguousarray(outcomes)


def exhaustive_policy_search(
    model: MarkovModel, risk: RiskSpec, depth: int, spot_check: bool = True
) -> Tuple[np.ndarray, List[Tuple[Tuple[int, ...], ...]]]:
    """Minimum nested value over every Markov stage-policy sequence.

    All ``R**(depth + 1)`` sequences (``R`` decision rules per stage) are
    evaluated by a backward recursion batched over policy tails, which
    computes exactly the per-policy nested value; the winning value per
    initial state is optionally re-derived through ``scenario_tree_value``
    as a cross-check.  Returns the pointwise-minimal values and, per initial
    state, the minimizing sequence of stage rules.  The sequence budget is
    checked before any rule is built, so an oversized model raises
    ``BudgetExceededError`` at once.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth!r}")
    n = model.n_states
    # rule r is the mixed-radix number whose digit i (state 0 most
    # significant, as in itertools.product) picks from choices[i]
    choices = [model.actions.indices_for(i) for i in range(n)]
    sizes = [len(c) for c in choices]
    n_rules = math.prod(sizes)
    # the sequence count is formed exactly only while it is short enough to
    # print; beyond a hundred digits it is far over any budget anyway
    log_total = (depth + 1) * math.log10(n_rules)
    if log_total > 100 or n_rules ** (depth + 1) > MAX_POLICY_SEQUENCES:
        total = f"about 10**{log_total:.0f}" if log_total > 100 else n_rules ** (depth + 1)
        raise BudgetExceededError(
            f"{total} stage-policy sequences exceed the "
            f"{MAX_POLICY_SEQUENCES} budget"
        )
    beta = model.discount

    # tails[t] is the value vector of one policy-tail; peeling stages from
    # the last to the first multiplies the tail count by n_rules each time.
    # Column i of a rule's block depends on the rule only through its
    # action at state i, so each (state, action) column is computed once
    # per stage and copied into the blocks of every rule choosing it.
    tails = np.zeros((1, n))
    for stage in range(depth, -1, -1):
        t_count = tails.shape[0]
        grown = np.empty((n_rules * t_count, n))
        for i in range(n):
            before, after = math.prod(sizes[:i]), math.prod(sizes[i + 1 :])
            # grown viewed as (digits before i, digit i, digits after i,
            # tail, state); the copies below fill grown in place
            blocks = grown.reshape(before, sizes[i], after, t_count, n)
            for d, a_idx in enumerate(choices[i]):
                probs, outcomes = _successor_outcomes(model, tails, i, a_idx)
                blocks[:, d, :, :, i] = model.cost_at(i, a_idx) + beta * _batch_risk(
                    risk, probs, outcomes
                )
        tails = grown

    best_rows = tails.argmin(axis=0)
    best_values = tails[best_rows, np.arange(n)]

    def rule_of(r: int) -> Tuple[int, ...]:
        rule = [0] * n
        for i in range(n - 1, -1, -1):
            r, digit = divmod(r, sizes[i])
            rule[i] = choices[i][digit]
        return tuple(rule)

    def decode(row: int) -> Tuple[Tuple[int, ...], ...]:
        digits = []
        for _ in range(depth + 1):
            row, digit = divmod(row, n_rules)
            digits.append(digit)
        # rows were built most-significant stage first
        digits.reverse()
        return tuple(rule_of(d) for d in digits)

    best_policies = [decode(int(row)) for row in best_rows]

    if spot_check:
        for i in range(n):
            policy = Policy(stages=tuple(np.array(rule) for rule in best_policies[i]))
            tree_value = scenario_tree_value(model, risk, policy, depth, i)
            if abs(tree_value - best_values[i]) > 1e-9:
                raise RuntimeError(
                    f"batched enumeration disagrees with the scenario tree at "
                    f"state {i}: {best_values[i]!r} vs {tree_value!r}"
                )
    return best_values, best_policies


# ---------------------------------------------------------------------------
# dual vertex enumeration


@functools.lru_cache(maxsize=None)
def _vertex_masks(k: int) -> np.ndarray:
    """Read-only ``2**k x k`` matrix whose rows are the 0/1 saturation
    patterns of ``k`` atoms."""
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
    masks.setflags(write=False)
    return masks


def avar_lp_oracle(alpha: float, dist: DiscreteDistribution, cap_scale: float = 1.0) -> float:
    """Tail-average risk by enumerating the vertices of its dual polytope.

    Maximizes the reweighted expectation over densities bounded by
    ``1 / (1 - alpha)`` with unit mass, checking every saturated subset with
    at most one fractional coordinate.  Limited to ``MAX_LP_ATOMS`` atoms.
    ``cap_scale`` deliberately mis-scales the density bound and exists only
    as a fault-injection hook for the verification harness.
    """
    _check_level(alpha)
    k = len(dist)
    if k > MAX_LP_ATOMS:
        raise BudgetExceededError(
            f"{k} atoms exceed the {MAX_LP_ATOMS}-atom vertex enumeration budget"
        )
    cap = cap_scale / (1.0 - alpha)
    probs = dist.probs
    values = dist.values
    weighted = probs * values
    masks = _vertex_masks(k)
    mass = cap * (masks @ probs)
    base = cap * (masks @ weighted)
    remainder = 1.0 - mass
    best = -np.inf
    exact = np.abs(remainder) <= 1e-12
    if np.any(exact):
        best = float(base[exact].max())
    for b in range(k):
        feasible = (
            (masks[:, b] == 0.0)
            & (remainder > 1e-12)
            & (remainder <= cap * probs[b] + 1e-12)
        )
        if np.any(feasible):
            candidate = float((base[feasible] + remainder[feasible] * values[b]).max())
            best = max(best, candidate)
    if not np.isfinite(best):
        raise RuntimeError("no feasible dual vertex found")
    return best


# ---------------------------------------------------------------------------
# risk-neutral reference recursion


def risk_neutral_dp(model: MarkovModel, horizon: int) -> np.ndarray:
    """Classical expected-cost backward induction over ``0..horizon``.

    Written independently of the risk functionals: expectations are plain
    probability-weighted sums and interpolation is ``np.interp``.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    n = model.n_states
    beta = model.discount
    points = model.grid.points
    w = np.zeros(n)
    for _ in range(horizon + 1):
        new = np.empty(n)
        for i in range(n):
            x = float(points[i])
            best = np.inf
            for a_idx in model.actions.indices_for(i):
                a = float(model.actions.values[a_idx])
                if isinstance(model.transition, Tabular):
                    expected = float(model.transition.kernel[i, a_idx] @ w)
                else:
                    noise = model.transition.noise.dist
                    succ = [
                        model.clamp(model.transition.next_state(x, a, float(xi)))
                        for xi in noise.values
                    ]
                    expected = float(np.interp(succ, points, w) @ noise.probs)
                best = min(best, float(model.cost(x, a)) + beta * expected)
            new[i] = best
        w = new
    return w
