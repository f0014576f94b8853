"""Independent verification oracles for the solver and risk functionals.

Everything here re-derives values through a different route than the main
implementation: scenario trees materialize the nested recursion node by
node, the exhaustive search enumerates every stage-policy sequence, the
linear-programming oracle enumerates dual vertices instead of running the
greedy construction, and the risk-neutral dynamic program recomputes
expectations with its own interpolation.  Budgets are enforced loudly with
``BudgetExceededError``.

The scenario tree still counts and values every node occurrence, with one
risk evaluation per internal node, but makes one shared record per
(stage, state) and computes each (state, action)'s outcomes once per tree,
with its own successor code: the kernel row's support, or the clamped
``next_state`` of each noise atom bracketed by this module's ``_bracket``.
Its valuation walks every occurrence, reads stage costs from one list and
values leaves in place of a call each.  It makes and checks each record's
outcome probabilities once per valuation, and keeps the whole distribution
of a record whose children are all leaves; every other occurrence makes and
checks only its outcome values before its one risk evaluation.

The vertex enumeration still checks every vertex, but forms the candidates
of all feasible (vertex, fractional coordinate) pairs in one array pass over
a cached table of the pairs whose coordinate the vertex leaves free.

The exhaustive search still covers every sequence but evaluates each
(state, action) column once per stage, then copies it to every rule's block;
stage 0 is one argmin per state over its columns, never a stored table.  The
model reads each stage's tails once per distinct outcome block, shared by
every tabular pair whose kernel row has that support, and the risk kind's
``batch_value`` sorts the block once for all of them.  The scenario tree and
the risk-neutral dynamic program keep their own successor code, so the
search's scenario-tree spot-check stays a second route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import MarkovModel, Tabular
from .risk import (
    DiscreteDistribution,
    RiskSpec,
    _check_level,
    _check_probs,
    _check_values,
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
    Leaves (at the tree depth) have no children.  A tree holds one record
    per (stage, state) and reuses it at every place that pair occurs.
    """

    state_index: int
    state: float
    stage: int
    action_index: int
    children: Tuple[Tuple[float, Tuple[Tuple[float, "TreeNode"], ...]], ...]


@dataclass
class ScenarioTree:
    """Fully materialized policy tree of a fixed depth.

    ``n_nodes`` counts node occurrences, a shared record once per place it
    occurs, as a walk of the tree visits them."""

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

    Nodes are made depth first, each outcome's blend in grid order.  Under a
    Markov policy a node and everything below it depend only on its stage
    and state, so each (stage, state) the tree reaches is made once, at its
    first occurrence, as one record that every later occurrence shares: the
    tree is held as a graph of at most ``(depth + 1) * n`` records.  Its
    action is read from the policy and checked at that first occurrence, and
    the outcomes of each (state, action) are computed once.  ``n_nodes``
    still counts every node occurrence, in the depth-first order a walk of
    the tree visits them, a shared record once per place it occurs.

    Raises ``BudgetExceededError`` at node occurrence ``MAX_TREE_NODES + 1``,
    and a ``ValueError`` at the first node of a stage the policy has no rule
    for, or whose rule does not cover the grid.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth!r}")
    # holds for an integral index of any type, where ``0 <= 1.5 < n`` would
    # let ``1.5`` through
    if root_index not in range(model.n_states):
        raise ValueError(f"root index {root_index} out of range")
    points = model.grid.points
    xs = points.tolist()
    admissible = model.actions.indices_for
    budget = MAX_TREE_NODES
    n_nodes = 0
    # (state, action) -> outcomes, each an outcome probability and the
    # (grid index, weight) blend it reaches
    outcomes = {}
    # (stage, state) -> its record and the node occurrences of its subtree
    made = {}

    def outcomes_of(state_index: int, a_idx: int):
        if isinstance(model.transition, Tabular):
            row = model.transition.kernel[state_index, a_idx].tolist()
            found = tuple((p, ((j, 1.0),)) for j, p in enumerate(row) if p > 0.0)
        else:
            x = xs[state_index]
            a = float(model.actions.values[a_idx])
            noise = model.transition.noise.dist
            next_state = model.transition.next_state
            found = tuple(
                (prob, _bracket(points, model.clamp(next_state(x, a, xi))))
                for xi, prob in zip(noise.values.tolist(), noise.probs.tolist())
            )
        outcomes[state_index, a_idx] = found
        return found

    def expand(state_index: int, stage: int) -> TreeNode:
        nonlocal n_nodes
        # a shared subtree was made without error, so the budget is the only
        # check its occurrences can fail, and it fails at the same node
        known = made.get((stage, state_index))
        n_nodes += known[1] if known else 1
        if n_nodes > budget:
            raise BudgetExceededError(f"scenario tree exceeds {budget} nodes")
        if known:
            return known[0]
        first = n_nodes
        rule = policy.rule(stage)
        if rule.shape != points.shape:
            raise ValueError("policy rules must align with the grid")
        a_idx = int(rule[state_index])
        if a_idx not in admissible(state_index):
            raise ValueError(
                f"stage {stage} assigns inadmissible action index "
                f"{a_idx} at state {state_index}"
            )
        children = ()
        if stage < depth:
            found = outcomes.get((state_index, a_idx))
            if found is None:
                found = outcomes_of(state_index, a_idx)
            child_stage = stage + 1
            children = tuple(
                [
                    (prob, tuple([(weight, expand(j, child_stage)) for j, weight in blend]))
                    for prob, blend in found
                ]
            )
        node = TreeNode(state_index, xs[state_index], stage, a_idx, children)
        made[stage, state_index] = (node, n_nodes - first + 1)
        return node

    try:
        root = expand(int(root_index), 0)
    finally:
        # ``expand`` reaches itself through its closure cell; dropping the
        # name breaks that cycle, so reference counting frees the tables and
        # the tree, on the error paths too
        del expand
    return ScenarioTree(depth=depth, root=root, n_nodes=n_nodes)


def _node_value(
    costs: list, beta: float, risk: RiskSpec, node: TreeNode, records: dict
) -> float:
    """Stage cost of an internal node plus the discounted risk of its
    children's values; leaf children are read from ``costs`` (the model's
    ``cost_table.tolist()``) in place of a call each.  Each blend is added
    to ``0.0`` in order, as ``sum`` adds it (a ``-0.0`` term reads ``0.0``).

    ``records`` maps ``id`` of each record met so far to its outcome
    probabilities, made and checked at its first occurrence, or, where
    every child is a leaf, to its whole distribution: those outcome values
    are stage costs, the same at every occurrence.  Each distribution is
    made by ``DiscreteDistribution._trusted`` on arrays checked here."""
    record = records.get(id(node))
    if record.__class__ is DiscreteDistribution:
        return costs[node.state_index][node.action_index] + beta * evaluate(risk, record)
    values = []
    for _, blend in node.children:
        total = 0.0
        for weight, child in blend:
            if child.children:
                total += weight * _node_value(costs, beta, risk, child, records)
            else:
                total += weight * costs[child.state_index][child.action_index]
        values.append(total)
    values = np.array(values, dtype=float)
    _check_values(values)
    if record is None:
        record = np.array([prob for prob, _ in node.children], dtype=float)
        _check_probs(record)
        dist = DiscreteDistribution._trusted(values, record)
        leaves = not any(child.children for _, blend in node.children for _, child in blend)
        records[id(node)] = dist if leaves else record
    else:
        dist = DiscreteDistribution._trusted(values, record)
    return costs[node.state_index][node.action_index] + beta * evaluate(risk, dist)


def scenario_tree_value(
    model: MarkovModel, risk: RiskSpec, policy: Policy, depth: int, root_index: int
) -> float:
    """Nested value of ``policy`` from one root state, computed on an
    explicit scenario tree.

    Recursively, each node contributes its stage cost plus the discounted
    risk of the distribution of child values; leaves contribute only their
    stage cost.  Every internal occurrence makes one ``evaluate`` call, on
    the distribution the node's outcomes define.  Its probabilities are
    made and checked once per record; a record whose children are all
    leaves keeps its whole distribution, and any other occurrence makes and
    checks only its values.
    """
    root = build_scenario_tree(model, policy, depth, root_index).root
    costs = model.cost_table.tolist()
    if not root.children:
        return costs[root.state_index][root.action_index]
    return _node_value(costs, model.discount, risk, root, {})


# ---------------------------------------------------------------------------
# exhaustive policy enumeration


def _first_best_row(block: np.ndarray, after: int) -> Tuple[int, float]:
    """The row of the stage-0 table that ``argmin(axis=0)`` picks in one
    state's column, and its value, from that state's ``(choices, tails)``
    block of column values; ``after`` is the number of rules of the states
    after it.

    Row ``(r, t)`` of the table is stage rule ``r`` ahead of tail ``t``, and
    the state's column depends on ``r`` only through the state's own digit.
    So the first row holding the column's minimum (or its first NaN) has
    every other digit 0: its digit and tail are the first argmin of the
    block.
    """
    t_count = block.shape[1]
    flat = int(block.argmin())
    digit, t = divmod(flat, t_count)
    return digit * after * t_count + t, float(block.flat[flat])


def exhaustive_policy_search(
    model: MarkovModel, risk: RiskSpec, depth: int
) -> Tuple[np.ndarray, List[Tuple[Tuple[int, ...], ...]]]:
    """Minimum nested value over every Markov stage-policy sequence.

    All ``R**(depth + 1)`` sequences (``R`` decision rules per stage) are
    covered by a backward recursion batched over policy tails, which
    computes exactly the per-policy nested value.  Each stage evaluates
    every (state, action) column from one sorted read per outcome block
    (``MarkovModel._successor_groups`` and a stacked ``batch_value``).
    Stages ``depth`` to 1 are stored as a table of ``R**depth x n`` tail
    values at most; stage 0 is one argmin per initial state over the
    ``(actions, tails)`` block of its columns, which picks the sequence
    ``argmin(axis=0)`` of the full ``R**(depth + 1) x n`` table would, ties
    and the first NaN included.  The winning value per initial state is
    re-derived through ``scenario_tree_value`` as a cross-check.  Returns
    the pointwise-minimal values and, per initial state, the minimizing
    sequence of stage rules.  The sequence budget is checked before any
    rule is built, so an oversized model raises ``BudgetExceededError`` at
    once.
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

    def columns(tails: np.ndarray):
        """``(i, a_idx, column)``: each pair's ``cost + beta * risk``, in place."""
        for outcomes, pairs, probs in model._successor_groups(tails):
            for (i, a_idx), column in zip(pairs, risk.batch_value(probs, outcomes)):
                column *= beta
                column += model.cost_at(i, a_idx)
                yield i, a_idx, column

    # tails[t] is the value vector of one policy-tail; peeling stages from
    # the last to stage 1 multiplies the tail count by n_rules each time.
    # Column i of a rule's block depends on the rule only through its
    # action at state i, so each (state, action) column is computed once
    # per stage and copied into the blocks of every rule choosing it.
    tails = np.zeros((1, n))
    for stage in range(depth, 0, -1):
        t_count = tails.shape[0]
        grown = np.empty((n_rules * t_count, n))
        for i, a_idx, column in columns(tails):
            before, after = math.prod(sizes[:i]), math.prod(sizes[i + 1 :])
            # grown viewed as (digits before i, digit i, digits after i,
            # tail, state); the copies below fill grown in place
            blocks = grown.reshape(before, sizes[i], after, t_count, n)
            blocks[:, choices[i].index(a_idx), :, :, i] = column
        tails = grown

    # stage 0 is never stored: each state's column values, one row per
    # admissible action, give its best row directly
    found = {(i, a_idx): column for i, a_idx, column in columns(tails)}
    best_rows = []
    best_values = np.empty(n)
    for i in range(n):
        block = np.array([found[i, a_idx] for a_idx in choices[i]])
        row, best_values[i] = _first_best_row(block, math.prod(sizes[i + 1 :]))
        best_rows.append(row)

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

    best_policies = [decode(row) for row in best_rows]

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


@functools.lru_cache(maxsize=None)
def _free_pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.nonzero(_vertex_masks(k) == 0.0)``: the ``k * 2**(k-1)``
    (vertex, atom) pairs in which the vertex leaves the atom free to take
    the fractional remainder, in row-major order."""
    pairs = np.nonzero(_vertex_masks(k) == 0.0)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def avar_lp_oracle(alpha: float, dist: DiscreteDistribution, cap_scale: float = 1.0) -> float:
    """Tail-average risk by enumerating the vertices of its dual polytope.

    Maximizes the reweighted expectation over densities bounded by
    ``1 / (1 - alpha)`` with unit mass, checking every saturated subset with
    at most one fractional coordinate: the exact-mass subsets, then every
    feasible (subset, free coordinate) pair in one array pass over the
    cached free pairs of ``_free_pairs``.  Limited to ``MAX_LP_ATOMS`` atoms.
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
    if exact.any():
        best = float(base[exact].max())
    # every (vertex, free coordinate) pair at once; candidates are formed
    # only at the feasible ones, so an infeasible pair cannot overflow
    vertex, b = _free_pairs(k)
    rem = remainder[vertex]
    (at,) = ((rem > 1e-12) & (rem <= (cap * probs + 1e-12)[b])).nonzero()
    if len(at):
        best = max(best, float((base[vertex[at]] + rem[at] * values[b[at]]).max()))
    if not math.isfinite(best):
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
