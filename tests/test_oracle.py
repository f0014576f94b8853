"""Tests for the verification oracles."""

import numpy as np
import pytest

from riskdp.fixtures import (
    random_distribution,
    random_lq_model,
    random_stage_policy,
    random_tabular_model,
)
from riskdp.model import build_tabular
from riskdp.oracle import (
    BudgetExceededError,
    avar_lp_oracle,
    build_scenario_tree,
    exhaustive_policy_search,
    risk_neutral_dp,
    scenario_tree_value,
)
from riskdp.risk import (
    AVaR,
    DiscreteDistribution,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    avar_primal,
)
from riskdp.solver import Policy, backward_induct, evaluate_policy

TWO_POINT = DiscreteDistribution.from_atoms([(0.0, 0.5), (10.0, 0.5)])


def split_cost_model():
    """From state 0 a single action splits mass evenly between the free
    state 0 and state 1, whose stage cost is 10."""
    kernel = [
        [[0.5, 0.5]],
        [[0.0, 1.0]],
    ]
    costs = [[0.0], [10.0]]
    return build_tabular(kernel, costs, 0.5)


# ---------------------------------------------------------------------------
# scenario trees


def test_tree_depth_zero_is_stage_cost(two_state_model):
    policy = Policy.stationary(np.array([1, 1]))
    assert scenario_tree_value(two_state_model, Expectation(), policy, 0, 0) == 1.0
    assert scenario_tree_value(two_state_model, Expectation(), policy, 0, 1) == 0.0


def test_tree_composes_tail_average():
    model = split_cost_model()
    policy = Policy.stationary(np.array([0, 0]))
    # leaf values are the stage costs (0, 10); the level-0.5 tail average
    # of an even split is 10, discounted once
    value = scenario_tree_value(model, AVaR(0.5), policy, 1, 0)
    assert value == pytest.approx(5.0, abs=1e-12)
    neutral = scenario_tree_value(model, Expectation(), policy, 1, 0)
    assert neutral == pytest.approx(0.5 * 5.0, abs=1e-12)


def test_tree_structure_invariants(two_state_model):
    policy = Policy.stationary(np.array([0, 0]))
    tree = build_scenario_tree(two_state_model, policy, 2, 0)
    assert tree.depth == 2
    assert tree.n_nodes == 3  # deterministic chain

    def walk(node):
        if node.children:
            total = sum(prob for prob, _ in node.children)
            assert abs(total - 1.0) <= 1e-12
            for _, blend in node.children:
                assert abs(sum(w for w, _ in blend) - 1.0) <= 1e-12
                for _, child in blend:
                    assert child.stage == node.stage + 1
                    walk(child)
        else:
            assert node.stage == tree.depth

    walk(tree.root)


def test_tree_budget_error(monkeypatch):
    import riskdp.oracle as oracle_mod

    # the production budget is a million nodes; exercise the guard with a
    # tiny budget so the test does not have to materialize that many
    assert oracle_mod.MAX_TREE_NODES == 10 ** 6
    monkeypatch.setattr(oracle_mod, "MAX_TREE_NODES", 50)
    rng = np.random.default_rng(0)
    model = random_tabular_model(rng)  # dense 4-state kernel
    policy = Policy.stationary(np.array([0, 0, 0, 0]))
    with pytest.raises(BudgetExceededError):
        scenario_tree_value(model, Expectation(), policy, 12, 0)


def test_tree_matches_policy_evaluation_tabular():
    rng = np.random.default_rng(21)
    for _ in range(10):
        model = random_tabular_model(rng)
        depth = int(rng.integers(0, 4))
        policy = random_stage_policy(rng, model, depth + 1)
        risk = AVaR(0.3)
        w = evaluate_policy(model, risk, policy, depth)
        for i in range(model.n_states):
            tree = scenario_tree_value(model, risk, policy, depth, i)
            assert abs(tree - w[i]) <= 1e-9


def test_tree_matches_policy_evaluation_dynamics():
    rng = np.random.default_rng(22)
    for _ in range(6):
        model = random_lq_model(rng)
        depth = int(rng.integers(0, 4))
        policy = random_stage_policy(rng, model, depth + 1)
        risk = MeanDeviation(0.4)
        w = evaluate_policy(model, risk, policy, depth)
        for i in range(model.n_states):
            tree = scenario_tree_value(model, risk, policy, depth, i)
            assert abs(tree - w[i]) <= 1e-9


def test_tree_rejects_bad_arguments(two_state_model):
    policy = Policy.stationary(np.array([0, 0]))
    with pytest.raises(ValueError):
        scenario_tree_value(two_state_model, Expectation(), policy, -1, 0)
    with pytest.raises(ValueError):
        scenario_tree_value(two_state_model, Expectation(), policy, 1, 9)


# ---------------------------------------------------------------------------
# exhaustive search


def test_exhaustive_two_state(two_state_model):
    values, policies = exhaustive_policy_search(two_state_model, Expectation(), 2)
    assert values == pytest.approx([1.0, 0.0], abs=1e-12)
    # the winning first-stage rule moves state 0 to the free state
    assert policies[0][0][0] == 1


def test_exhaustive_matches_backward_induction():
    rng = np.random.default_rng(23)
    for risk in (Expectation(), AVaR(0.3), MeanDeviation(0.4)):
        model = random_tabular_model(rng)
        depth = 3
        dp_values, _ = backward_induct(model, risk, depth)
        best, _ = exhaustive_policy_search(model, risk, depth)
        assert best == pytest.approx(dp_values[0], abs=1e-9)


def test_exhaustive_matches_backward_induction_dynamics():
    rng = np.random.default_rng(29)
    model = random_lq_model(rng, grid_points=4, n_actions=2, noise_atoms=2)
    risk = KusuokaMixture(((0.0, 0.5), (0.5, 0.5)))
    depth = 2
    dp_values, _ = backward_induct(model, risk, depth)
    best, _ = exhaustive_policy_search(model, risk, depth)
    assert best == pytest.approx(dp_values[0], abs=1e-9)


def test_exhaustive_budget_error(two_state_model):
    # 4 rules per stage; 4**11 sequences exceed the budget
    with pytest.raises(BudgetExceededError):
        exhaustive_policy_search(two_state_model, Expectation(), 10)


def test_exhaustive_budget_is_checked_before_rules_are_enumerated(lq_fixture):
    # 9**41 rules per stage: enumerating them first would never finish
    with pytest.raises(BudgetExceededError, match=str(9 ** 41)):
        exhaustive_policy_search(lq_fixture, Expectation(), 0)


# ---------------------------------------------------------------------------
# dual vertex enumeration


def test_lp_oracle_two_point_frozen():
    assert avar_lp_oracle(0.0, TWO_POINT) == pytest.approx(5.0, abs=1e-12)
    assert avar_lp_oracle(0.25, TWO_POINT) == pytest.approx(20.0 / 3.0, abs=1e-12)
    assert avar_lp_oracle(0.5, TWO_POINT) == pytest.approx(10.0, abs=1e-12)


def test_lp_oracle_agrees_with_primal():
    rng = np.random.default_rng(24)
    for _ in range(40):
        dist = random_distribution(rng, max_atoms=8)
        for alpha in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
            assert abs(avar_lp_oracle(alpha, dist) - avar_primal(alpha, dist)) <= 1e-9


def test_lp_oracle_atom_budget():
    values = np.arange(13.0)
    probs = np.full(13, 1.0 / 13.0)
    with pytest.raises(BudgetExceededError):
        avar_lp_oracle(0.5, DiscreteDistribution(values, probs))


def test_lp_oracle_corrupted_cap_detects_mismatch():
    # the fault-injection hook must actually change the answer
    honest = avar_lp_oracle(0.5, TWO_POINT)
    corrupted = avar_lp_oracle(0.5, TWO_POINT, cap_scale=0.75)
    assert abs(honest - corrupted) > 1e-6


# ---------------------------------------------------------------------------
# risk-neutral reference


def test_risk_neutral_two_state(two_state_model):
    w = risk_neutral_dp(two_state_model, 10)
    assert w == pytest.approx([1.0, 0.0], abs=1e-12)


def test_risk_neutral_matches_direct_sum():
    rng = np.random.default_rng(25)
    model = random_lq_model(rng, grid_points=5, n_actions=1, noise_atoms=3)
    # single (zero) action: one backward step from zero terminal values is
    # cost(x, 0) + beta * E[interp(cost at stage 1)] computed by hand
    points = model.grid.points
    noise = model.transition.noise.dist
    stage1 = np.array([model.cost(float(x), 0.0) for x in points])
    expected = np.empty(len(points))
    for i, x in enumerate(points):
        succ = [model.clamp(model.transition.next_state(float(x), 0.0, float(xi))) for xi in noise.values]
        expected[i] = model.cost(float(x), 0.0) + model.discount * float(
            np.interp(succ, points, stage1) @ noise.probs
        )
    got = risk_neutral_dp(model, 1)
    assert got == pytest.approx(expected, abs=1e-12)


def test_risk_neutral_matches_expectation_dp():
    rng = np.random.default_rng(26)
    for _ in range(10):
        model = random_tabular_model(rng)
        horizon = 4
        values, _ = backward_induct(model, Expectation(), horizon)
        assert risk_neutral_dp(model, horizon) == pytest.approx(values[0], abs=1e-9)


def test_level_zero_tail_average_is_risk_neutral(lq_fixture):
    horizon = 3
    neutral, _ = backward_induct(lq_fixture, Expectation(), horizon)
    level_zero, _ = backward_induct(lq_fixture, AVaR(0.0), horizon)
    assert level_zero[0] == pytest.approx(neutral[0], abs=1e-12)
    assert risk_neutral_dp(lq_fixture, horizon) == pytest.approx(neutral[0], abs=1e-9)
