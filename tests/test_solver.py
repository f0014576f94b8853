"""Tests for the risk-averse Bellman operator and solver pipeline."""

import numpy as np
import pytest

from riskdp.fixtures import random_stage_policy, random_tabular_model
from riskdp.model import build_tabular
from riskdp.risk import AVaR, Expectation, MeanDeviation
from riskdp.solver import (
    MonotonicityError,
    Policy,
    assemble_epsilon_policy,
    backward_induct,
    bellman_update,
    epsilon_horizon,
    evaluate_policy,
    supersolution_check,
    value_iterate,
)

# ---------------------------------------------------------------------------
# bellman updates


def test_bellman_zero_values_returns_cheapest_cost(two_state_model):
    values, rule = bellman_update(two_state_model, Expectation(), np.zeros(2))
    assert values.tolist() == [1.0, 0.0]
    # equal-cost ties resolve to the lowest action index
    assert rule.tolist() == [0, 0]


def test_bellman_composes_tail_average():
    # from state 0 the only action splits mass evenly between both states;
    # with successor values (0, 10) the level-0.5 tail average is 10, so the
    # update is 0 + 0.5 * 10
    kernel = [
        [[0.5, 0.5]],
        [[0.0, 1.0]],
    ]
    costs = [[0.0], [0.0]]
    model = build_tabular(kernel, costs, 0.5)
    values, _ = bellman_update(model, AVaR(0.5), np.array([0.0, 10.0]))
    assert values[0] == pytest.approx(5.0, abs=1e-12)
    assert values[1] == pytest.approx(5.0, abs=1e-12)


def test_bellman_two_state_fixed_point(two_state_model):
    v = np.array([1.0, 0.0])
    values, rule = bellman_update(two_state_model, Expectation(), v)
    assert values == pytest.approx([1.0, 0.0], abs=1e-12)
    # both states prefer moving to the free state
    assert rule.tolist() == [1, 1]


def test_bellman_rejects_bad_value_function(two_state_model):
    with pytest.raises(ValueError):
        bellman_update(two_state_model, Expectation(), np.zeros(3))
    with pytest.raises(ValueError):
        bellman_update(two_state_model, Expectation(), np.array([-0.1, 0.0]))
    with pytest.raises(ValueError):
        bellman_update(two_state_model, Expectation(), np.array([np.inf, 0.0]))


def test_bellman_monotone_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        model = random_tabular_model(rng)
        risk = AVaR(0.3)
        v = rng.uniform(0.0, 2.0, size=model.n_states)
        w = v + rng.uniform(0.0, 1.0, size=model.n_states)
        tv, _ = bellman_update(model, risk, v)
        tw, _ = bellman_update(model, risk, w)
        assert np.all(tv <= tw + 1e-12)


def test_bellman_translation_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        model = random_tabular_model(rng)
        risk = MeanDeviation(0.4)
        v = rng.uniform(0.0, 2.0, size=model.n_states)
        shift = float(rng.uniform(0.0, 3.0))
        tv, rule_v = bellman_update(model, risk, v)
        tshift, rule_s = bellman_update(model, risk, v + shift)
        assert tshift == pytest.approx(tv + model.discount * shift, abs=1e-12)
        assert rule_v.tolist() == rule_s.tolist()


# ---------------------------------------------------------------------------
# backward induction


def test_backward_induct_horizon_zero(two_state_model):
    values, rules = backward_induct(two_state_model, Expectation(), 0)
    assert len(values) == 1 and len(rules) == 1
    assert values[0].tolist() == [1.0, 0.0]


def test_backward_induct_stage_indexing(two_state_model):
    values, rules = backward_induct(two_state_model, Expectation(), 3)
    assert len(values) == 4
    # the last stage sees only its own cost; earlier stages accumulate
    assert values[3].tolist() == [1.0, 0.0]
    assert values[0][0] == pytest.approx(1.0, abs=1e-12)
    for later, earlier in zip(values, values[1:]):
        assert np.all(later >= earlier - 1e-12)


def test_backward_induct_value_grows_with_horizon(lq_fixture):
    risk = AVaR(0.5)
    previous = None
    for horizon in range(5):
        values, _ = backward_induct(lq_fixture, risk, horizon)
        if previous is not None:
            assert np.all(values[0] >= previous - 1e-12)
        previous = values[0]


def test_backward_induct_rejects_negative_horizon(two_state_model):
    with pytest.raises(ValueError):
        backward_induct(two_state_model, Expectation(), -1)


# ---------------------------------------------------------------------------
# value iteration


def test_value_iterate_zero_costs_converges_immediately():
    kernel = np.full((2, 1, 2), 0.5)
    model = build_tabular(kernel, [[0.0], [0.0]], 0.5)
    report = value_iterate(model, Expectation(), tol=1e-8, max_sweeps=10)
    assert report.converged
    assert report.sweeps == 1
    assert report.converged_value.tolist() == [0.0, 0.0]


def test_value_iterate_two_state(two_state_model):
    report = value_iterate(two_state_model, Expectation(), tol=1e-10, max_sweeps=100)
    assert report.converged
    assert report.converged_value == pytest.approx([1.0, 0.0], abs=1e-9)
    assert report.stationary_policy.tolist() == [1, 1]
    factor = two_state_model.discount / (1.0 - two_state_model.discount)
    assert report.residuals[-1] * factor < 1e-10
    # iterates start at zero and never decrease
    assert report.values_per_iteration[0].tolist() == [0.0, 0.0]
    for earlier, later in zip(report.values_per_iteration, report.values_per_iteration[1:]):
        assert np.all(later >= earlier - 1e-12)
    assert all(r >= 0.0 for r in report.residuals)


def test_value_iterate_reports_non_convergence(two_state_model):
    report = value_iterate(two_state_model, Expectation(), tol=1e-12, max_sweeps=1)
    assert not report.converged
    assert report.sweeps == 1
    assert report.residuals[-1] > 0.0


def test_value_iterate_rejects_bad_arguments(two_state_model):
    with pytest.raises(ValueError):
        value_iterate(two_state_model, Expectation(), tol=0.0, max_sweeps=10)
    with pytest.raises(ValueError):
        value_iterate(two_state_model, Expectation(), tol=1e-6, max_sweeps=0)


def test_value_iterate_raises_when_iterates_decrease(two_state_model, monkeypatch):
    import riskdp.solver as solver

    sweeps = []

    def shrinking_update(model, risk, v_next):
        sweeps.append(v_next)
        return np.full(model.n_states, 1.0 / len(sweeps)), np.zeros(model.n_states, dtype=int)

    monkeypatch.setattr(solver, "bellman_update", shrinking_update)
    with pytest.raises(MonotonicityError, match="decreased pointwise"):
        value_iterate(two_state_model, Expectation(), tol=1e-10, max_sweeps=10)
    assert len(sweeps) == 2
    assert issubclass(MonotonicityError, RuntimeError)


def test_value_iterate_lq_even_symmetry(lq_fixture):
    report = value_iterate(lq_fixture, AVaR(0.5), tol=1e-6, max_sweeps=100)
    assert report.converged
    v = report.converged_value
    assert v == pytest.approx(v[::-1], abs=1e-9)


# ---------------------------------------------------------------------------
# horizon selection and policy assembly


def test_epsilon_horizon_frozen():
    bound = epsilon_horizon(1.0, 0.5, 0.1)
    assert bound.n0 == 4
    assert bound.tail == pytest.approx(0.0625, abs=1e-15)


def test_epsilon_horizon_zero_cost_bound():
    bound = epsilon_horizon(0.0, 0.9, 1e-6)
    assert bound.n0 == 0
    assert bound.tail == 0.0


def test_epsilon_horizon_minimality():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c_bar = float(rng.uniform(0.1, 20.0))
        beta = float(rng.uniform(0.1, 0.95))
        eps = float(rng.uniform(1e-6, 1.0))
        n0, tail = epsilon_horizon(c_bar, beta, eps)
        assert tail < eps
        assert tail == pytest.approx(c_bar * beta ** (n0 + 1) / (1 - beta), rel=1e-12)
        if n0 > 0:
            assert c_bar * beta ** n0 / (1 - beta) >= eps


def test_epsilon_horizon_rejects_bad_arguments():
    with pytest.raises(ValueError):
        epsilon_horizon(-1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        epsilon_horizon(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        epsilon_horizon(1.0, 0.5, 0.0)


def test_assemble_epsilon_policy():
    stage_rules = [np.array([0, 1]), np.array([1, 1])]
    base = np.array([0, 0])
    policy = assemble_epsilon_policy(stage_rules, base)
    assert policy.rule(0).tolist() == [0, 1]
    assert policy.rule(1).tolist() == [1, 1]
    assert policy.rule(2).tolist() == [0, 0]
    assert policy.rule(99).tolist() == [0, 0]


def test_assemble_epsilon_policy_rejects_bad_input():
    with pytest.raises(ValueError):
        assemble_epsilon_policy([], np.array([0, 0]))
    with pytest.raises(ValueError):
        assemble_epsilon_policy([np.array([0, 1, 0])], np.array([0, 0]))


def test_policy_stage_lookup():
    stationary = Policy(stages=(), tail=np.array([1, 0]))
    assert stationary.rule(0).tolist() == [1, 0]
    assert stationary.rule(7).tolist() == [1, 0]
    finite = Policy(stages=(np.array([0, 0]),))
    with pytest.raises(ValueError):
        finite.rule(1)
    with pytest.raises(ValueError):
        finite.rule(-1)
    with pytest.raises(ValueError):
        Policy(stages=())


@pytest.mark.parametrize(
    "stages, tail, message",
    [
        ((np.array([0.7, 1.9]),), None, "stage 0 lists action index 0.7"),
        ((), [True, False], "the tail rule lists action index True"),
        ((), np.array([True, False]), "the tail rule lists action index True"),
        (([0, 1], [1, -0.5]), None, "stage 1 lists action index -0.5"),
        (([0, 1],), np.array([0.0, np.inf]), "the tail rule lists action index inf"),
    ],
    ids=["fraction", "bool-list", "bool-array", "later-stage", "infinite"],
)
def test_policy_action_indices_must_be_integers(stages, tail, message):
    """``np.asarray(rule, dtype=int)`` used to truncate a fraction and read
    a boolean as 0 or 1, so these made rules such as ``[0, 1]`` and
    ``[1, 0]``; each is now rejected, naming the stage or the tail rule."""
    with pytest.raises(ValueError, match=message + ", which is not an integer"):
        Policy(stages=stages, tail=tail)


def test_integral_policy_indices_of_any_type_read_as_ints():
    policy = Policy(stages=([np.int8(1), 0.0], np.array([1, 0], dtype=np.uint8)), tail=np.ones(2))
    for rule, expected in zip((*policy.stages, policy.tail), ([1, 0], [1, 0], [1, 1])):
        assert rule.dtype == np.dtype(int) and rule.tolist() == expected


def test_policy_keeps_a_read_only_copy_of_each_rule():
    """An integer rule array used to be kept as it was, so a write after
    construction changed the policy; each rule is now a checked read-only
    copy."""
    stage, tail = np.array([0, 1]), np.array([1, 1])
    policy = Policy(stages=(stage,), tail=tail)
    stage[0], tail[1] = 5, 0
    assert policy.rule(0).tolist() == [0, 1] and policy.rule(1).tolist() == [1, 1]
    assert not any(rule.flags.writeable for rule in (*policy.stages, policy.tail))


# ---------------------------------------------------------------------------
# policy evaluation


def test_evaluate_policy_two_state(two_state_model):
    policy = Policy(stages=(), tail=np.array([1, 1]))
    for horizon in (0, 3, 20):
        w = evaluate_policy(two_state_model, Expectation(), policy, horizon)
        assert w == pytest.approx([1.0, 0.0], abs=1e-12)


def test_evaluate_policy_matches_backward_induction():
    rng = np.random.default_rng(6)
    for _ in range(10):
        model = random_tabular_model(rng)
        risk = AVaR(0.3)
        horizon = 3
        values, rules = backward_induct(model, risk, horizon)
        policy = Policy(stages=tuple(rules))
        w = evaluate_policy(model, risk, policy, horizon)
        assert w == pytest.approx(values[0], abs=1e-12)


def test_evaluate_policy_dominates_optimum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        model = random_tabular_model(rng)
        risk = MeanDeviation(0.4)
        horizon = 3
        values, _ = backward_induct(model, risk, horizon)
        policy = random_stage_policy(rng, model, horizon + 1)
        w = evaluate_policy(model, risk, policy, horizon)
        assert np.all(w >= values[0] - 1e-9)


def test_evaluate_policy_requires_all_stages(two_state_model):
    finite = Policy(stages=(np.array([1, 1]),))
    with pytest.raises(ValueError):
        evaluate_policy(two_state_model, Expectation(), finite, 1)


def test_evaluate_policy_rejects_inadmissible_rule():
    kernel = np.full((2, 2, 2), 0.5)
    model = build_tabular(kernel, [[0.0, 0.0], [0.0, 0.0]], 0.5)
    object.__setattr__(model.actions, "admissible", ((0,), (0, 1)))
    policy = Policy(stages=(), tail=np.array([1, 1]))
    with pytest.raises(ValueError):
        evaluate_policy(model, Expectation(), policy, 0)


def test_evaluate_policy_checks_each_rule_once_before_any_sweep(monkeypatch):
    """Two listed stages and a tail over 41 stages: each of the three rules
    is checked once, and a bad rule is reported before any sweep runs,
    naming the stage that the recursion from the horizon down reaches
    first."""
    import riskdp.solver as solver

    kernel = np.full((2, 2, 2), 0.5)
    model = build_tabular(kernel, [[0.0, 0.0], [0.0, 0.0]], 0.5)
    object.__setattr__(model.actions, "admissible", ((0,), (0, 1)))
    good, bad = np.array([0, 1]), np.array([1, 1])
    checked, swept = [], []
    actions_type = type(model.actions)
    indices_for = actions_type.indices_for
    monkeypatch.setattr(
        actions_type, "indices_for", lambda self, i: checked.append(i) or indices_for(self, i)
    )
    monkeypatch.setattr(
        solver, "_sweep", lambda m, r, w, choices: swept.append(choices) or (w, None)
    )

    evaluate_policy(model, Expectation(), Policy(stages=(good, good), tail=good), 40)
    assert checked == [0, 1] * 3
    assert swept == [[(0,), (1,)]] * 41

    swept.clear()
    message = "^stage {} assigns inadmissible action index 1 at state 0$"
    with pytest.raises(ValueError, match=message.format(40)):
        evaluate_policy(model, Expectation(), Policy(stages=(bad, good), tail=bad), 40)
    with pytest.raises(ValueError, match=message.format(1)):
        evaluate_policy(model, Expectation(), Policy(stages=(bad, bad), tail=good), 40)
    with pytest.raises(ValueError, match=message.format(0)):
        evaluate_policy(model, Expectation(), Policy(stages=(bad, good), tail=good), 40)
    with pytest.raises(ValueError, match="^policy defines no decision rule for stage 40$"):
        evaluate_policy(model, Expectation(), Policy(stages=(bad, good)), 40)
    assert swept == []


# ---------------------------------------------------------------------------
# supersolutions


def test_supersolution_check(two_state_model):
    optimum = np.array([1.0, 0.0])
    assert supersolution_check(optimum, two_state_model, Expectation())
    assert supersolution_check(optimum + 0.1, two_state_model, Expectation())
    assert not supersolution_check(np.array([0.5, 0.0]), two_state_model, Expectation())
