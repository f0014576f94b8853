"""Differential tests for the one sweep loop and the model's stacked read.

``bellman_update``, ``backward_induct`` and ``evaluate_policy`` share one
per-state sweep; they are compared with test-local copies of the two
per-state loops that sweep stands in for (the optimality sweep and the
policy-evaluation stage).  The exhaustive search reads its successor rows
through the model, one block per distinct outcome read; that read is
compared with a test-local read of the model's per-pair tuples, and the
search with the grouped read against the search with one group per pair.
Values and rules must match bit for bit on tabular, LQ, investment and
masked user models, with one-action states, one noise atom and 2-point
grids among them."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp.model import (
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
    successor_distribution,
)
from riskdp.oracle import exhaustive_policy_search
from riskdp.risk import (
    AVaR,
    DiscreteDistribution,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    evaluate,
)
from riskdp.solver import Policy, backward_induct, bellman_update, evaluate_policy


def loop_bellman_update(model, risk, v_next):
    """The optimality sweep as its own per-state loop."""
    n = model.n_states
    beta = model.discount
    costs = model.cost_table.tolist()
    values = np.empty(n)
    rule = np.empty(n, dtype=int)
    for i in range(n):
        best_q = np.inf
        best_a = -1
        for a_idx in model.actions.indices_for(i):
            dist = successor_distribution(model, i, a_idx, v_next)
            q = costs[i][a_idx] + beta * evaluate(risk, dist)
            if q < best_q:
                best_q = q
                best_a = a_idx
        values[i] = best_q
        rule[i] = best_a
    return values, rule


def loop_evaluate_policy(model, risk, policy, horizon):
    """Policy evaluation with its own per-state loop at each stage."""
    n = model.n_states
    beta = model.discount
    costs = model.cost_table.tolist()
    w = np.zeros(n)
    for stage in range(horizon, -1, -1):
        rule = policy.rule(stage)
        w_new = np.empty(n)
        for i in range(n):
            a_idx = int(rule[i])
            dist = successor_distribution(model, i, a_idx, w)
            w_new[i] = costs[i][a_idx] + beta * evaluate(risk, dist)
        w = w_new
    return w


def tuple_read(model, stack, i, a_idx):
    """One pair's successor rows, read straight from the model's per-pair
    tuples as the search read them before it read groups of pairs."""
    support = model._successor_support(i, a_idx)
    if isinstance(model.transition, Tabular):
        indices, probs = support
        return probs, stack[:, indices]
    query, probs, inverse, _ = support
    return probs, np.ascontiguousarray(query.read(stack)[:, inverse])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def masks(draw, n, m):
    """``None`` or per-state admissible action sets, often of one action."""
    if not draw(st.booleans()):
        return None
    return tuple(
        tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))) for _ in range(n)
    )


@st.composite
def tabular_models(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.random((n, m, n)) * (rng.random((n, m, n)) < 0.6)
    kernel[..., 0] += 1e-3  # every row keeps some support
    kernel /= kernel.sum(axis=2, keepdims=True)
    # rounded costs tie actions, which both loops must break the same way
    table = rng.random((n, m)).round(1)

    def cost(x, a):
        return float(table[int(round(x)), int(round(a))])

    return MarkovModel(
        StateGrid(np.arange(n, dtype=float)),
        ActionSet(np.arange(m, dtype=float), masks(draw, n, m)),
        Tabular(kernel),
        cost,
        draw(st.floats(0.1, 0.9)),
    )


@st.composite
def lq_models(draw):
    x_lo = draw(st.floats(-3.0, 0.0))
    params = LQParams(
        sigma=draw(st.floats(0.0, 2.0)),
        action_bound=draw(st.floats(0.0, 2.0)),
        x_lo=x_lo,
        x_hi=x_lo + draw(st.floats(0.5, 4.0)),
        grid_points=draw(st.integers(2, 5)),
        n_actions=draw(st.integers(1, 3)),
        noise_atoms=draw(st.integers(1, 5)),
    )
    return build_lq(params, draw(st.floats(0.1, 0.9)))


@st.composite
def investment_models(draw):
    wealth_lo = draw(st.sampled_from([0.0, 0.5]))
    params = InvestmentParams(
        mu=draw(st.floats(-0.2, 0.3)),
        r=draw(st.floats(0.0, 0.1)),
        sigma=draw(st.floats(0.0, 3.0)),
        action_bound=draw(st.floats(0.0, 2.0)),
        wealth_lo=wealth_lo,
        wealth_hi=wealth_lo + draw(st.floats(0.5, 3.0)),
        grid_points=draw(st.integers(2, 5)),
        n_actions=draw(st.integers(1, 3)),
        noise_atoms=draw(st.integers(1, 5)),
    )
    return build_investment(params, draw(st.floats(0.1, 0.9)))


@st.composite
def masked_user_models(draw):
    """User dynamics whose masks skip pairs and whose successors clamp at
    both grid ends and tie by chance (``xi`` and ``-xi`` squared)."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    xi = draw(
        st.lists(
            st.sampled_from([-5.0, -1.0, -0.5, 0.0, 0.5, 1.0, 5.0]) | st.floats(-5.0, 5.0),
            min_size=k,
            max_size=k,
        )
    )
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    noise = NoiseModel(DiscreteDistribution(np.array(xi), weights / weights.sum()))
    square = draw(st.booleans())

    def next_state(x, a, xi):
        return x + a - xi * xi if square else x + a * xi

    half = draw(st.floats(0.25, 2.0))
    return MarkovModel(
        StateGrid(np.linspace(-half, half, n)),
        ActionSet(np.linspace(-1.0, 1.0, m), masks(draw, n, m)),
        Dynamics(next_state, noise),
        lambda x, a: round(x * x + abs(a), 1),
        draw(st.floats(0.1, 0.9)),
    )


models = st.one_of(tabular_models(), lq_models(), investment_models(), masked_user_models())


@st.composite
def risks(draw):
    kind = draw(st.sampled_from(["expectation", "avar", "mean_deviation", "kusuoka"]))
    if kind == "expectation":
        return Expectation()
    if kind == "avar":
        return AVaR(draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.95)))
    if kind == "mean_deviation":
        return MeanDeviation(draw(st.floats(0.0, 0.5)))
    levels = draw(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3))
    weights = np.full(len(levels), 1.0 / len(levels))
    weights[-1] = 1.0 - weights[:-1].sum()
    return KusuokaMixture(tuple(zip(levels, weights.tolist())))


def value_functions(draw, n):
    """Nonnegative values on ``n`` grid points, often with ties."""
    raw = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)))
    return raw.round(0) if draw(st.booleans()) else raw


def random_rule(draw, model):
    return [draw(st.sampled_from(model.actions.indices_for(i))) for i in range(model.n_states)]


@settings(max_examples=200, deadline=None)
@given(models, risks(), st.data())
def test_bellman_update_equals_the_per_state_loop(model, risk, data):
    v = value_functions(data.draw, model.n_states)
    values, rule = bellman_update(model, risk, v)
    want_values, want_rule = loop_bellman_update(model, risk, v)
    assert_same_bits(values, want_values)
    assert_same_bits(rule, want_rule)


@settings(max_examples=100, deadline=None)
@given(models, risks(), st.integers(0, 3))
def test_backward_induct_equals_the_per_state_loop(model, risk, horizon):
    stage_values, stage_rules = backward_induct(model, risk, horizon)
    v = np.zeros(model.n_states)
    for stage in range(horizon, -1, -1):
        v, rule = loop_bellman_update(model, risk, v)
        assert_same_bits(stage_values[stage], v)
        assert_same_bits(stage_rules[stage], rule)


@settings(max_examples=150, deadline=None)
@given(models, risks(), st.integers(0, 3), st.data())
def test_evaluate_policy_equals_the_per_state_loop(model, risk, horizon, data):
    """Listed stage rules for part of the horizon, then a tail rule."""
    listed = data.draw(st.integers(0, horizon))
    stages = tuple(random_rule(data.draw, model) for _ in range(listed))
    policy = Policy(stages=stages, tail=random_rule(data.draw, model))
    got = evaluate_policy(model, risk, policy, horizon)
    assert_same_bits(got, loop_evaluate_policy(model, risk, policy, horizon))


@settings(max_examples=150, deadline=None)
@given(models, st.data())
def test_successor_groups_equal_the_tuple_read(model, data):
    """Every admissible pair is read once, in one group whose outcomes are
    its tuple read's rows (strides and bytes) and whose probability row is
    its tuple read's probabilities; tabular pairs share a group exactly when
    their kernel rows have the same support, and dynamics pairs never do."""
    stack = np.stack([value_functions(data.draw, model.n_states) for _ in range(3)])
    pairs = []
    for outcomes, group, probs in model._successor_groups(stack):
        assert probs.shape == (len(group), outcomes.shape[1])
        for pair, row in zip(group, probs):
            want_probs, want_rows = tuple_read(model, stack, *pair)
            assert_same_bits(row, want_probs)
            # the memory order sets the order ``batch_value``'s ``@`` sums in
            assert outcomes.strides == want_rows.strides
            assert_same_bits(outcomes, want_rows)
        if isinstance(model.transition, Tabular):
            supports = {model._successor_support(*pair)[0].tobytes() for pair in group}
            assert len(supports) == 1
        else:
            assert len(group) == 1
        pairs += group
    admissible = [(i, a) for i in range(model.n_states) for a in model.actions.indices_for(i)]
    assert sorted(pairs) == admissible
    if isinstance(model.transition, Tabular):
        supports = {model._successor_support(*pair)[0].tobytes() for pair in pairs}
        assert len(supports) == sum(1 for _ in model._successor_groups(stack))


def affordable(model, depth):
    """Whether a search of ``depth`` covers few enough sequences to run
    twice quickly."""
    n_rules = math.prod(len(model.actions.indices_for(i)) for i in range(model.n_states))
    return n_rules ** (depth + 1) <= 4096


@settings(max_examples=100, deadline=None)
@given(models, risks(), st.integers(0, 2))
def test_exhaustive_search_is_the_same_through_the_model_read(model, risk, depth):
    while depth and not affordable(model, depth):
        depth -= 1
    values, policies = exhaustive_policy_search(model, risk, depth)

    def per_pair(self, stack):
        """Each pair read from its tuple as a group of its own."""
        for i in range(self.n_states):
            for a_idx in self.actions.indices_for(i):
                probs, rows = tuple_read(self, stack, i, a_idx)
                yield rows, [(i, a_idx)], probs[None]

    with mock.patch.object(MarkovModel, "_successor_groups", per_pair):
        want_values, want_policies = exhaustive_policy_search(model, risk, depth)
    assert_same_bits(values, want_values)
    assert policies == want_policies
