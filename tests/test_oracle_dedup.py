"""Differential tests for the oracle layer's shared work: the exhaustive
policy search, which computes each (state, action) column once per stage,
against a test-local copy of the per-(rule, state) loop it replaces, and the
dual vertex enumeration with its cached vertex masks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp.fixtures import random_tabular_model
from riskdp.model import (
    ActionSet,
    LQParams,
    MarkovModel,
    StateGrid,
    Tabular,
    build_lq,
    interpolate,
)
from riskdp.oracle import (
    MAX_LP_ATOMS,
    _batch_risk,
    _vertex_masks,
    avar_lp_oracle,
    exhaustive_policy_search,
)
from riskdp.risk import (
    AVaR,
    DiscreteDistribution,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    avar_primal,
)

#: sequence count up to which the per-(rule, state) reference stays quick
MAX_REFERENCE_SEQUENCES = 4096


def reference_outcomes(model, tails, i, a_idx):
    """Atom probabilities of one pair and, per row of ``tails``, the values
    its successors read: the kernel row's support for a tabular model, the
    public ``interpolate`` row by row for dynamics."""
    if isinstance(model.transition, Tabular):
        row = model.transition.kernel[i, a_idx]
        support = np.flatnonzero(row > 0.0)
        return row[support], tails[:, support]
    x = float(model.grid.points[i])
    a = float(model.actions.values[a_idx])
    noise = model.transition.noise.dist
    succ = [model.clamp(model.transition.next_state(x, a, float(xi))) for xi in noise.values]
    return noise.probs, np.array([interpolate(model.grid, row, succ) for row in tails])


def per_rule_search(model, risk, depth):
    """The search with every column recomputed for every rule: values and,
    per initial state, the minimizing sequence of stage rules."""
    n = model.n_states
    rules = list(itertools.product(*[model.actions.indices_for(i) for i in range(n)]))
    n_rules = len(rules)
    beta = model.discount
    tails = np.zeros((1, n))
    for _ in range(depth + 1):
        t_count = tails.shape[0]
        grown = np.empty((n_rules * t_count, n))
        for r, rule in enumerate(rules):
            block = grown[r * t_count : (r + 1) * t_count]
            for i in range(n):
                probs, outcomes = reference_outcomes(model, tails, i, rule[i])
                block[:, i] = model.cost_at(i, rule[i]) + beta * _batch_risk(
                    risk, probs, outcomes
                )
        tails = grown

    def decode(row):
        digits = []
        for _ in range(depth + 1):
            row, digit = divmod(row, n_rules)
            digits.append(digit)
        return tuple(rules[d] for d in reversed(digits))

    return tails.min(axis=0), [decode(int(row)) for row in tails.argmin(axis=0)]


@st.composite
def tabular_models(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.random((n, m, n)) * (rng.random((n, m, n)) < 0.6)
    kernel[..., 0] += 1e-3  # every row keeps some support
    kernel /= kernel.sum(axis=2, keepdims=True)
    admissible = None
    if draw(st.booleans()):
        admissible = tuple(
            tuple(a for a in range(m) if a == i % m or rng.random() < 0.5) for i in range(n)
        )
    # rounded costs force ties between rules, which the argmin must break
    # the same way
    table = rng.random((n, m)).round(1)

    def cost(x, a):
        return float(table[int(round(x)), int(round(a))])

    return MarkovModel(
        StateGrid(np.arange(n, dtype=float)),
        ActionSet(np.arange(m, dtype=float), admissible),
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
        grid_points=draw(st.integers(2, 4)),
        n_actions=draw(st.integers(1, 3)),
        noise_atoms=draw(st.integers(1, 4)),
    )
    return build_lq(params, draw(st.floats(0.1, 0.9)))


@st.composite
def risks(draw):
    kind = draw(st.sampled_from(["expectation", "avar", "mean_deviation", "kusuoka"]))
    if kind == "expectation":
        return Expectation()
    if kind == "avar":
        return AVaR(draw(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 0.95)))
    if kind == "mean_deviation":
        return MeanDeviation(draw(st.floats(0.0, 0.5)))
    levels = draw(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3))
    k = len(levels)
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return KusuokaMixture(tuple(zip(levels, weights.tolist())))


def affordable_depth(model, depth):
    """The largest depth up to ``depth`` the reference loop runs quickly."""
    n_rules = 1
    for i in range(model.n_states):
        n_rules *= len(model.actions.indices_for(i))
    while depth > 0 and n_rules ** (depth + 1) > MAX_REFERENCE_SEQUENCES:
        depth -= 1
    return depth


@settings(max_examples=150, deadline=None)
@given(st.one_of(tabular_models(), lq_models()), risks(), st.integers(0, 2))
def test_exhaustive_search_matches_per_rule_loop(model, risk, depth):
    depth = affordable_depth(model, depth)
    values, policies = exhaustive_policy_search(model, risk, depth)
    ref_values, ref_policies = per_rule_search(model, risk, depth)
    assert np.array_equal(values, ref_values)
    assert policies == ref_policies


def test_exhaustive_search_matches_per_rule_loop_on_the_verify_models():
    """The 4-state, 2-action instances of ``riskdp verify`` at depth 2."""
    rng = np.random.default_rng(7)
    for risk in (Expectation(), AVaR(0.3), MeanDeviation(0.4)):
        model = random_tabular_model(rng)
        values, policies = exhaustive_policy_search(model, risk, 2)
        ref_values, ref_policies = per_rule_search(model, risk, 2)
        assert np.array_equal(values, ref_values)
        assert policies == ref_policies


@pytest.mark.parametrize("noise_atoms", [3, 5, 7])
def test_exhaustive_search_matches_per_rule_loop_on_lq_models(noise_atoms):
    """Many policy tails read through ``interpolate``'s bracketing: an
    outcome matrix in another memory order than the stacked reference rows
    sums its rows in another order."""
    for sigma in (0.4, 0.9):
        params = LQParams(
            sigma=sigma, action_bound=1.0, x_lo=-1.0, x_hi=1.0,
            grid_points=3, n_actions=2, noise_atoms=noise_atoms,
        )
        model = build_lq(params, 0.6)
        for risk in (Expectation(), AVaR(0.3), MeanDeviation(0.4)):
            values, policies = exhaustive_policy_search(model, risk, 2)
            ref_values, ref_policies = per_rule_search(model, risk, 2)
            assert np.array_equal(values, ref_values)
            assert policies == ref_policies


def test_vertex_masks_are_cached_and_read_only():
    for k in range(1, MAX_LP_ATOMS + 1):
        masks = _vertex_masks(k)
        assert masks is _vertex_masks(k)
        assert not masks.flags.writeable
        with pytest.raises(ValueError):
            masks[0, 0] = 1.0
        expected = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
        assert np.array_equal(masks, expected)


def test_lp_oracle_matches_primal_for_every_atom_count():
    rng = np.random.default_rng(31)
    for k in range(1, MAX_LP_ATOMS + 1):
        for _ in range(5):
            probs = rng.uniform(0.05, 1.0, size=k)
            dist = DiscreteDistribution(rng.uniform(-10.0, 10.0, size=k), probs / probs.sum())
            for alpha in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                assert abs(avar_lp_oracle(alpha, dist) - avar_primal(alpha, dist)) <= 1e-9
