"""Differential tests for the oracle layer's shared work: the exhaustive
policy search, which computes each (state, action) column once per stage,
against a test-local copy of the per-(rule, state) loop it replaces, its
stage-0 argmin against the materialised stage-0 table it never stores, and the
dual vertex enumeration with its cached vertex masks against a test-local
copy of its per-coordinate loop."""

import itertools
import tracemalloc

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
    _first_best_row,
    _free_pairs,
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
    _worst_first,
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
                block[:, i] = model.cost_at(i, rule[i]) + beta * risk.batch_value(
                    probs, outcomes
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


def resorting_kusuoka(risk, probs, outcomes):
    """Row-wise mixture value with every component sorting the rows again
    and taking its tail with freshly allocated arrays."""
    total = np.zeros(outcomes.shape[0])
    for alpha, weight in risk.components:
        order = np.argsort(-outcomes, axis=1, kind="stable")
        values = np.take_along_axis(outcomes, order, axis=1)
        sorted_probs = np.take_along_axis(np.broadcast_to(probs, outcomes.shape), order, axis=1)
        cum = np.cumsum(sorted_probs, axis=1)
        take = np.minimum(np.maximum((1.0 - alpha) - (cum - sorted_probs), 0.0), sorted_probs)
        total += weight * ((values * take).sum(axis=1) / (1.0 - alpha))
    return total


@settings(max_examples=150, deadline=None)
@given(
    risks().filter(lambda risk: isinstance(risk, KusuokaMixture)),
    st.integers(1, 7),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_batched_kusuoka_sorts_once_for_every_component(risk, k, rows, seed):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.05, 1.0, size=k)
    probs /= probs.sum()
    # rounded outcomes tie, and ties must keep their atom order
    outcomes = rng.uniform(0.0, 5.0, size=(rows, k)).round(rng.integers(0, 3))
    got = risk.batch_value(probs, outcomes)
    assert got.tobytes() == resorting_kusuoka(risk, probs, outcomes).tobytes()


def take_along_worst_first(outcomes):
    """Worst-first atom order and values of each row, by ``argsort`` and
    ``take_along_axis``."""
    order = np.argsort(-outcomes, axis=1, kind="stable")
    return order, np.take_along_axis(outcomes, order, axis=1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_worst_first_gathers_as_take_along_axis(k, rows, seed):
    """The order and values come atoms-major: row ``t``'s are column ``t``;
    the order is held in the smallest integer type that indexes ``k``."""
    rng = np.random.default_rng(seed)
    # rounded outcomes tie, and ties must keep their atom order
    outcomes = rng.uniform(-5.0, 5.0, size=(rows, k)).round(rng.integers(0, 2))
    order, values = _worst_first(outcomes)
    want_order, want_values = take_along_worst_first(outcomes)
    for array in (order, values):
        assert array.flags.c_contiguous
        assert array.shape == (k, rows)
    assert order.dtype == np.min_scalar_type(k)
    assert np.array_equal(order, want_order.T)
    assert values.tobytes() == np.ascontiguousarray(want_values.T).tobytes()


def stage0_table(blocks, t_count):
    """The stage-0 table the search no longer stores: row ``(r, t)`` holds
    rule ``r`` (state 0's digit most significant) ahead of tail ``t``, and
    column ``i`` reads state ``i``'s ``(choices, tails)`` block at ``r``'s
    digit ``i``."""
    sizes = [len(block) for block in blocks]
    table = np.empty((int(np.prod(sizes)) * t_count, len(blocks)))
    for i, block in enumerate(blocks):
        before, after = int(np.prod(sizes[:i])), int(np.prod(sizes[i + 1 :]))
        shape = (before, sizes[i], after, t_count)
        table[:, i] = np.broadcast_to(block[None, :, None, :], shape).reshape(-1)
    return table


@st.composite
def stage0_blocks(draw):
    """Per-state ``(choices, tails)`` blocks with unequal choice counts, as
    admissibility masks give, holding few distinct values and maybe NaNs."""
    n = draw(st.integers(1, 4))
    t_count = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, 4))
    nan_share = draw(st.sampled_from([0.0, 0.0, 0.05, 0.5]))
    blocks = []
    for size in sizes:
        # few distinct values, so most columns hold their minimum many times
        block = rng.integers(0, distinct, size=(size, t_count)).astype(float)
        block[rng.random(block.shape) < nan_share] = np.nan
        blocks.append(block)
    return blocks, t_count


@settings(max_examples=300, deadline=None)
@given(stage0_blocks())
def test_first_best_row_takes_argmin_of_the_materialised_stage0_table(case):
    blocks, t_count = case
    table = stage0_table(blocks, t_count)
    expected = table.argmin(axis=0)
    sizes = [len(block) for block in blocks]
    for i, block in enumerate(blocks):
        row, value = _first_best_row(block, int(np.prod(sizes[i + 1 :])))
        assert row == expected[i]
        assert np.array_equal(value, table[expected[i], i], equal_nan=True)


def test_first_best_row_picks_the_first_nan_of_a_column():
    # (choices, tails) blocks of two states, two choices each, two tails
    blocks = [
        np.array([[3.0, 1.0], [np.nan, np.nan]]),
        np.array([[0.0, np.nan], [0.0, np.nan]]),
    ]
    table = stage0_table(blocks, 2)
    assert table.argmin(axis=0).tolist() == [4, 1]
    row, value = _first_best_row(blocks[0], 2)
    assert row == 4 and np.isnan(value)
    row, value = _first_best_row(blocks[1], 1)
    assert row == 1 and np.isnan(value)


def test_search_keeps_below_the_stage0_table_it_no_longer_stores():
    """A depth-3 search on ``riskdp verify``'s 4-state, 2-action models
    covers 16**4 sequences; the stage-0 table would be 65,536 x 4 float64
    values, 2 MiB.  The peak includes the search's scenario-tree
    spot-checks."""
    table_bytes = 16**4 * 4 * 8
    rng = np.random.default_rng(11)
    for risk in (Expectation(), AVaR(0.3), MeanDeviation(0.4)):
        model = random_tabular_model(rng)
        exhaustive_policy_search(model, risk, 0)  # warm caches
        tracemalloc.start()
        try:
            exhaustive_policy_search(model, risk, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes


def test_vertex_masks_are_cached_and_read_only():
    for k in range(1, MAX_LP_ATOMS + 1):
        masks = _vertex_masks(k)
        assert masks is _vertex_masks(k)
        assert not masks.flags.writeable
        with pytest.raises(ValueError):
            masks[0, 0] = 1.0
        expected = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
        assert np.array_equal(masks, expected)
        pairs = _free_pairs(k)
        assert pairs is _free_pairs(k)
        for index, want in zip(pairs, np.nonzero(expected == 0.0)):
            assert not index.flags.writeable
            assert np.array_equal(index, want)
        assert len(pairs[0]) == k * 2 ** (k - 1)


def per_coordinate_lp(alpha, dist, cap_scale):
    """The dual vertex enumeration with one pass over the vertices per
    fractional coordinate."""
    k = len(dist)
    cap = cap_scale / (1.0 - alpha)
    probs, values = dist.probs, dist.values
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
    mass = cap * (masks @ probs)
    base = cap * (masks @ (probs * values))
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


@st.composite
def lp_cases(draw):
    k = draw(st.integers(1, MAX_LP_ATOMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # equal weights put whole vertices on unit mass, the exact branch
        probs = np.full(k, 1.0 / k)
    else:
        probs = rng.uniform(0.05, 1.0, size=k)
        probs /= probs.sum()
    # rounded values tie; some atoms are exactly zero
    values = rng.uniform(-10.0, 10.0, size=k).round(draw(st.integers(0, 2)))
    values[rng.random(k) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    alpha = draw(st.sampled_from([0.0, 0.5, 0.999]) | st.floats(0.0, 0.999))
    cap_scale = draw(st.sampled_from([0.75, 1.0, 2.0]))
    return alpha, DiscreteDistribution(values, probs), cap_scale


def outcome(oracle, *args):
    try:
        return oracle(*args)
    except RuntimeError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(lp_cases())
def test_lp_oracle_matches_per_coordinate_loop(case):
    got = outcome(avar_lp_oracle, *case)
    expected = outcome(per_coordinate_lp, *case)
    assert type(got) is type(expected)
    assert got == expected


@pytest.mark.parametrize("k", range(1, MAX_LP_ATOMS + 1))
def test_lp_oracle_matches_per_coordinate_loop_for_every_atom_count(k):
    rng = np.random.default_rng(k)
    dists = [
        DiscreteDistribution(rng.uniform(-10.0, 10.0, size=k), np.full(k, 1.0 / k)),
        # ties and zeros under unequal weights
        DiscreteDistribution(
            rng.integers(-2, 3, size=k).astype(float), rng.dirichlet(np.ones(k))
        ),
        DiscreteDistribution(np.zeros(k), rng.dirichlet(np.ones(k))),
    ]
    for dist in dists:
        for alpha in (0.0, 0.5, 0.999):
            for cap_scale in (0.75, 1.0, 2.0):
                case = (alpha, dist, cap_scale)
                assert outcome(avar_lp_oracle, *case) == outcome(per_coordinate_lp, *case)


def test_lp_oracle_matches_primal_for_every_atom_count():
    rng = np.random.default_rng(31)
    for k in range(1, MAX_LP_ATOMS + 1):
        for _ in range(5):
            probs = rng.uniform(0.05, 1.0, size=k)
            dist = DiscreteDistribution(rng.uniform(-10.0, 10.0, size=k), probs / probs.sum())
            for alpha in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                assert abs(avar_lp_oracle(alpha, dist) - avar_primal(alpha, dist)) <= 1e-9
