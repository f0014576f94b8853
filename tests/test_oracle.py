"""Tests for the verification oracles."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskdp.oracle as oracle_mod
from riskdp.verify import run_verification_suites
from riskdp.fixtures import (
    random_distribution,
    random_lq_model,
    random_stage_policy,
    random_tabular_model,
)
from riskdp.model import (
    ActionSet,
    Dynamics,
    InvestmentParams,
    LQParams,
    MarkovModel,
    StateGrid,
    Tabular,
    build_investment,
    build_lq,
    build_tabular,
    quantize_standard_normal,
)
from riskdp.oracle import (
    BudgetExceededError,
    ScenarioTree,
    TreeNode,
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
    evaluate,
)
from riskdp.solver import Policy, backward_induct, evaluate_policy

TWO_POINT = DiscreteDistribution([0.0, 10.0], [0.5, 0.5])


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
    policy = Policy(stages=(), tail=np.array([1, 1]))
    assert scenario_tree_value(two_state_model, Expectation(), policy, 0, 0) == 1.0
    assert scenario_tree_value(two_state_model, Expectation(), policy, 0, 1) == 0.0


def test_tree_composes_tail_average():
    model = split_cost_model()
    policy = Policy(stages=(), tail=np.array([0, 0]))
    # leaf values are the stage costs (0, 10); the level-0.5 tail average
    # of an even split is 10, discounted once
    value = scenario_tree_value(model, AVaR(0.5), policy, 1, 0)
    assert value == pytest.approx(5.0, abs=1e-12)
    neutral = scenario_tree_value(model, Expectation(), policy, 1, 0)
    assert neutral == pytest.approx(0.5 * 5.0, abs=1e-12)


def test_tree_structure_invariants(two_state_model):
    policy = Policy(stages=(), tail=np.array([0, 0]))
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
    # the production budget is a million nodes; exercise the guard with a
    # tiny budget so the test does not have to materialize that many
    assert oracle_mod.MAX_TREE_NODES == 10 ** 6
    monkeypatch.setattr(oracle_mod, "MAX_TREE_NODES", 50)
    rng = np.random.default_rng(0)
    model = random_tabular_model(rng)  # dense 4-state kernel
    policy = Policy(stages=(), tail=np.array([0, 0, 0, 0]))
    with pytest.raises(BudgetExceededError):
        scenario_tree_value(model, Expectation(), policy, 12, 0)


def _left_for_the_collector(action):
    """The objects ``action()`` leaves in reference cycles, found with the
    cycle collector off and ``gc.DEBUG_SAVEALL`` on; the collector's state
    is restored afterwards."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    before = len(gc.garbage)
    try:
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        action()
        gc.collect()
        return gc.garbage[before:]
    finally:
        del gc.garbage[before:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def test_a_dropped_tree_is_freed_by_reference_counting():
    model = random_tabular_model(np.random.default_rng(0))
    policy = Policy(stages=(), tail=np.array([0, 0, 0, 0]))
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = build_scenario_tree(model, policy, 3, 0)
        root = weakref.ref(tree.root)
        del tree
        assert root() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("failure", ["budget", "no rule"])
def test_a_failed_tree_build_leaves_no_cycle(monkeypatch, failure):
    model = random_tabular_model(np.random.default_rng(0))
    if failure == "budget":
        monkeypatch.setattr(oracle_mod, "MAX_TREE_NODES", 50)
        policy, error = Policy(stages=(), tail=np.array([0, 0, 0, 0])), BudgetExceededError
    else:
        # the root's rule is found; the error is raised one stage down
        policy, error = Policy(stages=(np.array([0, 0, 0, 0]),)), ValueError

    def build():
        try:
            build_scenario_tree(model, policy, 4, 0)
        except error:
            return
        raise AssertionError("the tree build did not fail")

    assert _left_for_the_collector(build) == []


def test_verify_leaves_no_tree_policy_or_model_for_the_collector():
    left = _left_for_the_collector(lambda: run_verification_suites(0, 1))
    assert [o for o in left if isinstance(o, (TreeNode, Policy, MarkovModel))] == []


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
    policy = Policy(stages=(), tail=np.array([0, 0]))
    with pytest.raises(ValueError):
        scenario_tree_value(two_state_model, Expectation(), policy, -1, 0)
    with pytest.raises(ValueError):
        scenario_tree_value(two_state_model, Expectation(), policy, 1, 9)
    # a non-integral root names no state; an integral one of any type does
    with pytest.raises(ValueError, match=r"root index 1\.5 out of range"):
        scenario_tree_value(two_state_model, Expectation(), policy, 1, 1.5)
    # rules that do not cover the grid, too short for the root or too long,
    # raise the error policy evaluation raises for them
    for rule in ([0], [0, 0, 5]):
        short = Policy(stages=(), tail=rule)
        with pytest.raises(ValueError, match="policy rules must align with the grid"):
            evaluate_policy(two_state_model, Expectation(), short, 1)
        for depth in (0, 1):
            with pytest.raises(ValueError, match="policy rules must align with the grid"):
                scenario_tree_value(two_state_model, Expectation(), short, depth, 1)
    expected = build_scenario_tree(two_state_model, policy, 1, 1)
    for root in (1.0, np.int64(1)):
        assert build_scenario_tree(two_state_model, policy, 1, root) == expected
        assert scenario_tree_value(two_state_model, Expectation(), policy, 1, root) == (
            scenario_tree_value(two_state_model, Expectation(), policy, 1, 1)
        )


# ---------------------------------------------------------------------------
# scenario trees against the node-by-node recursion they replace


def reference_bracket(points, x):
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


def reference_tree(model, policy, depth, root_index):
    """The scenario tree built node by node: every node reads its stage
    rule, checks its action and recomputes its successors."""
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth!r}")
    if not (0 <= root_index < model.n_states):
        raise ValueError(f"root index {root_index} out of range")
    points = model.grid.points
    counter = [0]

    def expand(state_index, stage):
        counter[0] += 1
        if counter[0] > oracle_mod.MAX_TREE_NODES:
            raise BudgetExceededError(
                f"scenario tree exceeds {oracle_mod.MAX_TREE_NODES} nodes"
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
                    for j, weight in reference_bracket(points, succ)
                )
                children.append((float(prob), blend))
        return TreeNode(state_index, float(points[state_index]), stage, a_idx, tuple(children))

    root = expand(root_index, 0)
    return ScenarioTree(depth=depth, root=root, n_nodes=counter[0])


def reference_value(model, risk, node, evaluated=None):
    """The nested value by one recursive call per node; each distribution
    it evaluates is appended to ``evaluated``, when given."""
    cost = model.cost_at(node.state_index, node.action_index)
    if not node.children:
        return cost
    values = np.empty(len(node.children))
    probs = np.empty(len(node.children))
    for k, (prob, blend) in enumerate(node.children):
        values[k] = sum(
            w * reference_value(model, risk, child, evaluated) for w, child in blend
        )
        probs[k] = prob
    dist = DiscreteDistribution(values, probs)
    if evaluated is not None:
        evaluated.append(dist)
    return cost + model.discount * evaluate(risk, dist)


def masked(model, admissible):
    """``model`` with the per-state admissible action indices ``admissible``."""
    actions = ActionSet(model.actions.values, admissible)
    return MarkovModel(model.grid, actions, model.transition, model.cost, model.discount)


@st.composite
def tree_models(draw):
    """Small tabular (sparse rows), LQ or investment models, with or without
    an admissibility mask; the dynamics grids are narrow enough for the
    noise to clamp successors at both ends, and may have one noise atom."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tabular", "lq", "investment"]))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    atoms = draw(st.integers(1, 4))
    beta = draw(st.floats(0.1, 0.9))
    if kind == "tabular":
        kernel = rng.random((n, m, n)) * (rng.random((n, m, n)) < 0.5)
        kernel[..., 0] += 1e-3  # every row keeps some support
        kernel /= kernel.sum(axis=2, keepdims=True)
        model = build_tabular(kernel, rng.random((n, m)).round(1), beta)
    elif kind == "lq":
        x_lo = draw(st.floats(-2.0, 0.0))
        params = LQParams(
            sigma=draw(st.floats(0.0, 2.0)), action_bound=draw(st.floats(0.0, 1.5)),
            x_lo=x_lo, x_hi=x_lo + draw(st.floats(0.5, 3.0)),
            grid_points=n, n_actions=m, noise_atoms=atoms,
        )
        model = build_lq(params, beta)
    else:
        params = InvestmentParams(
            mu=draw(st.floats(0.0, 0.5)), r=draw(st.floats(0.0, 0.1)),
            sigma=draw(st.floats(0.0, 1.0)), action_bound=1.0,
            wealth_lo=0.0, wealth_hi=draw(st.floats(0.5, 3.0)),
            grid_points=n, n_actions=m, noise_atoms=atoms,
        )
        model = build_investment(params, beta)
    if draw(st.booleans()):
        model = masked(
            model,
            tuple(tuple(a for a in range(m) if a == i % m or rng.random() < 0.5) for i in range(n)),
        )
    return model


@st.composite
def tree_policies(draw, model, depth):
    """Stage rules for up to ``depth + 1`` stages and an optional tail rule.
    Rules may pick inadmissible actions, and may stop short of ``depth``
    with no tail, so that both trees raise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loose = draw(st.booleans())

    def rule():
        return np.array(
            [
                int(rng.integers(model.n_actions))
                if loose
                else int(rng.choice(model.actions.indices_for(i)))
                for i in range(model.n_states)
            ]
        )

    n_stages = draw(st.integers(0, depth + 1))
    tail = rule() if n_stages == 0 or draw(st.booleans()) else None
    return Policy(stages=tuple(rule() for _ in range(n_stages)), tail=tail)


def built_or_raised(build, *args):
    try:
        return build(*args)
    except (ValueError, BudgetExceededError) as exc:
        return type(exc), str(exc)


def node_occurrences(node):
    """Nodes visited by a walk of the tree under ``node``, a shared record
    counted at every place it occurs."""
    return 1 + sum(node_occurrences(child) for _, blend in node.children for _, child in blend)


def shared_records(node, found):
    """Map each (stage, state) under ``node`` to its record, asserting that
    every node of that pair is that one record."""
    assert found.setdefault((node.stage, node.state_index), node) is node
    for _, blend in node.children:
        for _, child in blend:
            shared_records(child, found)
    return found


def internal_visits(node, visits):
    """Map ``id`` of each internal record under ``node`` to the record and
    the number of places a walk of the tree visits it."""
    if node.children:
        visits[id(node)] = (node, visits.get(id(node), (node, 0))[1] + 1)
        for _, blend in node.children:
            for _, child in blend:
                internal_visits(child, visits)
    return visits


def counting(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""

    def spy(*args):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args)

    return spy


def assert_values_each_record_from_arrays_checked_once(
    model, risk, policy, depth, root, tree, expected
):
    """``scenario_tree_value`` evaluates, at every internal occurrence of
    ``tree`` and in the order of the recursion on its node-by-node twin
    ``expected``, a distribution bit-identical to the recursion's.  It
    checks each internal record's probabilities once, and makes and checks
    values at every occurrence but the repeats of a record whose children
    are all leaves, which reuse its read-only distribution."""
    evaluated = []
    calls = {}

    def spy_evaluate(risk, dist):
        evaluated.append(dist)
        return evaluate(risk, dist)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "evaluate", spy_evaluate)
        for name in ("_check_probs", "_check_values"):
            patch.setattr(oracle_mod, name, counting(calls, name, getattr(oracle_mod, name)))
        value = scenario_tree_value(model, risk, policy, depth, root)
    wanted = []
    assert value == reference_value(model, risk, expected.root, wanted)
    visits = internal_visits(tree.root, {}).values()
    last = [n for node, n in visits if not any(c.children for _, b in node.children for _, c in b)]
    made = sum(n for _, n in visits) - sum(last) + len(last)
    assert len(evaluated) == len(wanted) == sum(n for _, n in visits)
    assert calls.get("_check_probs", 0) == len(visits)
    assert calls.get("_check_values", 0) == made
    assert len({id(dist) for dist in evaluated}) == made
    for got, want in zip(evaluated, wanted):
        assert not (got.values.flags.writeable or got.probs.flags.writeable)
        assert got.values.dtype == got.probs.dtype == np.float64
        assert got.values.tobytes() == want.values.tobytes()
        assert got.probs.tobytes() == want.probs.tobytes()
        assert not got._ascending


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    tree_models(),
    st.integers(0, 3),
    st.sampled_from(
        [Expectation(), AVaR(0.3), MeanDeviation(0.4), KusuokaMixture(((0.0, 0.5), (0.5, 0.5)))]
    ),
)
def test_tree_matches_the_node_by_node_recursion(data, model, depth, risk):
    """Equal trees and ``==`` values, and the same exception where the
    recursion raises one: an inadmissible action or a missing stage rule at
    a reached node, or a budget overrun, whichever node comes first.  Each
    (stage, state) is one shared record, yet ``n_nodes`` counts every
    occurrence a walk of the tree visits, and the budget is checked at
    each: ``n_nodes`` passes and one less raises.  The valuation evaluates
    the recursion's distributions, each record's arrays made and checked as
    ``assert_values_each_record_from_arrays_checked_once`` says."""
    policy = data.draw(tree_policies(model, depth))
    root = data.draw(st.integers(0, model.n_states - 1))
    budget = data.draw(st.none() | st.integers(0, 600))
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(oracle_mod, "MAX_TREE_NODES", budget)
        tree = built_or_raised(build_scenario_tree, model, policy, depth, root)
        expected = built_or_raised(reference_tree, model, policy, depth, root)
        assert tree == expected
        if not isinstance(tree, ScenarioTree):
            return
        assert repr(tree) == repr(expected)
        assert node_occurrences(tree.root) == tree.n_nodes
        assert len(shared_records(tree.root, {})) <= (depth + 1) * model.n_states
        assert_values_each_record_from_arrays_checked_once(
            model, risk, policy, depth, root, tree, expected
        )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "MAX_TREE_NODES", tree.n_nodes)
        assert build_scenario_tree(model, policy, depth, root) == tree
        patch.setattr(oracle_mod, "MAX_TREE_NODES", tree.n_nodes - 1)
        with pytest.raises(BudgetExceededError, match=f"exceeds {tree.n_nodes - 1} nodes"):
            build_scenario_tree(model, policy, depth, root)


def test_tree_checks_actions_only_at_reached_states():
    """State 2 is unreachable from states 0 and 1, and its mask forbids the
    action the policy gives it: trees from 0 pass, a tree from 2 raises at
    its root, and a forbidden action at a reached state raises at stage 1."""
    kernel = np.zeros((3, 2, 3))
    kernel[:2, :, :2] = 0.5
    kernel[2, :, 2] = 1.0
    model = masked(build_tabular(kernel, np.ones((3, 2)), 0.5), ((0, 1), (0, 1), (0,)))
    policy = Policy(stages=(), tail=np.array([1, 0, 1]))
    for depth in range(4):
        assert build_scenario_tree(model, policy, depth, 0) == reference_tree(model, policy, depth, 0)
    with pytest.raises(ValueError, match="stage 0 assigns inadmissible action index 1 at state 2"):
        build_scenario_tree(model, policy, 2, 2)
    forbidden = masked(model, ((0, 1), (0,), (0,)))
    policy = Policy(stages=(np.array([1, 0, 0]), np.array([1, 1, 0])))
    with pytest.raises(ValueError, match="stage 1 assigns inadmissible action index 1 at state 1"):
        build_scenario_tree(forbidden, policy, 1, 0)
    with pytest.raises(ValueError, match="policy defines no decision rule for stage 2"):
        build_scenario_tree(model, Policy(stages=(np.array([0, 0, 0]),) * 2), 2, 0)


def test_tree_computes_each_pair_outcomes_once_with_its_own_successor_code():
    """``next_state`` runs once per noise atom of each (state, action) with
    children, and the model's successor structure stays unbuilt."""
    calls = []

    def next_state(x, a, xi):
        calls.append((x, a, xi))
        return x + a + xi

    model = MarkovModel(
        StateGrid(np.linspace(-2.0, 2.0, 5)),
        ActionSet(np.linspace(-1.0, 1.0, 3)),
        Dynamics(next_state, quantize_standard_normal(3)),
        lambda x, a: x * x + a * a,
        0.5,
    )
    policy = Policy(stages=(np.array([2, 1, 0, 1, 0]), np.array([2, 2, 1, 0, 0])), tail=np.ones(5))
    tree = build_scenario_tree(model, policy, 3, 0)
    internal = set()

    def walk(node):
        if node.children:
            internal.add((node.state_index, node.action_index))
            for _, blend in node.children:
                for _, child in blend:
                    walk(child)

    walk(tree.root)
    assert tree.n_nodes > len(internal) > 1
    assert len(calls) == 3 * len(internal)
    assert model._successors == {}
    assert tree == reference_tree(model, policy, 3, 0)


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
