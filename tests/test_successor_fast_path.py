"""Differential tests: the cached successor support and its grid bracket,
the per-pair merge of distinct successor states and its fallback on chance
ties, the sort-and-mask atom merge, the in-place tail take and the risk
read of a successor distribution's sorted atoms against test-local copies
of the straightforward forms they replace, compared bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp import model as model_module
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
    interpolate,
    successor_distribution,
)
from riskdp.risk import (
    AVaR,
    DiscreteDistribution,
    KusuokaMixture,
    _tail_take,
    avar_primal,
    evaluate,
)
from riskdp.solver import Policy, bellman_update, evaluate_policy


def clip_interpolate(points, values, xs):
    """Array form of ``interpolate`` with ``np.clip`` clamps."""
    xs = np.clip(np.asarray(xs, dtype=float), points[0], points[-1])
    hi = np.clip(np.searchsorted(points, xs, side="right"), 1, len(points) - 1)
    lo = hi - 1
    frac = (xs - points[lo]) / (points[hi] - points[lo])
    out = values[lo] + frac * (values[hi] - values[lo])
    return np.where(xs == points[-1], values[-1], out)


def fresh_successors(model, i, a_idx):
    """One pair's clamped successor states, recomputed from the dynamics."""
    x = float(model.grid.points[i])
    a = float(model.actions.values[a_idx])
    noise = model.transition.noise.dist
    return np.array(
        [model.clamp(model.transition.next_state(x, a, float(xi))) for xi in noise.values]
    )


def count_distinct_states(succ):
    """Number of bit-distinct successor states: 0.0 and -0.0 count twice."""
    return len({x.tobytes() for x in succ})


def reference_successors(model, i, a_idx, v_next):
    """Successor distribution recomputed from scratch on every call: the
    transition map and the clamp per noise atom, interpolation, then
    ``np.unique`` plus ``np.bincount``."""
    if isinstance(model.transition, Tabular):
        row = model.transition.kernel[i, a_idx]
        mask = row > 0.0
        values, probs = v_next[mask], row[mask]
    else:
        values = clip_interpolate(model.grid.points, v_next, fresh_successors(model, i, a_idx))
        probs = model.transition.noise.dist.probs
    merged, inverse = np.unique(values, return_inverse=True)
    return merged, np.bincount(inverse, weights=probs)


def assert_same_as_reference(model, v_next):
    for i in range(model.n_states):
        for a_idx in model.actions.indices_for(i):
            dist = successor_distribution(model, i, a_idx, v_next)
            values, probs = reference_successors(model, i, a_idx, v_next)
            assert np.array_equal(dist.values, values)
            assert np.array_equal(dist.probs, probs)


@st.composite
def lq_models(draw, sigma=None):
    x_lo = draw(st.floats(-4.0, 0.0))
    params = LQParams(
        sigma=draw(st.floats(0.0, 3.0)) if sigma is None else sigma,
        action_bound=draw(st.floats(0.0, 3.0)),
        x_lo=x_lo,
        x_hi=x_lo + draw(st.floats(0.25, 6.0)),
        grid_points=draw(st.integers(2, 12)),
        n_actions=draw(st.integers(1, 5)),
        noise_atoms=draw(st.integers(1, 7)),
    )
    return build_lq(params, 0.5)


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
        grid_points=draw(st.integers(2, 10)),
        n_actions=draw(st.integers(1, 4)),
        noise_atoms=draw(st.integers(1, 6)),
    )
    return build_investment(params, 0.9)


@st.composite
def tabular_models(draw):
    n = draw(st.integers(2, 5))
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
    table = rng.random((n, m))

    def cost(x, a):
        return float(table[int(round(x)), int(round(a))])

    return MarkovModel(
        StateGrid(np.arange(n, dtype=float)),
        ActionSet(np.arange(m, dtype=float), admissible),
        Tabular(kernel),
        cost,
        0.7,
    )


@st.composite
def value_functions(draw, n):
    """Nonnegative values on ``n`` grid points, often with forced ties."""
    kind = draw(st.sampled_from(["zero", "symmetric", "rounded", "free"]))
    if kind == "zero":
        return np.zeros(n)
    raw = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)))
    if kind == "symmetric":
        return np.maximum(raw, raw[::-1])
    if kind == "rounded":
        return raw.round(0)
    return raw


models = st.one_of(lq_models(), investment_models(), tabular_models())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_successor_distribution_matches_reference(data):
    model = data.draw(models)
    for _ in range(2):  # the second pass reads the cached supports
        assert_same_as_reference(model, data.draw(value_functions(model.n_states)))


def edge_cases():
    """Fixed cases the random draws may miss: a 2-point grid with every
    successor clamped at one edge or the other, a single noise atom, and
    wealth clamped at zero, each with flat, rising and falling values."""
    cases = [
        build_lq(LQParams(3.0, 2.0, -0.5, 0.5, 2, 3, 7), 0.5),
        build_lq(LQParams(1.0, 1.0, -2.0, 2.0, 5, 3, 1), 0.5),
        build_investment(InvestmentParams(0.1, 0.0, 3.0, 1.0, 0.0, 1.0, 3, 3, 4), 0.9),
    ]
    for model in cases:
        n = model.n_states
        ramp = np.arange(n, dtype=float)
        for v_next in (np.zeros(n), np.ones(n), ramp, ramp[::-1] * 0.5):
            yield model, v_next


def test_successor_distribution_matches_reference_at_the_edges():
    for model, v_next in edge_cases():
        assert_same_as_reference(model, v_next)


LEVELS = (0.0, 0.1, 0.7, 0.999)
SPECS = [AVaR(alpha) for alpha in LEVELS] + [
    KusuokaMixture(((0.0, 0.2), (0.5, 0.3), (0.9, 0.5))),
    KusuokaMixture(((0.999, 1.0),)),
]


def reference_avar(alpha, dist):
    """``avar_primal`` as a stable sort worst first, an allocating tail
    take and ``@``."""
    if alpha == 0.0:
        return float(dist.values @ dist.probs)
    order = (-dist.values).argsort(kind="stable")
    values, probs = dist.values[order], dist.probs[order]
    cum = np.cumsum(probs)
    take = np.minimum(np.maximum((1.0 - alpha) - (cum - probs), 0.0), probs)
    return float(values @ take) / (1.0 - alpha)


def assert_sorted_read_as_unsorted(model, v_next):
    """Every pair's successor distribution is read-only, and each risk
    value of it equals, bit for bit, the same value of an unmarked copy,
    which ``avar_primal`` sorts itself, and the tail average of the
    straightforward form."""
    for i in range(model.n_states):
        for a_idx in model.actions.indices_for(i):
            dist = successor_distribution(model, i, a_idx, v_next)
            assert not dist.values.flags.writeable
            assert not dist.probs.flags.writeable
            plain = DiscreteDistribution(dist.values.copy(), dist.probs.copy())
            assert not plain._ascending
            for alpha in LEVELS:
                value = avar_primal(alpha, dist)
                assert value == avar_primal(alpha, plain) == reference_avar(alpha, plain)
            for spec in SPECS:
                assert evaluate(spec, dist) == evaluate(spec, plain)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sorted_successors_read_as_an_unsorted_copy(data):
    model = data.draw(models)
    assert_sorted_read_as_unsorted(model, data.draw(value_functions(model.n_states)))


def test_sorted_successors_read_as_an_unsorted_copy_at_the_edges():
    for model, v_next in edge_cases():
        assert_sorted_read_as_unsorted(model, v_next)
    # seven spread-out atoms whose worst-first sum depends on the order, so
    # ``@`` on a negative-stride view rounds differently
    model = build_lq(LQParams(1.0, 2.0, -3.0, 3.0, 41, 9, 7), 0.6)
    assert_sorted_read_as_unsorted(model, np.linspace(0.0, 3.0, 41) ** 3 + 0.1)


def every_atom_successors(model, i, a_idx, v_next):
    """Every noise atom's value, read by the ``np.clip`` form and merged by
    ``_merge_atoms``."""
    values = clip_interpolate(model.grid.points, v_next, fresh_successors(model, i, a_idx))
    return model_module._merge_atoms(values, model.transition.noise.dist.probs)


def assert_chance_ties_merge_as_reference(model, v_next):
    for i in range(model.n_states):
        for a_idx in model.actions.indices_for(i):
            dist = successor_distribution(model, i, a_idx, v_next)
            values, probs = reference_successors(model, i, a_idx, v_next)
            assert np.array_equal(dist.values, values)
            assert np.array_equal(dist.probs, probs)
            values, probs = every_atom_successors(model, i, a_idx, v_next)
            assert dist.values.tobytes() == values.tobytes()
            assert dist.probs.tobytes() == probs.tobytes()


@st.composite
def tie_models(draw):
    """Small models whose distinct successor states often read equal
    values: LQ and investment models on 2 to 4 grid points, and user
    dynamics with unequal, sometimes repeated noise atoms and a transition
    map that is not monotone in the noise."""
    kind = draw(st.sampled_from(["lq", "investment", "user"]))
    grid_points = draw(st.integers(2, 4))
    noise_atoms = draw(st.integers(1, 7))
    if kind == "lq":
        half = draw(st.floats(0.25, 3.0))
        return build_lq(
            LQParams(
                draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 2.0)), -half, half,
                grid_points, draw(st.integers(1, 4)), noise_atoms,
            ),
            0.5,
        )
    if kind == "investment":
        return build_investment(
            InvestmentParams(
                draw(st.floats(-0.2, 0.3)), draw(st.floats(0.0, 0.1)),
                draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 2.0)),
                0.0, draw(st.floats(0.5, 3.0)), grid_points,
                draw(st.integers(1, 4)), noise_atoms,
            ),
            0.9,
        )
    xi = draw(
        st.lists(
            st.sampled_from([-1.5, -1.0, -0.0, 0.0, 1.0, 1.5]) | st.floats(-2.0, 2.0),
            min_size=noise_atoms,
            max_size=noise_atoms,
        )
    )
    weights = np.array(
        draw(st.lists(st.floats(0.05, 1.0), min_size=noise_atoms, max_size=noise_atoms))
    )
    noise = NoiseModel(DiscreteDistribution(np.array(xi), weights / weights.sum()))
    scale = draw(st.floats(0.0, 2.0))
    shape = draw(st.sampled_from(["parabola", "signed", "wave"]))

    def next_state(x, a, xi):
        if shape == "parabola":  # +xi and -xi reach the same state
            return x + a - scale * xi * xi
        if shape == "signed":  # mirrored states, 0.0 and -0.0 among them
            return math.copysign(scale * x + a, xi)
        return x + a + scale * math.sin(3.0 * xi)

    half = draw(st.floats(0.25, 2.0))
    return MarkovModel(
        StateGrid(np.linspace(-half, half, grid_points)),
        ActionSet(np.linspace(-1.0, 1.0, draw(st.integers(1, 3)))),
        Dynamics(next_state, noise),
        lambda x, a: x * x,
        0.5,
    )


@st.composite
def tied_value_functions(draw, n):
    """Zero, constant or mirror-symmetric values on ``n`` grid points."""
    kind = draw(st.sampled_from(["zero", "constant", "mirror"]))
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, draw(st.floats(0.0, 50.0)))
    raw = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n)))
    return raw + raw[::-1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chance_ties_merge_as_the_reference_does(data):
    """Where distinct successor states read equal values, the distribution
    still equals the from-scratch reference and, byte for byte,
    ``_merge_atoms`` over every atom's value."""
    model = data.draw(tie_models())
    assert_chance_ties_merge_as_reference(model, data.draw(tied_value_functions(model.n_states)))


def test_chance_ties_sum_in_atom_order(monkeypatch):
    """On a 2-point grid with six equally likely atoms, every successor
    clamps to one end or the other, so each pair has two distinct states
    of three atoms each.  Where they read equal values, the two group
    probabilities would sum to 1.0, and the atoms summed in their own order
    give the reference's 0.9999999999999999: such reads fall back to
    merging every atom, and reads without a chance tie do not."""
    model = build_lq(LQParams(5.0, 0.0, -0.5, 0.5, 2, 1, 6), 0.5)
    for v_next in (np.zeros(2), np.array([0.0, 1.0])):
        assert_chance_ties_merge_as_reference(model, v_next)
    merged = []
    merge = model_module._merge_atoms

    def recording_merge(values, probs):
        merged.append(len(values))
        return merge(values, probs)

    monkeypatch.setattr(model_module, "_merge_atoms", recording_merge)
    for i in range(2):
        group_probs = model._successor_support(i, 0)[3]
        assert group_probs.tolist() == [0.5, 0.5]
        dist = successor_distribution(model, i, 0, np.array([0.0, 1.0]))
        assert dist.probs.tolist() == [0.5, 0.5]
        dist = successor_distribution(model, i, 0, np.zeros(2))
        assert dist.probs.tolist() == [0.9999999999999999]
    assert merged == [6, 6]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_successor_cache_is_per_model(data):
    sigma = data.draw(st.floats(0.1, 2.0))
    first = data.draw(lq_models(sigma=sigma))
    second = build_lq(
        LQParams(
            sigma=sigma + 0.5,
            action_bound=float(first.actions.values[-1]),
            x_lo=first.grid.lo,
            x_hi=first.grid.hi,
            grid_points=first.n_states,
            n_actions=first.n_actions,
            noise_atoms=len(first.transition.noise.dist),
        ),
        0.5,
    )
    # same shape, another grid: a bracket shared across models reads wrongly
    third = build_lq(
        LQParams(
            sigma=sigma,
            action_bound=float(first.actions.values[-1]),
            x_lo=first.grid.lo - 0.5,
            x_hi=first.grid.hi + 1.0,
            grid_points=first.n_states,
            n_actions=first.n_actions,
            noise_atoms=len(first.transition.noise.dist),
        ),
        0.5,
    )
    v_next = data.draw(value_functions(first.n_states))
    for i in range(first.n_states):
        for a_idx in range(first.n_actions):
            for model in (first, second, third, first):
                dist = successor_distribution(model, i, a_idx, v_next)
                values, probs = reference_successors(model, i, a_idx, v_next)
                assert np.array_equal(dist.values, values)
                assert np.array_equal(dist.probs, probs)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=10, unique=True),
    st.lists(st.floats(-6.0, 6.0) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=10),
    st.data(),
)
def test_interpolate_matches_clip_form(points, xs, data):
    points = np.array(sorted(points))
    values = np.array(
        data.draw(st.lists(st.floats(0.0, 100.0), min_size=len(points), max_size=len(points)))
    )
    xs = np.array(xs + [points[0], points[-1]])
    got = interpolate(points, values, xs)
    assert got.tobytes() == clip_interpolate(points, values, xs).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cached_bracket_reads_as_interpolate_does(data):
    """Each pair's cached bracket of its distinct successor states, read
    through ``interpolate`` and expanded to every noise atom by
    ``inverse``, equals public ``interpolate`` of the freshly computed
    successor states and the ``np.clip`` form, byte for byte; the group
    probabilities are the atom probabilities summed by ``inverse``, and a
    stack of value vectors reads as its rows do."""
    model = data.draw(st.one_of(lq_models(), investment_models()))
    points = model.grid.points
    rows = np.stack([data.draw(value_functions(model.n_states)) for _ in range(3)])
    for i in range(model.n_states):
        for a_idx in model.actions.indices_for(i):
            query, probs, inverse, group_probs = model._successor_support(i, a_idx)
            succ = fresh_successors(model, i, a_idx)
            assert len(query.frac) == len(group_probs) == count_distinct_states(succ)
            assert group_probs.tobytes() == np.bincount(inverse, weights=probs).tobytes()
            for v_next in rows:
                got = interpolate(model.grid, v_next, query)[inverse]
                assert got.tobytes() == interpolate(model.grid, v_next, succ).tobytes()
                assert got.tobytes() == clip_interpolate(points, v_next, succ).tobytes()
            stacked = np.ascontiguousarray(query.read(rows))
            assert stacked.tobytes() == np.stack([query.read(v) for v in rows]).tobytes()


def test_bracket_reads_the_grid_edges_and_interior_grid_points_exactly():
    """Queries on both edges, beyond them and on every interior grid point
    read the stored value itself.  At the top edge ``v[lo] + 1.0 * (v[hi] -
    v[lo])`` would round: here it gives 0.0 in place of 1.0."""
    grid = StateGrid(np.array([-1.0, -0.3, 0.2, 0.9, 2.5]))
    values = np.array([3.0, 0.1, 7.25, 1e16, 1.0])
    xs = np.concatenate(([-5.0], grid.points, [9.0]))
    expected = np.concatenate(([values[0]], values, [values[-1]]))
    query = model_module._bracket(grid.points, xs)
    assert interpolate(grid, values, query).tobytes() == expected.tobytes()
    assert interpolate(grid, values, xs).tobytes() == expected.tobytes()
    assert interpolate(grid, values, 2.5) == 1.0
    assert interpolate(grid, values, -1.0) == 3.0


def test_a_bracket_reads_only_the_grid_it_was_made_on():
    first = build_lq(LQParams(1.0, 1.0, -1.0, 1.0, 5, 3, 3), 0.5)
    second = build_lq(LQParams(1.0, 1.0, -2.0, 2.0, 5, 3, 3), 0.5)
    query = first._successor_support(0, 0)[0]
    with pytest.raises(ValueError, match="another grid"):
        interpolate(second.grid, np.zeros(5), query)


def test_each_dynamics_pair_is_bracketed_once_per_model(monkeypatch):
    """Two Bellman sweeps and a policy evaluation bracket each (state,
    action) pair once, when its successors are first cached, on the pair's
    distinct successor states."""
    model = build_lq(LQParams(1.0, 2.0, -3.0, 3.0, 9, 5, 5), 0.5)
    calls = []
    bracket = model_module._bracket

    def counting_bracket(points, xs):
        calls.append(len(xs))
        return bracket(points, xs)

    monkeypatch.setattr(model_module, "_bracket", counting_bracket)
    risk = AVaR(0.5)
    v, _ = bellman_update(model, risk, np.zeros(model.n_states))
    v, rule = bellman_update(model, risk, v)
    evaluate_policy(model, risk, Policy.stationary(rule), 3)
    distinct = [
        count_distinct_states(fresh_successors(model, i, a_idx))
        for i in range(model.n_states)
        for a_idx in range(model.n_actions)
    ]
    assert len(calls) == model.n_states * model.n_actions
    assert sorted(calls) == sorted(distinct)
    # successors clamped at the grid ends merge; the interior ones do not
    assert min(calls) < 5 == max(calls)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_max=True),
    st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12),
)
def test_tail_take_matches_clip_form(alpha, weights):
    """The in-place tail take equals the allocating ``np.minimum``/
    ``np.maximum`` form it replaced and the ``np.clip`` form, byte for
    byte, on one row and on a batch of rows as the exhaustive search passes
    it, and leaves its input unchanged."""
    probs = np.array(weights) / sum(weights)
    for sorted_probs in (probs, np.stack([probs, probs[::-1], np.roll(probs, 1)])):
        before = sorted_probs.copy()
        cum = np.cumsum(sorted_probs, axis=-1)
        old = np.minimum(np.maximum((1.0 - alpha) - (cum - sorted_probs), 0.0), sorted_probs)
        clip = np.clip((1.0 - alpha) - (cum - sorted_probs), 0.0, sorted_probs)
        got = _tail_take(alpha, sorted_probs)
        assert got.tobytes() == old.tobytes() == clip.tobytes()
        assert sorted_probs.tobytes() == before.tobytes()
