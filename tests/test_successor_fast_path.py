"""Differential tests: the model's one-pass successor structure and its
grid brackets, the per-pair merge of distinct successor states and its
fallback on chance ties, the sort-and-mask atom merge, the in-place tail
take, its cache, and the risk read of a successor distribution's sorted
atoms against test-local copies of the straightforward (often per-pair)
forms they replace, compared bit for bit; the finiteness check at the ends
of a pair's sorted values; when the successor structure is built, and what
a bad pair or a failing ``next_state`` raises; and how often a solve checks
probabilities, brackets successor states and computes tail takes."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp import model as model_module
from riskdp import risk as risk_module
from riskdp.cli import build_model, load_config
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
    build_tabular,
    interpolate,
    quantize_standard_normal,
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
from riskdp.solver import Policy, backward_induct, bellman_update, evaluate_policy, value_iterate


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
    for _ in range(2):  # the second pass reads the built structure
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
    """Every pair's successor distribution is read-only and marked
    ascending, and each risk value of it equals, bit for bit, the same
    value of an unmarked copy, which ``avar_primal`` sorts itself, and the
    tail average of the straightforward form."""
    for i in range(model.n_states):
        for a_idx in model.actions.indices_for(i):
            dist = successor_distribution(model, i, a_idx, v_next)
            assert not dist.values.flags.writeable
            assert not dist.probs.flags.writeable
            plain = DiscreteDistribution(dist.values, dist.probs)
            assert dist._ascending and not plain._ascending
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
    ``_merge_atoms`` (its merged values and probabilities)."""
    values = clip_interpolate(model.grid.points, v_next, fresh_successors(model, i, a_idx))
    return model_module._merge_atoms(values, model.transition.noise.dist.probs)[:2]


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


def test_signed_zeros_read_as_one_atom():
    """0.0 and -0.0 are one value to the merge, as to ``np.unique``: a
    tabular row and a dynamics pair whose two successor states read the
    two zeros give one atom, equal to the reference's bit for bit."""
    tabular = build_tabular(np.full((3, 1, 3), 1.0 / 3.0), np.ones((3, 1)), 0.5)
    noise = NoiseModel(DiscreteDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5])))
    dynamics = MarkovModel(
        StateGrid(np.arange(-2.0, 3.0)),
        ActionSet(np.zeros(1)),
        Dynamics(lambda x, a, xi: x + xi, noise),
        lambda x, a: 0.0,
        0.5,
    )
    v_next = np.array([0.0, -0.0, 2.0])
    assert_same_as_reference(tabular, v_next)
    assert successor_distribution(tabular, 0, 0, v_next).values.tolist() == [0.0, 2.0]
    v_next = np.array([5.0, 0.0, 3.0, -0.0, 5.0])
    assert_chance_ties_merge_as_reference(dynamics, v_next)
    assert successor_distribution(dynamics, 2, 0, v_next).probs.tolist() == [1.0]


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


def lo_hi_read(points, values, xs):
    """The read the bracket of the last grid point replaced: ``lo = hi - 1``
    everywhere, ``v[lo] + frac * (v[hi] - v[lo])``, and ``v[-1]`` written
    over the queries on the last grid point, where that form can round."""
    xs, lo, hi, frac = lo_hi_bracket(points, xs)
    out = values[lo] + frac * (values[hi] - values[lo])
    out[xs == points[-1]] = values[-1]
    return out


def lo_hi_bracket(points, xs):
    """The clamped queries and their ``lo = hi - 1`` brackets."""
    xs = np.minimum(np.maximum(xs, points[0]), points[-1])
    hi = np.minimum(np.maximum(points.searchsorted(xs, side="right"), 1), len(points) - 1)
    lo = hi - 1
    return xs, lo, hi, (xs - points[lo]) / (points[hi] - points[lo])


def expected_read(points, values, xs):
    """``lo_hi_read``, except that a -0.0 on the last grid point reads
    ``-0.0 + 0.0 * 0.0``, which is 0.0, as a -0.0 on an interior grid point
    always read; ``+ 0.0`` leaves every other value as it is."""
    out = lo_hi_read(points, values, xs)
    out[np.minimum(np.maximum(xs, points[0]), points[-1]) == points[-1]] += 0.0
    return out


def public_read(points, values, xs):
    """``expected_read``, except where the difference of two finite values
    overflows: there the public ``interpolate`` reads the convex form
    ``(1 - frac) * v[lo] + frac * v[hi]``, which is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = expected_read(points, values, xs)
    wild = ~np.isfinite(out)
    _, lo, hi, frac = lo_hi_bracket(points, xs)
    out[wild] = ((1.0 - frac) * values[lo] + frac * values[hi])[wild]
    assert np.isfinite(out).all()
    return out


def finite_values(n):
    """Finite grid values of any sign and size, signed zeros among them."""
    special = st.sampled_from([0.0, -0.0, 1.0, 1e16, -3.5, 1e300, -1e300, 5e-324])
    element = special | st.floats(allow_nan=False, allow_infinity=False)
    return st.lists(element, min_size=n, max_size=n).map(np.array)


def assert_reads_as_lo_hi_form(model, rows, queries):
    """Each pair's cached read expanded to every atom and a stack read equal
    ``expected_read``, and the public ``interpolate`` of ``queries`` equals
    ``public_read``, byte for byte."""
    points = model.grid.points
    # finite values so large that ``v[hi] - v[lo]`` overflows, on either form
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(model.n_states):
            for a_idx in model.actions.indices_for(i):
                query, _, inverse, _ = model._successor_support(i, a_idx)
                succ = fresh_successors(model, i, a_idx)
                for v in rows:
                    got = interpolate(model.grid, v, query)[inverse]
                    assert got.tobytes() == expected_read(points, v, succ).tobytes()
                stacked = query.read(rows)[:, inverse]
                want = np.stack([expected_read(points, v, succ) for v in rows])
                assert stacked.tobytes() == want.tobytes()
    for v in rows:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolate(model.grid, v, queries)
        assert got.tobytes() == public_read(points, v, queries).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_read_equals_the_lo_hi_form_with_its_top_fix_up(data):
    """The read equals ``lo_hi_read`` bit for bit on finite values, a -0.0
    on the last grid point aside: on successors that clamp at both ends,
    hit grid points, or are -0.0, on 2-point grids and with one noise atom,
    and on public queries beyond both ends, on every grid point and at
    both zeros."""
    model = data.draw(
        st.one_of(lq_models(), investment_models(), tie_models(), masked_user_models())
    )
    points = model.grid.points
    rows = np.stack([data.draw(finite_values(model.n_states)) for _ in range(3)])
    on_grid = points.tolist() + [-0.0, 0.0, points[0] - 1.0, points[-1] + 1.0]
    queries = np.array(
        on_grid
        + data.draw(st.lists(st.floats(points[0] - 1.0, points[-1] + 1.0), max_size=6))
    )
    assert_reads_as_lo_hi_form(model, rows, queries)


def test_the_read_equals_the_lo_hi_form_on_fixed_cases():
    """2-point grids, one noise atom, on-grid successors, a -0.0 successor
    state next to a 0.0 grid point, and a top value whose ``lo``/``hi`` form
    rounds."""
    noise = NoiseModel(DiscreteDistribution(np.array([-1.0, 0.0, 1.0]), np.full(3, 1.0 / 3.0)))
    signed = MarkovModel(
        StateGrid(np.array([-1.0, 0.0, 1.0])),
        ActionSet(np.array([0.0, 1.0])),
        Dynamics(lambda x, a, xi: math.copysign(x * a, xi) if xi else 5.0 * x, noise),
        lambda x, a: 0.0,
        0.5,
    )
    # at the top grid point ``v[lo] + 1.0 * (v[hi] - v[lo])`` reads the first
    # row's 1.0 as 1e16 + (1.0 - 1e16) == 0.0
    rows = np.array([[3.0, 1e16, 1.0], [-0.0, 0.0, -0.0], [1e300, -1e300, 1.0]])
    queries = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
    assert_reads_as_lo_hi_form(signed, rows, queries)
    assert math.copysign(1.0, interpolate(signed.grid, rows[1], 1.0)) == 1.0
    for params in (
        LQParams(1.0, 1.0, -1.0, 1.0, 2, 3, 1),
        LQParams(0.0, 1.0, -1.0, 1.0, 5, 3, 1),
        LQParams(3.0, 2.0, -0.5, 0.5, 2, 3, 7),
    ):
        model = build_lq(params, 0.5)
        values = np.array([1e16] * (params.grid_points - 1) + [1.0])
        assert_reads_as_lo_hi_form(model, values[None, :], queries)


def test_a_bracket_reads_only_the_grid_it_was_made_on():
    first = build_lq(LQParams(1.0, 1.0, -1.0, 1.0, 5, 3, 3), 0.5)
    second = build_lq(LQParams(1.0, 1.0, -2.0, 2.0, 5, 3, 3), 0.5)
    query = first._successor_support(0, 0)[0]
    with pytest.raises(ValueError, match="another grid"):
        interpolate(second.grid, np.zeros(5), query)


def test_each_dynamics_pair_is_bracketed_once_per_model(monkeypatch):
    """Two Bellman sweeps and a policy evaluation bracket the model once,
    when its successor structure is built on the first read, on every
    pair's distinct successor states together."""
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
    evaluate_policy(model, risk, Policy(stages=(), tail=rule), 3)
    distinct = [
        count_distinct_states(fresh_successors(model, i, a_idx))
        for i in range(model.n_states)
        for a_idx in range(model.n_actions)
    ]
    assert calls == [sum(distinct)]
    # successors clamped at the grid ends merge; the interior ones do not
    assert min(distinct) < 5 == max(distinct)


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


def sorted_read(model, i, a_idx, v_next):
    """One pair's successor values, read by the test-local forms and
    sorted (NaN last)."""
    if isinstance(model.transition, Tabular):
        return np.sort(v_next[model.transition.kernel[i, a_idx] > 0.0])
    with np.errstate(invalid="ignore"):
        succ = fresh_successors(model, i, a_idx)
        return np.sort(clip_interpolate(model.grid.points, v_next, succ))


def finiteness_cases():
    """Every pair of a dense tabular model and of an LQ model whose pairs
    reach interior successors only, or clamp some at a grid end, with one
    grid value set to -inf, +inf or NaN: yields the model's kind, whether
    the bad grid point is interior, the pair, ``v_next`` and the pair's
    sorted read."""
    rng = np.random.default_rng(3)
    tabular = build_tabular(rng.dirichlet(np.ones(4), size=(4, 2)), np.ones((4, 2)), 0.5)
    # grid -3..3, actions -1, 0, 1, successors x + a + {-1.84, 0, 1.84}
    lq = build_lq(LQParams(1.5, 1.0, -3.0, 3.0, 7, 3, 3), 0.5)
    points = lq.grid.points
    for model in (tabular, lq):
        n = model.n_states
        for bad in (-np.inf, np.inf, np.nan):
            for j in range(n):
                v_next = np.arange(n, dtype=float)
                v_next[j] = bad
                for i in range(n):
                    for a_idx in model.actions.indices_for(i):
                        if model is tabular:
                            kind = "tabular"
                        else:
                            succ = fresh_successors(lq, i, a_idx)
                            clamped = np.any((succ == points[0]) | (succ == points[-1]))
                            kind = "clamped-edge" if clamped else "interior"
                        read = sorted_read(model, i, a_idx, v_next)
                        yield kind, 0 < j < n - 1, (model, i, a_idx, v_next), read


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_non_finite_read_is_caught_at_either_end_of_the_sorted_values():
    """A pair's sorted values hold any -inf first and any +inf or NaN last,
    and ``successor_distribution`` checks only those two ends.  Every pair
    that reads a non-finite value is rejected with the value message; each
    kind of pair is seen with -inf first and +inf and NaN last while its
    other end is finite, and with the bad value at an interior grid
    point."""
    seen = set()
    for kind, interior, args, read in finiteness_cases():
        if np.isfinite(read).all():
            successor_distribution(*args)
            continue
        with pytest.raises(ValueError, match="atom values must be finite"):
            successor_distribution(*args)
        if not np.isfinite(read[0]) and np.isfinite(read[-1]):
            seen.add((kind, interior, "first", str(read[0])))
        if np.isfinite(read[0]) and not np.isfinite(read[-1]):
            seen.add((kind, interior, "last", str(read[-1])))
    for end, bad in (("first", "-inf"), ("last", "inf"), ("last", "nan")):
        for kind in ("tabular", "interior", "clamped-edge"):
            assert (kind, True, end, bad) in seen
        # and with the bad value at a grid end
        assert ("clamped-edge", False, end, bad) in seen


def uncached_evaluate(spec, dist):
    """``evaluate`` of an AVaR or Kusuoka spec through ``reference_avar``,
    which computes every tail take afresh."""
    if isinstance(spec, AVaR):
        return reference_avar(spec.alpha, dist)
    return sum(w * reference_avar(a, dist) for a, w in spec.components)


def assert_cached_takes_as_uncached(dist):
    """The cached take of the distribution's worst-first probabilities is
    read-only and byte-equal to ``_tail_take`` at every level, and the
    risk values equal the uncached route's; levels alternate on one
    probability vector, so a take cached under another level shows."""
    if dist._ascending:
        worst_first = dist.probs[::-1]
    else:
        worst_first = dist.probs[(-dist.values).argsort(kind="stable")]
    for alpha in LEVELS:
        take = risk_module._cached_tail_take(alpha, worst_first.tobytes())
        assert not take.flags.writeable
        assert take.tobytes() == _tail_take(alpha, worst_first).tobytes()
        assert avar_primal(alpha, dist) == reference_avar(alpha, dist)
    for spec in SPECS:
        assert evaluate(spec, dist) == uncached_evaluate(spec, dist)


@st.composite
def tied_distributions(draw):
    """1 to 80 atoms (beyond ``TAIL_TAKE_CACHE_ATOMS``), with values and
    probabilities that often tie."""
    k = draw(st.integers(1, 80))
    values = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 50.0)
    values = np.array(draw(st.lists(values, min_size=k, max_size=k)))
    weights = st.sampled_from([1.0, 1.0, 2.0, 3.0])
    weights = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
    return DiscreteDistribution(values, weights / weights.sum())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cached_tail_takes_read_as_uncached(data):
    """Successor distributions of model pairs, merged and not, with equal
    or unequal noise weights, and plain distributions with tied
    probabilities, each risk value bit for bit as without the cache."""
    if data.draw(st.booleans()):
        assert_cached_takes_as_uncached(data.draw(tied_distributions()))
        return
    model = data.draw(st.one_of(lq_models(), tie_models(), tabular_models()))
    v_next = data.draw(value_functions(model.n_states))
    for i in range(model.n_states):
        for a_idx in model.actions.indices_for(i):
            assert_cached_takes_as_uncached(successor_distribution(model, i, a_idx, v_next))


def test_cached_tail_takes_read_as_uncached_on_merged_and_unmerged_pairs():
    """On the 9 x 5 x 5 LQ model, whose end states merge, at flat and
    rising values."""
    model = build_lq(LQParams(1.0, 2.0, -3.0, 3.0, 9, 5, 5), 0.5)
    groups = set()
    for i in range(model.n_states):
        for a_idx in range(model.n_actions):
            groups.add(len(model._successor_support(i, a_idx)[3]))
            for v_next in (np.zeros(9), np.linspace(0.0, 4.0, 9) ** 2):
                assert_cached_takes_as_uncached(successor_distribution(model, i, a_idx, v_next))
    assert min(groups) < 5 == max(groups)


def test_a_solve_checks_no_probabilities_and_tail_takes_are_shared(monkeypatch):
    """Solving the 9 x 5 x 5 LQ model checks no probabilities: the noise
    distribution checked them when it was built, and neither the successor
    structure nor a read checks them again, by any name: a profile hook
    counts every run of ``_check_probs``'s code.  Each distinct (level,
    worst-first probabilities) tail take is computed once, far fewer times
    than the risk reads it."""
    model = build_lq(LQParams(1.0, 2.0, -3.0, 3.0, 9, 5, 5), 0.5)
    checked, computed, requested = [], [], []
    check_code = risk_module._check_probs.__code__
    tail_take = risk_module._tail_take
    cached_tail_take = risk_module._cached_tail_take

    def counting_profile(frame, event, arg):
        if event == "call" and frame.f_code is check_code:
            checked.append(frame.f_locals["probs"])

    def counting_take(alpha, sorted_probs):
        computed.append((alpha, sorted_probs.tobytes()))
        return tail_take(alpha, sorted_probs)

    def recording_cached_take(alpha, key):
        requested.append((alpha, key))
        return cached_tail_take(alpha, key)

    monkeypatch.setattr(risk_module, "_tail_take", counting_take)
    monkeypatch.setattr(risk_module, "_cached_tail_take", recording_cached_take)
    cached_tail_take.cache_clear()
    risk = AVaR(0.7)
    sys.setprofile(counting_profile)
    try:
        report = value_iterate(model, risk, 1e-6, 200)
        backward_induct(model, risk, 3)
    finally:
        sys.setprofile(None)
    pairs = model.n_states * model.n_actions
    assert checked == [] and len(model._successors) == pairs
    assert sorted(computed) == sorted(set(requested))
    assert len(requested) == pairs * (report.sweeps + 4)
    assert 20 * len(computed) < len(requested)


def per_pair_support(model, i, a_idx):
    """One pair's successors built on their own, as the per-pair build did:
    the kernel row's support ``(indices, probs)``, or, from the pair's
    fresh successor states, ``np.unique`` of their int64 views, the pair's
    own ``np.bincount`` and the ``np.clip`` form of the bracket as
    ``(lo, hi, frac, inverse, group_probs)``, where a state on the last grid
    point brackets as ``lo == hi == n - 1`` with weight 0.0."""
    if isinstance(model.transition, Tabular):
        row = model.transition.kernel[i, a_idx]
        mask = row > 0.0
        return np.flatnonzero(mask), row[mask]
    succ = fresh_successors(model, i, a_idx)
    probs = model.transition.noise.dist.probs
    _, first, inverse = np.unique(succ.view(np.int64), return_index=True, return_inverse=True)
    if len(first) < len(succ):
        states, group_probs = succ[first], np.bincount(inverse, weights=probs)
    else:
        states, inverse, group_probs = succ, np.arange(len(succ)), probs
    points = model.grid.points
    # ``_bracket`` clamps with ``np.maximum``, which takes a 0.0 grid end
    # over a -0.0 state (``np.clip`` keeps the -0.0)
    xs = np.minimum(np.maximum(states, points[0]), points[-1])
    hi = np.clip(np.searchsorted(points, xs, side="right"), 1, len(points) - 1)
    lo = hi - 1
    frac = (xs - points[lo]) / (points[hi] - points[lo])
    top = xs == points[-1]
    return np.where(top, hi, lo), hi, np.where(top, 0.0, frac), inverse, group_probs


def admissible_pairs(model):
    return [(i, a_idx) for i in range(model.n_states) for a_idx in model.actions.indices_for(i)]


def assert_structure_as_per_pair(model):
    """The one-pass structure holds exactly the admissible pairs, and each
    pair's arrays equal the per-pair build's in dtype and bytes and are
    read-only."""
    for i, a_idx in admissible_pairs(model):
        support = model._successor_support(i, a_idx)
        if isinstance(model.transition, Tabular):
            got = support
        else:
            query, probs, inverse, group_probs = support
            assert query.points is model.grid.points
            assert probs.tobytes() == model.transition.noise.dist.probs.tobytes()
            assert not probs.flags.writeable
            got = (query.lo, query.hi, query.frac, inverse, group_probs)
        expected = per_pair_support(model, i, a_idx)
        assert len(got) == len(expected)
        for array, want in zip(got, expected):
            assert array.dtype == want.dtype and array.shape == want.shape
            assert array.tobytes() == want.tobytes()
            assert not array.flags.writeable
    assert sorted(model._successors) == admissible_pairs(model)


@st.composite
def masked_user_models(draw):
    """User dynamics on 2 to 5 grid points whose admissibility masks skip
    pairs, and whose successors reach 0.0 and -0.0 (``copysign`` of a zero
    product), tie by chance (``xi`` and ``-xi`` squared) and clamp at both
    grid ends (large noise)."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    admissible = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))) for _ in range(n)
    )
    xi = draw(
        st.lists(
            st.sampled_from([-5.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 5.0]) | st.floats(-5.0, 5.0),
            min_size=k,
            max_size=k,
        )
    )
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    noise = NoiseModel(DiscreteDistribution(np.array(xi), weights / weights.sum()))
    shape = draw(st.sampled_from(["signed", "square", "affine"]))

    def next_state(x, a, xi):
        if shape == "signed":
            return math.copysign(x * a, xi) if abs(xi) < 2.0 else x + xi
        if shape == "square":
            return x + a - xi * xi
        return x + a * xi

    half = draw(st.floats(0.25, 2.0))
    return MarkovModel(
        StateGrid(np.linspace(-half, half, n)),
        ActionSet(np.linspace(-1.0, 1.0, m), admissible),
        Dynamics(next_state, noise),
        lambda x, a: 0.0,
        0.5,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        lq_models(), investment_models(), tie_models(), masked_user_models(), tabular_models()
    )
)
def test_one_pass_structure_equals_the_per_pair_build(model):
    assert_structure_as_per_pair(model)


def test_one_pass_structure_equals_the_per_pair_build_on_fixed_cases():
    """Signed zeros on both sides of a merge, a mask that skips pairs,
    clamps at both grid ends, a single noise atom, a 2-point grid, and a
    tabular kernel whose rows hold zeros under a mask."""
    noise = NoiseModel(
        DiscreteDistribution(np.array([-9.0, -1.0, -0.5, 0.5, 1.0, 9.0]), np.full(6, 1.0 / 6.0))
    )
    signed = MarkovModel(
        StateGrid(np.array([-1.0, 0.0, 1.0])),
        ActionSet(np.array([-1.0, 0.0, 1.0]), ((0, 2), (1,), (0, 1, 2))),
        Dynamics(lambda x, a, xi: math.copysign(x * a, xi) if abs(xi) < 2.0 else xi, noise),
        lambda x, a: 0.0,
        0.5,
    )
    kernel = np.zeros((3, 2, 3))
    kernel[:, 0, 0] = 1.0
    kernel[:, 1] = [[0.0, 0.25, 0.75], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]
    tabular = MarkovModel(
        StateGrid(np.arange(3.0)),
        ActionSet(np.arange(2.0), ((1,), (0, 1), (1,))),
        Tabular(kernel),
        lambda x, a: 0.0,
        0.5,
    )
    cases = [
        signed,
        tabular,
        build_lq(LQParams(3.0, 2.0, -0.5, 0.5, 2, 3, 7), 0.5),
        build_lq(LQParams(1.0, 1.0, -2.0, 2.0, 5, 3, 1), 0.5),
        build_lq(LQParams(1.0, 0.0, -1.0, 1.0, 2, 1, 1), 0.5),
        build_investment(InvestmentParams(0.1, 0.0, 3.0, 1.0, 0.0, 1.0, 3, 3, 4), 0.9),
    ]
    for model in cases:
        assert_structure_as_per_pair(model)
    # state 1 (x = 0) takes only action 0: -0.0 and 0.0 from ``copysign``,
    # and both grid ends from -9 and 9, in the order of their int64 views
    query, _, inverse, group_probs = signed._successor_support(1, 1)
    assert inverse.tolist() == [1, 0, 0, 2, 2, 3]
    assert group_probs.tolist() == [2 / 6, 1 / 6, 2 / 6, 1 / 6]
    assert query.lo.tolist() == [1, 0, 1, 2] and query.hi.tolist() == [2, 1, 2, 2]
    assert [math.copysign(1.0, f) for f in query.frac] == [-1.0, 1.0, 1.0, 1.0]
    assert (1, 0) not in signed._successors and (0, 0) not in tabular._successors


def counting_lq(admissible=None):
    """The 9 x 5 x 5 LQ model with a ``next_state`` that counts its calls,
    under the admissibility mask ``admissible``."""
    calls = []

    def next_state(x, a, xi):
        calls.append((x, a, xi))
        return x + a + xi

    noise = quantize_standard_normal(5)
    model = MarkovModel(
        StateGrid(np.linspace(-3.0, 3.0, 9)),
        ActionSet(np.linspace(-2.0, 2.0, 5), admissible),
        Dynamics(next_state, noise),
        lambda x, a: x * x + a * a,
        0.5,
    )
    return model, calls


def test_the_structure_is_built_on_the_first_read_and_never_again(monkeypatch, tmp_path):
    """No builder fills the structure; the first read fills every
    admissible pair at once, and later reads, sweeps, policy evaluation and
    backward induction never build it again."""
    config = tmp_path / "config.json"
    config.write_text(
        '{"model": {"lq": {"sigma": 1.0, "action_bound": 2.0, "x_lo": -3.0, "x_hi": 3.0,'
        ' "grid_points": 9, "n_actions": 5, "noise_atoms": 5}},'
        ' "risk": {"kind": "avar", "alpha": 0.5}, "discount": 0.5}'
    )
    assert build_model(load_config(str(config)))._successors == {}
    builds = []
    build = MarkovModel._build_successors

    def counting_build(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(MarkovModel, "_build_successors", counting_build)
    model, calls = counting_lq()
    rng = np.random.default_rng(0)
    tabular = build_tabular(rng.dirichlet(np.ones(4), size=(4, 2)), np.ones((4, 2)), 0.5)
    for fresh in (model, tabular):
        assert fresh._successors == {}
        successor_distribution(fresh, fresh.n_states - 1, 0, np.zeros(fresh.n_states))
        assert sorted(fresh._successors) == admissible_pairs(fresh)
    assert builds == [model, tabular]
    assert len(calls) == 9 * 5 * 5
    structure = model._successors
    risk = AVaR(0.5)
    v, rule = bellman_update(model, risk, np.zeros(9))
    bellman_update(model, risk, v)
    evaluate_policy(model, risk, Policy(stages=(), tail=rule), 3)
    backward_induct(model, risk, 2)
    value_iterate(tabular, risk, 1e-6, 50)
    assert builds == [model, tabular]
    assert model._successors is structure and len(calls) == 9 * 5 * 5


def test_a_bad_pair_on_a_fresh_model_raises_before_anything_is_built():
    model, calls = counting_lq()
    v_next = np.zeros(9)
    for i, a_idx, message in (
        (-1, 0, "state index -1 out of range"),
        (9, 0, "state index 9 out of range"),
        (0, 5, "action index 5 is not admissible at state 0"),
        (0, -1, "action index -1 is not admissible at state 0"),
    ):
        with pytest.raises(ValueError, match=message):
            successor_distribution(model, i, a_idx, v_next)
        assert model._successors == {} and calls == []
    masked = MarkovModel(
        StateGrid(np.array([0.0, 1.0])),
        ActionSet(np.array([0.0, 1.0]), ((0,), (1,))),
        Dynamics(lambda x, a, xi: x + a + xi, quantize_standard_normal(2)),
        lambda x, a: 0.0,
        0.5,
    )
    for fresh in (True, False):
        with pytest.raises(ValueError, match="action index 1 is not admissible at state 0"):
            successor_distribution(masked, 0, 1, np.zeros(2))
        assert (masked._successors == {}) is fresh
        successor_distribution(masked, 1, 1, np.zeros(2))


@pytest.mark.parametrize("built", [False, True])
def test_a_non_integral_state_index_is_out_of_range(built):
    """``1.5`` names no pair: it raises the ValueError naming it, and builds
    nothing on a fresh model.  Integral indices of any type read pair 1,
    also where an admissibility mask (a tuple, which ``1.0`` cannot index)
    names the admissible actions, and ``1.0`` is the first read of a fresh
    model."""
    for mask in (None, ((0, 2),) * 9):
        model, calls = counting_lq(mask)
        v_next = np.arange(9.0)
        if built:
            successor_distribution(model, 0, 0, v_next)
        structure, n_calls = model._successors, len(calls)
        with pytest.raises(ValueError, match=r"state index 1\.5 out of range"):
            successor_distribution(model, 1.5, 0, v_next)
        assert model._successors is structure and len(calls) == n_calls
        reads = [successor_distribution(model, i, 0, v_next).atoms for i in (1.0, 1, np.int64(1))]
        assert reads[0] == reads[1] == reads[2]
        if mask is not None:
            with pytest.raises(ValueError, match="action index 1 is not admissible at state 1.0"):
                successor_distribution(model, 1.0, 1, v_next)


def test_a_failing_next_state_fails_the_first_read_of_any_pair():
    """A ``next_state`` that raises on one pair raises the same exception at
    the first read of every pair, not only at its own, and leaves nothing
    built, so each later read raises it again."""

    class Boom(Exception):
        pass

    def next_state(x, a, xi):
        if x == 1.0 and a == 1.0:
            raise Boom("no successor")
        return x

    model = MarkovModel(
        StateGrid(np.array([0.0, 1.0])),
        ActionSet(np.array([0.0, 1.0])),
        Dynamics(next_state, quantize_standard_normal(3)),
        lambda x, a: 0.0,
        0.5,
    )
    for i, a_idx in ((0, 0), (1, 0), (1, 1)):
        with pytest.raises(Boom, match="no successor"):
            successor_distribution(model, i, a_idx, np.zeros(2))
        assert model._successors == {}
