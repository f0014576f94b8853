"""Differential tests: the cached successor support, the sort-and-mask atom
merge and the ``np.minimum``/``np.maximum`` clamps against test-local
copies of the straightforward forms they replace, compared bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp.model import (
    ActionSet,
    InvestmentParams,
    LQParams,
    MarkovModel,
    StateGrid,
    Tabular,
    build_investment,
    build_lq,
    interpolate,
    successor_distribution,
)
from riskdp.risk import _tail_take


def clip_interpolate(points, values, xs):
    """Array form of ``interpolate`` with ``np.clip`` clamps."""
    xs = np.clip(np.asarray(xs, dtype=float), points[0], points[-1])
    hi = np.clip(np.searchsorted(points, xs, side="right"), 1, len(points) - 1)
    lo = hi - 1
    frac = (xs - points[lo]) / (points[hi] - points[lo])
    out = values[lo] + frac * (values[hi] - values[lo])
    return np.where(xs == points[-1], values[-1], out)


def reference_successors(model, i, a_idx, v_next):
    """Successor distribution recomputed from scratch on every call: the
    transition map and the clamp per noise atom, interpolation, then
    ``np.unique`` plus ``np.bincount``."""
    if isinstance(model.transition, Tabular):
        row = model.transition.kernel[i, a_idx]
        mask = row > 0.0
        values, probs = v_next[mask], row[mask]
    else:
        x = float(model.grid.points[i])
        a = float(model.actions.values[a_idx])
        noise = model.transition.noise.dist
        succ = np.array(
            [model.clamp(model.transition.next_state(x, a, float(xi))) for xi in noise.values]
        )
        values = clip_interpolate(model.grid.points, v_next, succ)
        probs = noise.probs
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


def test_successor_distribution_matches_reference_at_the_edges():
    """Fixed cases the random draws may miss: a 2-point grid with every
    successor clamped at one edge or the other, a single noise atom, and
    wealth clamped at zero."""
    cases = [
        build_lq(LQParams(3.0, 2.0, -0.5, 0.5, 2, 3, 7), 0.5),
        build_lq(LQParams(1.0, 1.0, -2.0, 2.0, 5, 3, 1), 0.5),
        build_investment(InvestmentParams(0.1, 0.0, 3.0, 1.0, 0.0, 1.0, 3, 3, 4), 0.9),
    ]
    for model in cases:
        n = model.n_states
        ramp = np.arange(n, dtype=float)
        for v_next in (np.zeros(n), np.ones(n), ramp, ramp[::-1] * 0.5):
            assert_same_as_reference(model, v_next)


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
    v_next = data.draw(value_functions(first.n_states))
    for i in range(first.n_states):
        for a_idx in range(first.n_actions):
            for model in (first, second, first):
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


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_max=True),
    st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12),
)
def test_tail_take_matches_clip_form(alpha, weights):
    probs = np.array(weights) / sum(weights)
    cum = np.cumsum(probs)
    expected = np.clip((1.0 - alpha) - (cum - probs), 0.0, probs)
    assert _tail_take(alpha, probs).tobytes() == expected.tobytes()
    # a batch of rows, as the exhaustive search passes it, row by row
    batch = np.stack([probs, probs[::-1], np.roll(probs, 1)])
    cum = np.cumsum(batch, axis=1)
    expected = np.clip((1.0 - alpha) - (cum - batch), 0.0, batch)
    assert _tail_take(alpha, batch).tobytes() == expected.tobytes()
