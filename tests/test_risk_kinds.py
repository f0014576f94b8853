"""The contract every risk kind keeps, run over each kind of the CLI's
``RISKS`` table: its batched value agrees with its value row by row, a
stack of probability rows gives each row's single call bit for bit, its
config form parses back to an equal spec, its maximising dual density stays
under its cap, and the table holds every ``RiskSpec`` class."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp.cli import RISKS, parse_config
from riskdp.risk import (
    AVaR,
    DiscreteDistribution,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    RiskSpec,
    avar_dual,
    density_cap,
    mean_deviation_dual,
)

LEVELS = (0.0, 0.3, 0.97)


def mixture_dual(components, dist):
    """Weights of a tail-average mixture's maximising density: the mix of
    each level's ``avar_dual`` density."""
    return sum(w * avar_dual(a, dist)[1].weights for a, w in components)


#: per kind, a spec at each of ``LEVELS`` and the weights of its maximising
#: dual density on a distribution, from the public dual kernels
KINDS = {
    "expectation": (
        lambda level: Expectation(),
        lambda spec, dist: mixture_dual(((0.0, 1.0),), dist),
    ),
    "avar": (AVaR, lambda spec, dist: avar_dual(spec.alpha, dist)[1].weights),
    "mean_deviation": (
        lambda level: MeanDeviation(min(level, 0.5)),
        lambda spec, dist: mean_deviation_dual(spec.kappa, dist)[1].weights,
    ),
    "kusuoka": (
        lambda level: KusuokaMixture(((0.0, 0.25), (level / 2, 0.25), (level, 0.5))),
        lambda spec, dist: mixture_dual(spec.components, dist),
    ),
}

CASES = [(kind, level) for kind in sorted(RISKS) for level in LEVELS]


def spec_of(kind, level):
    spec = KINDS[kind][0](level)
    assert type(spec) is RISKS[kind] and spec.kind == kind
    return spec


@st.composite
def outcome_rows(draw):
    """Shared atom probabilities and a matrix of outcome rows over 1-9
    atoms, drawn from a pool of at most four values so that rows tie."""
    k = draw(st.integers(1, 9))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    pool = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=4))
    rows = draw(st.integers(1, 5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * k, max_size=rows * k))
    return weights / weights.sum(), np.array(pool)[picks].reshape(rows, k)


@pytest.mark.parametrize("kind,level", CASES)
@settings(max_examples=60, deadline=None)
@given(outcome_rows())
def test_batched_value_equals_the_value_of_each_row(kind, level, drawn):
    spec = spec_of(kind, level)
    probs, outcomes = drawn
    batch = spec.batch_value(probs, outcomes)
    assert batch.shape == (outcomes.shape[0],)
    for got, row in zip(batch, outcomes):
        # scaled by the largest atom, not the value, which cancellation can
        # make far smaller than the rounding of the sums
        tol = 1e-12 * max(1.0, float(np.abs(row).max()))
        assert abs(got - spec.value(DiscreteDistribution(row, probs))) <= tol


@st.composite
def stacked_rows(draw):
    """A (P, k) stack of probability rows, one of them maybe repeated, over
    a (T, k) outcome matrix drawn from a pool of at most three values, so
    that rows tie; one atom, one outcome row and 8 or more atoms (where
    numpy's row sum turns pairwise) are drawn often."""
    k = draw(st.sampled_from([1, 8, 9]) | st.integers(1, 12))
    rows = draw(st.sampled_from([1]) | st.integers(1, 6))
    p_count = draw(st.integers(1, 4))
    weights = np.array(
        draw(st.lists(st.floats(0.05, 1.0), min_size=p_count * k, max_size=p_count * k))
    ).reshape(p_count, k)
    if draw(st.booleans()):
        weights[-1] = weights[0]
    pool = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * k, max_size=rows * k))
    outcomes = np.array(pool)[picks].reshape(rows, k)
    if draw(st.booleans()):
        # a gathered tabular block comes in Fortran order
        outcomes = np.asfortranarray(outcomes)
    return weights / weights.sum(axis=1, keepdims=True), outcomes


@pytest.mark.parametrize("kind,level", CASES)
@settings(max_examples=60, deadline=None)
@given(stacked_rows())
def test_stacked_batch_value_equals_each_single_call(kind, level, drawn):
    spec = spec_of(kind, level)
    probs, outcomes = drawn
    stacked = spec.batch_value(probs, outcomes)
    assert stacked.shape == (len(probs), outcomes.shape[0])
    for p, got in zip(probs, stacked):
        want = spec.batch_value(p, outcomes)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,level", CASES)
def test_stacked_batch_value_is_the_same_in_pieces(kind, level):
    """5,000 tied outcome rows: the tail-average kernel takes the stack in
    pieces of 1,365 rows and each single row in pieces of 4,096, and the
    piece bounds must not show in any value.  (A ``@`` over a slice of the
    rows may sum in another order than over all of them, so only the
    tail-average kinds are compared with slices.)"""
    spec = spec_of(kind, level)
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(5), size=3)
    outcomes = rng.integers(0, 4, size=(5000, 5)).astype(float)
    stacked = spec.batch_value(probs, outcomes)
    for p, got in zip(probs, stacked):
        assert got.tobytes() == spec.batch_value(p, outcomes).tobytes()
    for lo in (0, 1360, 4090) if kind in ("avar", "kusuoka") else ():
        rows = outcomes[lo : lo + 10]
        assert stacked[:, lo : lo + 10].tobytes() == spec.batch_value(probs, rows).tobytes()


@pytest.mark.parametrize("kind,level", CASES)
def test_config_form_parses_back_to_an_equal_spec(kind, level):
    spec = spec_of(kind, level)
    base = {"model": {"tabular": "model.json"}, "discount": 0.5}
    config = parse_config({**base, "risk": {"kind": "expectation"}})
    config.risk = spec
    doc = config.resolved()["risk"]
    assert doc["kind"] == kind
    # as the in-memory form, and as written to and read from JSON
    for risk in (doc, json.loads(json.dumps(doc))):
        assert parse_config({**base, "risk": risk}).risk == spec


@pytest.mark.parametrize("kind,level", CASES)
def test_dual_density_stays_under_the_cap(kind, level):
    spec = spec_of(kind, level)
    cap = density_cap(spec)
    assert cap == spec.cap() >= 1.0
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 10))
        probs = rng.uniform(0.05, 1.0, size=k)
        dist = DiscreteDistribution(rng.normal(size=k).round(1), probs / probs.sum())
        weights = KINDS[kind][1](spec, dist)
        assert weights.max() <= cap * (1.0 + 1e-12)
        # it is the maximiser: its expectation is the value
        assert abs((weights * dist.probs).dot(dist.values) - spec.value(dist)) <= 1e-12


def test_the_table_holds_every_risk_class():
    assert set(RISKS.values()) == set(RiskSpec.__subclasses__())
    assert set(KINDS) == set(RISKS)
