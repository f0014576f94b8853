"""The numerical contract of value iteration: checks that must hold at any
scale of the values, and an exact anchor for a risk-averse solve.

- Rounding on large values never reads as a monotonicity failure: the
  slack is relative to the largest iterate.
- Scaling every stage cost and the tolerance by a power of two is exact in
  floating point while no value is subnormal, so the iterates scale bit for
  bit and the rules and sweep counts stay the same.
- On the wealth model, positive homogeneity gives ``v(x) = c x`` with
  ``c = 1 / (1 - discount * g)``, ``g`` the least risk of a growth factor
  over the actions, and linear interpolation reproduces it on the grid.
- On the risk-neutral LQ model the grid solve exceeds the Riccati value
  ``p x**2 + q`` by an error that falls by second order as the grid and
  the action set are refined together.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp.model import (
    InvestmentParams,
    LQParams,
    MarkovModel,
    build_investment,
    build_lq,
    build_tabular,
)
from riskdp.risk import AVaR, DiscreteDistribution, Expectation, KusuokaMixture, MeanDeviation
from riskdp.solver import value_iterate

KINDS = (
    Expectation(),
    AVaR(0.5),
    MeanDeviation(0.5),
    KusuokaMixture(((0.0, 0.5), (0.5, 0.5))),
)


def test_rounding_on_large_values_is_not_a_monotonicity_failure():
    """3-state Dirichlet models with costs up to 1e7 at discount 0.9: with
    an absolute slack of 1e-12, 14 of these 160 solves raised
    ``MonotonicityError`` on rounding noise of a few ulps."""
    rng = np.random.default_rng(0)
    for _ in range(40):
        kernel = rng.dirichlet(np.ones(3), size=(3, 2))
        model = build_tabular(kernel, rng.uniform(0.0, 1e7, size=(3, 2)), 0.9)
        for risk in KINDS:
            # raises ``MonotonicityError`` where a sweep reads as a decrease
            value_iterate(model, risk, 1e-8, 500)


@st.composite
def scalable_models(draw):
    """A tabular or linear-quadratic model and a factory for the same model
    with every stage cost multiplied by a factor."""
    beta = draw(st.sampled_from([0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n, m = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        kernel = rng.dirichlet(np.ones(n), size=(n, m))
        costs = rng.uniform(0.0, 1.0, size=(n, m))
        return lambda factor: build_tabular(kernel, costs * factor, beta)
    params = LQParams(
        # a noise scale near 1e-300 makes the values near x = 0 subnormal,
        # where a power-of-two scale is no longer exact
        sigma=draw(st.just(0.0) | st.floats(0.1, 1.5)),
        action_bound=1.0,
        x_lo=-2.0,
        x_hi=2.0,
        grid_points=draw(st.integers(2, 7)),
        n_actions=draw(st.integers(1, 3)),
        noise_atoms=draw(st.integers(1, 5)),
    )
    base = build_lq(params, beta)

    def scaled(factor):
        cost = base.cost
        return MarkovModel(
            base.grid, base.actions, base.transition, lambda x, a: cost(x, a) * factor, beta
        )

    return scaled


@settings(max_examples=60, deadline=None)
@given(scalable_models(), st.sampled_from(KINDS), st.sampled_from([2.0**20, 2.0**40]))
def test_scaling_costs_and_tolerance_by_a_power_of_two_scales_the_iterates_exactly(
    make, risk, factor
):
    tol = 1e-8
    base = value_iterate(make(1.0), risk, tol, 300)
    scaled = value_iterate(make(factor), risk, tol * factor, 300)
    assert scaled.sweeps == base.sweeps
    assert scaled.converged == base.converged
    assert np.array_equal(scaled.stationary_policy, base.stationary_policy)
    for got, want in zip(scaled.values_per_iteration, base.values_per_iteration):
        assert got.tobytes() == (want * factor).tobytes()


#: per risk kind: the stationary action on 0 < x <= 1 and ``c`` to 4 places
WEALTH_ANCHORS = [
    (Expectation(), -1.0, 1.8519),
    (MeanDeviation(0.3), -1.0, 1.9323),
    (AVaR(0.7), 0.0, 2.0408),
    (KusuokaMixture(((0.0, 0.3), (0.5, 0.4), (0.9, 0.3))), 0.0, 2.0408),
]


@pytest.mark.parametrize(
    "risk,action,rounded", WEALTH_ANCHORS, ids=[risk.kind for risk, _, _ in WEALTH_ANCHORS]
)
def test_wealth_values_are_linear_with_the_slope_of_the_least_risky_growth(
    risk, action, rounded
):
    """The grid reaches 64, far enough above x <= 1 that its top clamp
    leaks nothing into those values at this tolerance."""
    params = InvestmentParams(
        mu=0.12, r=0.02, sigma=0.2, action_bound=1.0, wealth_lo=0.0, wealth_hi=64.0,
        grid_points=129, n_actions=5, noise_atoms=7,
    )
    beta = 0.5
    model = build_investment(params, beta)
    noise = model.transition.noise.dist
    # the growth factor of each action is the successor of unit wealth
    next_state = model.transition.next_state
    growth = [
        risk.value(DiscreteDistribution(next_state(1.0, a, noise.values), noise.probs))
        for a in model.actions.values.tolist()
    ]
    slope = 1.0 / (1.0 - beta * min(growth))
    assert round(slope, 4) == rounded
    assert model.actions.values[int(np.argmin(growth))] == action
    report = value_iterate(model, risk, 1e-12, 1000)
    assert report.converged
    x = model.grid.points
    low = x <= 1.0
    assert np.max(np.abs(report.converged_value[low] - slope * x[low])) <= 1e-12
    inside = low & (x > 0.0)
    assert np.all(model.actions.values[report.stationary_policy[inside]] == action)


def test_lq_grid_error_falls_by_second_order_under_refinement():
    """For ``x' = x + a + sigma xi`` with cost ``x**2 + a**2``, the
    risk-neutral value is ``p x**2 + q``: ``p = sqrt(2)`` solves
    ``p = 1 + beta p / (1 + beta p)`` at beta 0.5, and ``q = beta p sigma**2
    m2 / (1 - beta)`` with ``m2`` the quantized noise's second moment.  On
    ``|x| <= 1`` the grid solve exceeds it through interpolation and action
    quantization.  Halving the grid spacing and the action step together
    took the largest excess from 0.148 (41 x 9) to 0.0347 (81 x 17), a
    ratio of 4.27 where second order gives 4."""
    beta = 0.5
    p = math.sqrt(2.0)
    assert p == pytest.approx(1.0 + beta * p / (1.0 + beta * p), abs=1e-15)
    errors = []
    for grid_points, n_actions in ((41, 9), (81, 17)):
        params = LQParams(
            sigma=1.0, action_bound=2.0, x_lo=-3.0, x_hi=3.0,
            grid_points=grid_points, n_actions=n_actions, noise_atoms=5,
        )
        model = build_lq(params, beta)
        noise = model.transition.noise.dist
        q = beta * p * params.sigma**2 * float(noise.values**2 @ noise.probs) / (1.0 - beta)
        assert round(q, 5) == 1.08463
        report = value_iterate(model, Expectation(), 1e-8, 1000)
        assert report.converged
        x = model.grid.points
        inside = np.abs(x) <= 1.0
        excess = report.converged_value[inside] - (p * x[inside] ** 2 + q)
        assert excess.min() > 0.0
        errors.append(excess.max())
    assert errors[0] >= 3.0 * errors[1]
