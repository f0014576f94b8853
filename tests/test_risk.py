"""Unit and property tests for the risk functionals.

An exact-arithmetic oracle (fractions.Fraction) recomputes the tail-average
and mean-deviation values by stepwise quantile integration, independently of
the numpy implementation; frozen expected values below were produced by it.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdp.risk import (
    AVaR,
    DiscreteDistribution,
    DualDensity,
    Expectation,
    KusuokaMixture,
    MeanDeviation,
    avar_dual,
    avar_primal,
    density_cap,
    evaluate,
    kusuoka_evaluate,
    mean_deviation_dual,
    _tail_take,
    mean_deviation_primal,
    value_at_risk,
)

TWO_POINT = DiscreteDistribution.from_atoms([(0.0, 0.5), (10.0, 0.5)])


def oracle_tail_average(alpha, atoms):
    """Exact tail-average via Fraction arithmetic: integrate the stepwise
    quantile over (alpha, 1] and divide by 1 - alpha."""
    alpha = Fraction(alpha)
    pairs = sorted(((Fraction(v), Fraction(p)) for v, p in atoms), key=lambda a: a[0])
    total = Fraction(0)
    cum = Fraction(0)
    for v, p in pairs:
        lo = max(cum, alpha)
        hi = cum + p
        if hi > lo:
            total += v * (hi - lo)
        cum = hi
    return total / (1 - alpha)


def oracle_mean_deviation(kappa, atoms):
    """Exact mean plus kappa * mean absolute deviation via Fractions."""
    kappa = Fraction(kappa)
    pairs = [(Fraction(v), Fraction(p)) for v, p in atoms]
    mean = sum(v * p for v, p in pairs)
    dev = sum(abs(v - mean) * p for v, p in pairs)
    return mean + kappa * dev


# ---------------------------------------------------------------------------
# construction and validation


def test_distribution_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        DiscreteDistribution.from_atoms([(0.0, 0.5), (1.0, 0.6)])
    with pytest.raises(ValueError):
        DiscreteDistribution.from_atoms([(0.0, 1.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        DiscreteDistribution.from_atoms([(0.0, 1.5), (1.0, -0.5)])
    with pytest.raises(ValueError):
        DiscreteDistribution.from_atoms([])
    with pytest.raises(ValueError):
        DiscreteDistribution.from_atoms([(np.inf, 1.0)])


@pytest.mark.parametrize(
    "values, probs, message",
    [
        ([0.0, np.nan], [0.5, 0.5], "atom values must be finite"),
        ([np.inf, 0.0], [0.5, 0.5], "atom values must be finite"),
        ([0.0, -np.inf], [0.5, 0.5], "atom values must be finite"),
        ([0.0, 1.0], [np.nan, 1.0], "atom probabilities must be strictly positive"),
        ([0.0, 1.0], [1.0, 0.0], "atom probabilities must be strictly positive"),
        ([0.0, 1.0], [1.5, -0.5], "atom probabilities must be strictly positive"),
        ([0.0, 1.0], [0.5, 0.5 + 2e-12], r"atom probabilities sum to 1\.000000000002, not 1"),
        ([0.0, 1.0], [0.5, 0.5 - 2e-12], "atom probabilities sum to 0.99999999999"),
        ([], [], "distribution needs at least one atom"),
        ([[0.0]], [[1.0]], "values and probs must be 1-d arrays of equal length"),
        ([0.0, 1.0], [1.0], "values and probs must be 1-d arrays of equal length"),
    ],
    ids=[
        "nan-value", "inf-value", "minus-inf-value", "nan-prob", "zero-prob",
        "negative-prob", "sum-high", "sum-low", "empty", "2-d", "lengths",
    ],
)
def test_distribution_checks_each_input_with_its_message(values, probs, message):
    with pytest.raises(ValueError, match=message):
        DiscreteDistribution(np.array(values), np.array(probs))


def test_distribution_accepts_a_sum_within_the_slack():
    d = DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5 + 5e-13]))
    assert d.mean() == 0.5 + 5e-13


def test_distribution_allows_duplicate_atoms():
    d = DiscreteDistribution.from_atoms([(5.0, 0.5), (5.0, 0.5)])
    assert len(d) == 2
    assert d.mean() == 5.0


def test_spec_validation():
    with pytest.raises(ValueError):
        AVaR(1.0)
    with pytest.raises(ValueError):
        AVaR(-0.1)
    with pytest.raises(ValueError):
        MeanDeviation(0.51)
    with pytest.raises(ValueError):
        MeanDeviation(-0.01)
    with pytest.raises(ValueError):
        KusuokaMixture(())
    with pytest.raises(ValueError):
        KusuokaMixture(((0.5, 0.5), (0.2, 0.6)))
    with pytest.raises(ValueError):
        KusuokaMixture(((1.0, 1.0),))
    with pytest.raises(ValueError):
        KusuokaMixture(((0.5, float("nan")),))
    # boundary levels are legal
    AVaR(0.0)
    MeanDeviation(0.5)
    KusuokaMixture(((0.0, 1.0),))


# ---------------------------------------------------------------------------
# quantiles


def test_value_at_risk_two_point():
    assert value_at_risk(0.2, TWO_POINT) == 0.0
    assert value_at_risk(0.5, TWO_POINT) == 0.0
    assert value_at_risk(0.51, TWO_POINT) == 10.0
    assert value_at_risk(1.0, TWO_POINT) == 10.0


def test_value_at_risk_rejects_bad_level():
    with pytest.raises(ValueError):
        value_at_risk(0.0, TWO_POINT)
    with pytest.raises(ValueError):
        value_at_risk(1.1, TWO_POINT)


def test_value_at_risk_unsorted_atoms():
    d = DiscreteDistribution.from_atoms([(3.0, 0.25), (-1.0, 0.25), (2.0, 0.5)])
    assert value_at_risk(0.25, d) == -1.0
    assert value_at_risk(0.75, d) == 2.0
    assert value_at_risk(0.76, d) == 3.0


# ---------------------------------------------------------------------------
# tail-average risk, primal and dual


def test_avar_primal_two_point_frozen():
    assert avar_primal(0.0, TWO_POINT) == pytest.approx(5.0, abs=1e-12)
    assert avar_primal(0.25, TWO_POINT) == pytest.approx(20.0 / 3.0, abs=1e-12)
    assert avar_primal(0.5, TWO_POINT) == pytest.approx(10.0, abs=1e-12)
    # beyond 1 - P(max atom) the tail average sticks at the maximum
    assert avar_primal(0.9, TWO_POINT) == pytest.approx(10.0, abs=1e-12)


def test_avar_primal_matches_exact_oracle():
    atoms = [(4.0, 0.125), (-2.0, 0.375), (7.0, 0.25), (0.5, 0.25)]
    d = DiscreteDistribution.from_atoms(atoms)
    for alpha in (0.0, 0.1, 0.3, 0.375, 0.5, 0.8, 0.95):
        expected = float(oracle_tail_average(alpha, atoms))
        assert avar_primal(alpha, d) == pytest.approx(expected, abs=1e-12)


def test_avar_dual_two_point_frozen():
    value, density = avar_dual(0.25, TWO_POINT)
    assert value == pytest.approx(20.0 / 3.0, abs=1e-12)
    # worst atom takes the full cap 4/3, the rest of the unit mass (1/3)
    # lands on the atom at 0 with weight 2/3
    assert density.weights == pytest.approx([2.0 / 3.0, 4.0 / 3.0], abs=1e-12)
    assert density.mass(TWO_POINT) == pytest.approx(1.0, abs=1e-12)


def test_avar_dual_level_zero_forces_unit_weights():
    value, density = avar_dual(0.0, TWO_POINT)
    assert value == pytest.approx(5.0, abs=1e-12)
    assert density.weights == pytest.approx([1.0, 1.0], abs=1e-12)


def test_avar_dual_tie_splits_in_input_order():
    d = DiscreteDistribution.from_atoms([(5.0, 0.5), (5.0, 0.5)])
    _, density = avar_dual(0.5, d)
    # cap is 2; the first of the tied atoms absorbs the whole budget
    assert density.weights == pytest.approx([2.0, 0.0], abs=1e-12)


def test_avar_rejects_bad_level():
    for fn in (avar_primal, avar_dual):
        with pytest.raises(ValueError):
            fn(1.0, TWO_POINT)
        with pytest.raises(ValueError):
            fn(-0.2, TWO_POINT)


# ---------------------------------------------------------------------------
# mean-deviation risk


def test_mean_deviation_frozen():
    d = DiscreteDistribution.from_atoms([(0.0, 0.5), (2.0, 0.5)])
    assert mean_deviation_primal(0.5, d) == pytest.approx(1.5, abs=1e-12)
    value, density = mean_deviation_dual(0.5, d)
    assert value == pytest.approx(1.5, abs=1e-12)
    # h = (-1/2, +1/2) has zero mean, so the weights are 1 + h
    assert density.weights == pytest.approx([0.5, 1.5], abs=1e-12)
    assert density.mass(d) == pytest.approx(1.0, abs=1e-12)


def test_mean_deviation_zero_kappa_is_expectation():
    d = DiscreteDistribution.from_atoms([(1.0, 0.25), (3.0, 0.75)])
    assert mean_deviation_primal(0.0, d) == pytest.approx(d.mean(), abs=1e-12)


def test_mean_deviation_matches_exact_oracle():
    atoms = [(1.5, 0.125), (-4.0, 0.5), (2.0, 0.375)]
    d = DiscreteDistribution.from_atoms(atoms)
    for kappa in (0.0, 0.25, 0.5):
        expected = float(oracle_mean_deviation(kappa, atoms))
        assert mean_deviation_primal(kappa, d) == pytest.approx(expected, abs=1e-12)
        value, _ = mean_deviation_dual(kappa, d)
        assert value == pytest.approx(expected, abs=1e-12)


def test_mean_deviation_rejects_bad_kappa():
    for fn in (mean_deviation_primal, mean_deviation_dual):
        with pytest.raises(ValueError):
            fn(0.6, TWO_POINT)
        with pytest.raises(ValueError):
            fn(-0.1, TWO_POINT)


# ---------------------------------------------------------------------------
# mixture families


def test_kusuoka_point_mass_frozen():
    assert kusuoka_evaluate([[(0.5, 1.0)]], TWO_POINT) == pytest.approx(10.0, abs=1e-12)


def test_kusuoka_mixture_frozen():
    value = kusuoka_evaluate([[(0.0, 0.5), (0.5, 0.5)]], TWO_POINT)
    assert value == pytest.approx(7.5, abs=1e-12)


def test_kusuoka_family_maximum():
    family = [[(0.0, 1.0)], [(0.5, 1.0)], [(0.0, 0.5), (0.5, 0.5)]]
    assert kusuoka_evaluate(family, TWO_POINT) == pytest.approx(10.0, abs=1e-12)


def test_kusuoka_rejects_bad_family():
    with pytest.raises(ValueError):
        kusuoka_evaluate([], TWO_POINT)
    with pytest.raises(ValueError):
        kusuoka_evaluate([[(0.5, 0.5)]], TWO_POINT)


# ---------------------------------------------------------------------------
# dispatch


def test_evaluate_dispatch():
    assert evaluate(Expectation(), TWO_POINT) == pytest.approx(5.0, abs=1e-12)
    assert evaluate(AVaR(0.5), TWO_POINT) == pytest.approx(10.0, abs=1e-12)
    md = DiscreteDistribution.from_atoms([(0.0, 0.5), (2.0, 0.5)])
    assert evaluate(MeanDeviation(0.5), md) == pytest.approx(1.5, abs=1e-12)
    mix = KusuokaMixture(((0.0, 0.5), (0.5, 0.5)))
    assert evaluate(mix, TWO_POINT) == pytest.approx(7.5, abs=1e-12)


def test_density_cap():
    assert density_cap(Expectation()) == 1.0
    assert density_cap(AVaR(0.5)) == pytest.approx(2.0)
    assert density_cap(MeanDeviation(0.5)) == pytest.approx(2.0)
    assert density_cap(KusuokaMixture(((0.0, 0.5), (0.5, 0.5)))) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# property tests


def atoms_strategy(max_atoms=12, lo=-1e4, hi=1e4):
    value = st.floats(min_value=lo, max_value=hi, allow_nan=False, width=64)
    weight = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
    return st.lists(st.tuples(value, weight), min_size=1, max_size=max_atoms)


def build(atom_list):
    values = np.array([v for v, _ in atom_list])
    weights = np.array([w for _, w in atom_list])
    return DiscreteDistribution(values, weights / weights.sum())


levels = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
kappas = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(atoms_strategy(), levels)
def test_property_avar_primal_equals_dual(atom_list, alpha):
    d = build(atom_list)
    primal = avar_primal(alpha, d)
    dual_value, density = avar_dual(alpha, d)
    assert abs(primal - dual_value) <= 1e-9
    cap = 1.0 / (1.0 - alpha)
    assert abs(density.mass(d) - 1.0) <= 1e-9
    assert np.all(density.weights >= -1e-12)
    assert np.all(density.weights <= cap + 1e-9)


@settings(max_examples=200, deadline=None)
@given(atoms_strategy(), levels)
def test_property_avar_matches_exact_oracle(atom_list, alpha):
    d = build(atom_list)
    expected = float(oracle_tail_average(alpha, zip(d.values.tolist(), d.probs.tolist())))
    assert abs(avar_primal(alpha, d) - expected) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(atoms_strategy(), levels, st.floats(min_value=-100, max_value=100))
def test_property_avar_translation(atom_list, alpha, shift):
    d = build(atom_list)
    shifted = DiscreteDistribution(d.values + shift, d.probs)
    assert abs(avar_primal(alpha, shifted) - (avar_primal(alpha, d) + shift)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(atoms_strategy(), levels, st.floats(min_value=0.0, max_value=4.0))
def test_property_avar_positive_homogeneity(atom_list, alpha, scale):
    d = build(atom_list)
    scaled = DiscreteDistribution(scale * d.values, d.probs)
    assert abs(avar_primal(alpha, scaled) - scale * avar_primal(alpha, d)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(atoms_strategy())
def test_property_avar_monotone_in_level(atom_list):
    d = build(atom_list)
    values = [avar_primal(a, d) for a in np.linspace(0.0, 0.95, 12)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9
    # the level-zero value is the expectation and the limit is the maximum
    assert abs(values[0] - d.mean()) <= 1e-9
    assert values[-1] <= d.values.max() + 1e-9


@settings(max_examples=200, deadline=None)
@given(atoms_strategy(max_atoms=6), levels, kappas)
def test_property_atom_splitting_invariance(atom_list, alpha, kappa):
    d = build(atom_list)
    split = DiscreteDistribution(
        np.repeat(d.values, 2), np.repeat(d.probs / 2.0, 2)
    )
    assert abs(avar_primal(alpha, split) - avar_primal(alpha, d)) <= 1e-9
    assert abs(
        mean_deviation_primal(kappa, split) - mean_deviation_primal(kappa, d)
    ) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(atoms_strategy(), kappas)
def test_property_mean_deviation_primal_equals_dual(atom_list, kappa):
    d = build(atom_list)
    primal = mean_deviation_primal(kappa, d)
    dual_value, density = mean_deviation_dual(kappa, d)
    assert abs(primal - dual_value) <= 1e-9
    assert abs(density.mass(d) - 1.0) <= 1e-9
    assert np.all(density.weights >= -1e-12)
    assert np.all(density.weights <= 1.0 + 2.0 * kappa + 1e-12)


@settings(max_examples=200, deadline=None)
@given(atoms_strategy(), levels, kappas)
def test_property_risk_dominates_expectation(atom_list, alpha, kappa):
    d = build(atom_list)
    mean = d.mean()
    assert avar_primal(alpha, d) >= mean - 1e-9
    assert mean_deviation_primal(kappa, d) >= mean - 1e-9
    assert kusuoka_evaluate([[(alpha, 1.0)], [(0.0, 1.0)]], d) >= mean - 1e-9


@settings(max_examples=200, deadline=None)
@given(atoms_strategy(), levels)
def test_property_kusuoka_point_mass_is_tail_average(atom_list, alpha):
    d = build(atom_list)
    assert abs(kusuoka_evaluate([[(alpha, 1.0)]], d) - avar_primal(alpha, d)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    atoms_strategy(),
    st.lists(st.tuples(levels, st.floats(0.1, 1.0)), min_size=1, max_size=4),
)
def test_property_mixture_evaluates_as_its_one_member_family(atom_list, parts):
    """``evaluate`` sums a validated mixture's components directly; the
    raw-family route re-validates them and must give the same float."""
    d = build(atom_list)
    weights = np.array([w for _, w in parts])
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    mix = KusuokaMixture(tuple(zip([a for a, _ in parts], weights.tolist())))
    assert evaluate(mix, d) == kusuoka_evaluate([mix.components], d)


def test_a_nan_mixture_member_makes_the_family_nan():
    """Two atoms at the largest float, with probabilities summing to one
    within the slack, make the level-0 tail average overflow to inf, so the
    mixture ((0, 0.0), (0.5, 1.0)) is ``0 * inf + ...``, NaN.  The family's
    maximum is NaN wherever that member stands, not the -inf that Python's
    ``max`` left after dropping it."""
    big = sys.float_info.max
    d = DiscreteDistribution(np.array([big, big]), np.array([0.5 + 4e-13, 0.5 + 4e-13]))
    mix = KusuokaMixture(((0.0, 0.0), (0.5, 1.0)))
    assert math.isnan(evaluate(mix, d))
    assert math.isnan(kusuoka_evaluate([mix.components], d))
    assert avar_primal(0.5, d) == big
    for family in ([[(0.5, 1.0)], mix.components], [mix.components, [(0.5, 1.0)]]):
        assert math.isnan(kusuoka_evaluate(family, d))


@settings(max_examples=200, deadline=None)
@given(atoms_strategy())
def test_property_value_at_risk_step_function(atom_list):
    d = build(atom_list)
    supported = set(d.values.tolist())
    previous = -np.inf
    for p in np.linspace(0.05, 1.0, 11):
        q = value_at_risk(float(p), d)
        assert q in supported
        assert q >= previous
        previous = q


@settings(max_examples=200, deadline=None)
@given(atoms_strategy(), levels)
def test_property_tail_average_endpoint_is_maximum(atom_list, alpha):
    d = build(atom_list)
    top = float(d.values.max())
    p_top = float(d.probs[d.values == top].sum())
    if alpha >= 1.0 - p_top:
        assert abs(avar_primal(alpha, d) - top) <= 1e-9


# ---------------------------------------------------------------------------
# 1-d dot products: ``ndarray.dot`` against the ``@`` forms it replaced


def bits(x):
    return np.float64(x).tobytes()


def matmul_avar_primal(alpha, dist):
    """``avar_primal`` with every dot product taken by ``@``."""
    if alpha == 0.0:
        return float(dist.values @ dist.probs)
    if dist._ascending:
        values, probs = dist.values[::-1].copy(), dist.probs[::-1]
    else:
        order = (-dist.values).argsort(kind="stable")
        values, probs = dist.values[order], dist.probs[order]
    return float(values @ _tail_take(alpha, probs)) / (1.0 - alpha)


def matmul_mean_deviation_primal(kappa, dist):
    mean = float(dist.values @ dist.probs)
    return mean + kappa * float(np.abs(dist.values - mean) @ dist.probs)


def matmul_mean_deviation_dual(kappa, dist):
    mean = float(dist.values @ dist.probs)
    h = kappa * np.sign(dist.values - mean)
    weights = 1.0 + h - float(h @ dist.probs)
    return float((weights * dist.probs) @ dist.values), weights


def matmul_evaluate(spec, dist):
    if isinstance(spec, Expectation):
        return float(dist.values @ dist.probs)
    if isinstance(spec, AVaR):
        return matmul_avar_primal(spec.alpha, dist)
    if isinstance(spec, MeanDeviation):
        return matmul_mean_deviation_primal(spec.kappa, dist)
    return sum(w * matmul_avar_primal(a, dist) for a, w in spec.components)


@st.composite
def dot_cases(draw):
    """A distribution, unsorted with ties or marked ascending as a successor
    distribution is, and a risk specification of each kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 79))
    values = rng.uniform(-1e3, 1e3, size=k).round(draw(st.sampled_from([0, 3, 12])))
    probs = rng.uniform(0.05, 1.0, size=k)
    if draw(st.booleans()):
        values = np.unique(values)
        probs = probs[: len(values)]
        dist = DiscreteDistribution._from_ascending(values, probs / probs.sum(), values.tolist())
    else:
        dist = DiscreteDistribution(values, probs / probs.sum())
    alpha = draw(st.sampled_from([0.0, 0.5]) | levels)
    kappa = draw(kappas)
    levels_drawn = draw(st.lists(levels, min_size=1, max_size=3))
    weights = rng.uniform(0.1, 1.0, size=len(levels_drawn))
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    specs = (
        Expectation(),
        AVaR(alpha),
        MeanDeviation(kappa),
        KusuokaMixture(tuple(zip(levels_drawn, weights.tolist()))),
    )
    return dist, alpha, kappa, specs


@settings(max_examples=300, deadline=None)
@given(dot_cases())
def test_dot_kernels_equal_their_matmul_forms_bit_for_bit(case):
    dist, alpha, kappa, specs = case
    assert bits(avar_primal(alpha, dist)) == bits(matmul_avar_primal(alpha, dist))
    for spec in specs:
        assert bits(evaluate(spec, dist)) == bits(matmul_evaluate(spec, dist))
    assert bits(dist.mean()) == bits(dist.values @ dist.probs)
    assert bits(mean_deviation_primal(kappa, dist)) == bits(
        matmul_mean_deviation_primal(kappa, dist)
    )
    value, density = mean_deviation_dual(kappa, dist)
    expected_value, expected_weights = matmul_mean_deviation_dual(kappa, dist)
    assert bits(value) == bits(expected_value)
    assert density.weights.tobytes() == expected_weights.tobytes()
    weights = np.random.default_rng(len(dist)).uniform(0.0, 3.0, size=len(dist))
    density = DualDensity(weights)
    assert bits(density.mass(dist)) == bits(weights @ dist.probs)
    assert bits(density.expectation(dist)) == bits((weights * dist.probs) @ dist.values)


def test_a_reversed_view_distribution_sums_as_its_contiguous_copy():
    """A distribution may hold negative-stride views.  ``@`` sums such a
    view in another order than a contiguous copy, so its last bits depended
    on the memory layout; numpy's ``dot`` copies a negative-stride operand
    before its BLAS call, so it sums the view as the copy."""
    rng = np.random.default_rng(5)
    differs_from_matmul = 0
    for k in range(1, 80):
        for _ in range(20):
            values = rng.standard_normal(k) * 100.0
            probs = rng.uniform(0.05, 1.0, size=k)
            probs /= probs.sum()
            view = DiscreteDistribution(values[::-1], probs[::-1])
            assert view.values.strides[0] < 0
            copy = DiscreteDistribution(values[::-1].copy(), probs[::-1].copy())
            for got, expected in (
                (view.mean(), copy.mean()),
                (evaluate(Expectation(), view), evaluate(Expectation(), copy)),
                (mean_deviation_primal(0.3, view), mean_deviation_primal(0.3, copy)),
                (avar_primal(0.4, view), avar_primal(0.4, copy)),
            ):
                assert bits(got) == bits(expected)
            matmul = float(view.values @ view.probs)
            assert abs(view.mean() - matmul) <= 1e-12 * np.abs(values).max()
            differs_from_matmul += view.mean() != matmul
    # the case is not vacuous: ``@`` on the view does sum differently
    assert differs_from_matmul > 0


def test_dual_density_rejects_bad_weights_with_its_messages():
    with pytest.raises(ValueError, match="weights must be a 1-d array"):
        DualDensity(np.ones((2, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            DualDensity(np.array([1.0, bad, 0.5]))
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        DualDensity(np.array([1.0, -1e-14]))
    # the rounding slack below zero is kept
    assert DualDensity(np.array([1.0, -1e-16])).weights[1] == -1e-16
