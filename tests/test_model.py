"""Tests for grids, noise quantization, interpolation, and model builders."""

import re
import sys
import warnings

import numpy as np
import pytest
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
    _uniform_grid,
    build_investment,
    build_lq,
    build_tabular,
    interpolate,
    quantize_standard_normal,
    successor_distribution,
)
from riskdp.risk import PROB_TOL, DiscreteDistribution, DualDensity, avar_primal

# ---------------------------------------------------------------------------
# grids and action sets


def test_state_grid_validation():
    with pytest.raises(ValueError):
        StateGrid(np.array([1.0]))
    with pytest.raises(ValueError):
        StateGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        StateGrid(np.array([1.0, 0.0]))
    grid = StateGrid(np.array([0.0, 0.5, 2.0]))
    assert grid.lo == 0.0 and grid.hi == 2.0
    assert grid.nearest_index(0.6) == 1
    assert len(grid) == 3


def test_grid_points_are_a_read_only_copy():
    """The brackets a model caches hold only for the points they were made
    on, so the grid keeps its own read-only copy of the caller's array."""
    caller = np.linspace(-1.0, 1.0, 5)
    grid = StateGrid(caller)
    caller[0] = -7.0  # the caller's array stays writable
    assert grid.points[0] == -1.0
    model = build_lq(LQParams(1.0, 1.0, -1.0, 1.0, 5, 3, 3), 0.5)
    with pytest.raises(ValueError, match="read-only"):
        model.grid.points[2] = 0.5


def test_cached_successor_arrays_are_read_only(two_state_model):
    model = build_lq(LQParams(1.0, 1.0, -1.0, 1.0, 5, 3, 3), 0.5)
    # two of the three successors clamp at the top and merge; the top grid
    # point brackets as lo == hi with a zero weight
    query, probs, inverse, group_probs = model._successor_support(4, 2)
    assert len(group_probs) < len(inverse)
    assert query.lo[-1] == query.hi[-1] == 4 and query.frac[-1] == 0.0
    for array in (query.lo, query.hi, query.frac, probs, inverse, group_probs):
        assert not array.flags.writeable
    indices, probs = two_state_model._successor_support(0, 1)
    assert not indices.flags.writeable and not probs.flags.writeable


def test_action_set_admissibility():
    acts = ActionSet(np.array([-1.0, 0.0, 1.0]), admissible=((0, 2), (1,), (0, 1, 2)))
    assert acts.indices_for(0) == (0, 2)
    assert acts.indices_for(1) == (1,)
    default = ActionSet(np.array([-1.0, 1.0]))
    assert default.indices_for(5) == (0, 1)
    with pytest.raises(ValueError):
        ActionSet(np.array([0.0]), admissible=((),))
    with pytest.raises(ValueError):
        ActionSet(np.array([0.0]), admissible=((3,),))
    with pytest.raises(ValueError):
        ActionSet(np.array([]))


@pytest.mark.parametrize(
    "admissible, message",
    [
        (((0, 1.5), (True,)), "state 0 lists action index 1.5"),
        (((0, 1), (True,)), "state 1 lists action index True"),
        (((np.True_,),), "state 0 lists action index np.True_"),
        (((-0.5,),), "state 0 lists action index -0.5"),
        (((0, float("nan")),), "state 0 lists action index nan"),
        (((0, "1"),), "state 0 lists action index '1'"),
    ],
    ids=["fraction", "bool", "numpy-bool", "negative-fraction", "nan", "string"],
)
def test_admissible_action_indices_must_be_integers(admissible, message):
    """``int`` would truncate a fraction and read a boolean as 0 or 1, so
    ``-0.5`` used to be reported as a repeated index and ``(True,)`` to
    allow action 1; each is now rejected, naming the state."""
    with pytest.raises(ValueError, match=re.escape(message) + ", which is not an integer"):
        ActionSet(np.array([0.0, 1.0]), admissible=admissible)


def test_integral_action_indices_of_any_type_read_as_ints():
    mask = ((np.int8(1), 0.0), (np.uint64(1),), (1.0, np.float32(0.0)))
    assert ActionSet(np.array([0.0, 1.0]), admissible=mask).admissible == ((0, 1), (1,), (0, 1))


# ---------------------------------------------------------------------------
# noise quantization


def test_quantize_single_atom():
    noise = quantize_standard_normal(1)
    assert noise.dist.values.tolist() == [0.0]
    assert noise.dist.probs.tolist() == [1.0]


def test_quantize_two_atoms_frozen():
    noise = quantize_standard_normal(2)
    assert noise.dist.values == pytest.approx(
        [-0.6744897501960817, 0.6744897501960817], abs=1e-15
    )
    assert noise.dist.probs.tolist() == [0.5, 0.5]


def test_quantize_five_atoms_frozen():
    noise = quantize_standard_normal(5)
    expected = [
        -1.2815515655446008,
        -0.5244005127080407,
        0.0,
        0.5244005127080407,
        1.2815515655446008,
    ]
    assert noise.dist.values == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("k", range(1, 14))
def test_quantize_symmetry_and_zero_mean(k):
    noise = quantize_standard_normal(k)
    values = noise.dist.values
    # exact mirror symmetry makes the mean exactly zero
    assert np.all(values + values[::-1] == 0.0)
    assert abs(float(values @ noise.dist.probs)) <= 1e-12
    assert np.all(np.diff(values) > 0.0) or k == 1


def test_quantize_rejects_zero_atoms():
    with pytest.raises(ValueError):
        quantize_standard_normal(0)


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_frozen_examples():
    grid = StateGrid(np.array([0.0, 1.0, 2.0]))
    values = np.array([0.0, 10.0, 20.0])
    assert interpolate(grid, values, 0.5) == pytest.approx(5.0, abs=1e-12)
    assert interpolate(grid, values, 2.5) == 20.0
    assert interpolate(grid, values, -1.0) == 0.0


def test_interpolate_exact_on_grid_points():
    grid = StateGrid(np.array([0.0, 0.3, 1.1, 2.0]))
    values = np.array([3.0, -0.0, 7.7, 1.3])
    for p, v in zip(grid.points, values):
        assert interpolate(grid, values, float(p)) == v


def test_interpolate_array_queries():
    grid = StateGrid(np.array([0.0, 1.0, 2.0]))
    values = np.array([0.0, 10.0, 20.0])
    out = interpolate(grid, values, np.array([0.25, 1.5, 99.0]))
    assert out == pytest.approx([2.5, 15.0, 20.0], abs=1e-12)


def test_interpolate_rejects_misaligned_values():
    grid = StateGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        interpolate(grid, np.array([0.0, 1.0, 2.0]), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_interpolate_rejects_non_finite_values_before_reading_them(bad):
    grid = StateGrid(np.array([0.0, 1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.5, 2.0, np.array([0.0, 1.5])):
            with pytest.raises(ValueError, match="values must be finite"):
                interpolate(grid, np.array([0.0, bad, 0.0]), x)


def test_interpolate_rejects_a_nan_query_and_clamps_infinite_ones():
    grid = StateGrid(np.array([0.0, 1.0, 2.0]))
    values = np.array([1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.nan, np.float64(np.nan), np.array(np.nan), np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="query x must not be NaN"):
                interpolate(grid, values, x)
        assert interpolate(grid, values, np.inf) == 3.0
        assert interpolate(grid, values, -np.inf) == 1.0
        assert interpolate(grid, values, np.array([-np.inf, 0.5, np.inf])).tolist() == [1.0, 1.5, 3.0]


def test_interpolate_reads_values_whose_difference_overflows():
    """``v[lo] + frac * (v[hi] - v[lo])`` reads NaN and inf here."""
    grid = StateGrid(np.array([0.0, 1.0, 2.0]))
    values = np.array([-1e308, 1e308, 0.0])
    top = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert interpolate(grid, values, 0.0) == -1e308
        assert interpolate(grid, values, 0.5) == 0.0
        assert interpolate(grid, values, 1.0) == 1e308
        out = interpolate(grid, np.array([-top, top, -top]), np.linspace(0.0, 2.0, 9))
    want = [-top, -top / 2, 0.0, top / 2, top, top / 2, 0.0, -top / 2, -top]
    assert out.tolist() == pytest.approx(want, rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from([sys.float_info.max, -sys.float_info.max, 1e308, -1e308, -0.0])
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=8),
)
def test_interpolate_is_finite_and_within_its_bracket_on_finite_values(values, xs):
    grid = StateGrid(np.array([0.0, 1.0, 2.0]))
    values = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = interpolate(grid, values, np.array(xs))
    for x, y in zip(np.clip(xs, 0.0, 2.0), out):
        lo, hi = values[int(min(x, 1.0))], values[min(int(x) + 1, 2)]
        assert min(lo, hi) <= y <= max(lo, hi)


def test_interpolate_bounded_by_bracket(seed=7):
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(-5, 5, size=9))
    points += np.arange(9) * 1e-6  # ensure strictly increasing
    grid = StateGrid(points)
    values = rng.uniform(0, 10, size=9)
    for x in rng.uniform(-6, 6, size=200):
        y = interpolate(grid, values, float(x))
        assert values.min() - 1e-12 <= y <= values.max() + 1e-12


# ---------------------------------------------------------------------------
# successor distributions


def two_state_model(kernel=None, costs=None, discount=0.5):
    if kernel is None:
        kernel = [
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ]
    if costs is None:
        costs = [[1.0, 1.0], [0.0, 0.0]]
    return build_tabular(kernel, costs, discount)


def test_successor_tabular_frozen():
    kernel = [
        [[0.3, 0.7], [1.0, 0.0]],
        [[0.5, 0.5], [0.0, 1.0]],
    ]
    model = build_tabular(kernel, [[0.0, 0.0], [0.0, 0.0]], 0.5)
    dist = successor_distribution(model, 0, 0, np.array([1.0, 2.0]))
    assert dist.values.tolist() == [1.0, 2.0]
    assert dist.probs.tolist() == [0.3, 0.7]


def test_successor_zero_values_merge_to_point_mass():
    model = two_state_model()
    dist = successor_distribution(model, 0, 0, np.zeros(2))
    assert dist.values.tolist() == [0.0]
    assert dist.probs.tolist() == [1.0]


def test_successor_dynamics_identity_values():
    params = LQParams(
        sigma=1.0, action_bound=1.0, x_lo=-2.0, x_hi=2.0,
        grid_points=41, n_actions=3, noise_atoms=2,
    )
    model = build_lq(params, 0.5)
    state_index = 30  # x = 1.0
    assert model.grid.points[state_index] == pytest.approx(1.0, abs=1e-12)
    action_index = 0  # a = -1.0
    v_next = model.grid.points.copy()  # identity values interpolate exactly
    dist = successor_distribution(model, state_index, action_index, v_next)
    z = 0.6744897501960817
    assert dist.values == pytest.approx([-z, z], abs=1e-12)
    assert dist.probs.tolist() == [0.5, 0.5]


def test_successor_dynamics_merges_coincident_states():
    params = LQParams(
        sigma=0.0, action_bound=1.0, x_lo=-2.0, x_hi=2.0,
        grid_points=5, n_actions=3, noise_atoms=4,
    )
    model = build_lq(params, 0.5)
    dist = successor_distribution(model, 2, 2, np.arange(5.0))
    # sigma == 0 collapses every noise atom onto x + a
    assert len(dist) == 1
    assert dist.probs.tolist() == [1.0]


def test_successor_rejects_bad_inputs():
    model = two_state_model()
    with pytest.raises(ValueError):
        successor_distribution(model, 5, 0, np.zeros(2))
    with pytest.raises(ValueError):
        successor_distribution(model, 0, 0, np.zeros(3))
    with pytest.raises(ValueError):
        successor_distribution(model, 0, 0, np.array([np.nan, 0.0]))


# inf - inf in the interpolation warns on the way to the rejection
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_successor_rejects_a_non_finite_value_the_pair_reads(bad):
    # state 1, action 1 moves to state 1 only
    v_next = np.array([0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        successor_distribution(two_state_model(), 1, 1, v_next)
    params = LQParams(
        sigma=0.5, action_bound=1.0, x_lo=-2.0, x_hi=2.0,
        grid_points=5, n_actions=3, noise_atoms=2,
    )
    model = build_lq(params, 0.5)
    # from x = 0 with a = 0 both successors lie within one grid step of 0;
    # from x = 2 with a = 1 both are clamped onto the last grid point
    for state_index, action_index, read in ((2, 1, 2), (4, 2, 4)):
        v_next = np.zeros(5)
        v_next[read] = bad
        with pytest.raises(ValueError, match="finite"):
            successor_distribution(model, state_index, action_index, v_next)


def test_successor_rejects_inadmissible_action():
    grid = StateGrid(np.array([0.0, 1.0]))
    actions = ActionSet(np.array([0.0, 1.0]), admissible=((0,), (0, 1)))
    kernel = Tabular(np.full((2, 2, 2), 0.5))
    model = MarkovModel(grid, actions, kernel, lambda x, a: 0.0, 0.5)
    with pytest.raises(ValueError):
        successor_distribution(model, 0, 1, np.zeros(2))


def test_successor_output_is_valid_distribution():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, m = 4, 2
        kernel = rng.dirichlet(np.ones(n), size=(n, m))
        costs = rng.uniform(0, 1, size=(n, m))
        model = build_tabular(kernel, costs, 0.5)
        v = rng.uniform(0, 5, size=n)
        for i in range(n):
            for a in range(m):
                dist = successor_distribution(model, i, a, v)
                assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
                assert np.all(dist.probs > 0.0)


# ---------------------------------------------------------------------------
# builders


def test_build_investment_dynamics():
    params = InvestmentParams(
        mu=0.05, r=0.1, sigma=0.2, action_bound=1.0,
        wealth_lo=0.0, wealth_hi=2.0, grid_points=21, n_actions=5, noise_atoms=3,
    )
    model = build_investment(params, 0.9)
    # the zero action earns the risk-free rate deterministically
    assert model.transition.next_state(1.0, 0.0, 0.7) == pytest.approx(1.1, abs=1e-12)
    # stage cost is wealth itself
    assert model.cost(1.3, -0.5) == 1.3
    # full risky allocation follows the noisy return
    got = model.transition.next_state(1.0, 1.0, 0.5)
    assert got == pytest.approx(1.0 * (1.0 + 0.05 + 0.2 * 0.5), abs=1e-12)


def test_build_investment_zero_rate_keeps_wealth_constant():
    params = InvestmentParams(
        mu=0.05, r=0.0, sigma=0.2, action_bound=1.0,
        wealth_lo=0.0, wealth_hi=2.0, grid_points=21, n_actions=5, noise_atoms=3,
    )
    model = build_investment(params, 0.9)
    for xi in (-1.0, 0.0, 2.0):
        assert model.transition.next_state(1.0, 0.0, xi) == 1.0


def test_build_investment_rejects_negative_wealth_grid():
    with pytest.raises(ValueError):
        InvestmentParams(
            mu=0.05, r=0.0, sigma=0.2, action_bound=1.0,
            wealth_lo=-0.5, wealth_hi=2.0, grid_points=11, n_actions=3, noise_atoms=2,
        )


def test_parametric_models_reject_a_grid_width_that_overflows():
    """The width ``hi - lo`` is checked before any grid is built, where
    ``np.linspace`` would warn and make NaN points."""
    top = sys.float_info.max
    for lo, hi in ((-1e308, 1e308), (-top, top), (-np.inf, 0.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match=r"state grid width x_hi - x_lo must be finite"):
            LQParams(1.0, 1.0, lo, hi, 5, 3, 3)
    with pytest.raises(ValueError, match="wealth grid width wealth_hi - wealth_lo must be finite"):
        InvestmentParams(0.05, 0.0, 0.2, 1.0, 0.0, np.inf, 5, 3, 3)
    # a finite width whose last step rounds past the largest float builds
    # its grid with no warning, ending exactly at ``hi``
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        up = _uniform_grid(0.0, top, 7).points
        down = _uniform_grid(-top, 0.0, 7).points
    assert np.isfinite(up).all() and up[-1] == top
    assert np.isfinite(down).all() and (down[0], down[-1]) == (-top, 0.0)


def test_parametric_models_reject_an_action_range_that_overflows():
    """``np.linspace(-b, b, n)`` warns and makes NaN actions once ``2 * b``
    overflows; a single action sits at zero whatever the bound."""
    with pytest.raises(ValueError, match=r"action range 2 \* action_bound must be finite"):
        LQParams(1.0, 1e308, -2.0, 2.0, 5, 3, 3)
    with pytest.raises(ValueError, match=r"action range 2 \* action_bound must be finite"):
        InvestmentParams(0.05, 0.0, 0.2, 1e308, 0.0, 2.0, 5, 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lq = build_lq(LQParams(1.0, 1e308, -2.0, 2.0, 5, 1, 3), 0.5)
        wealth = build_investment(InvestmentParams(0.05, 0.0, 0.2, 1e308, 0.0, 2.0, 5, 1, 3), 0.5)
    assert lq.actions.values.tolist() == wealth.actions.values.tolist() == [0.0]


def test_parametric_models_have_a_successor_atom_budget():
    from riskdp.model import MAX_SUCCESSOR_ATOMS, MAX_SUCCESSOR_PAIRS

    # the largest benchmark-scale config (1001 x 41 x 15) stays admitted
    LQParams(1.0, 2.0, -3.0, 3.0, 1001, 41, 15)
    assert 1001 * 41 * 15 <= MAX_SUCCESSOR_ATOMS
    assert 1001 * 41 <= MAX_SUCCESSOR_PAIRS
    with pytest.raises(ValueError, match="successor atoms"):
        LQParams(1.0, 2.0, -3.0, 3.0, MAX_SUCCESSOR_ATOMS, 2, 1)
    with pytest.raises(ValueError, match="successor atoms"):
        InvestmentParams(0.05, 0.0, 0.2, 1.0, 0.0, 2.0, 10 ** 3, 10 ** 3, 11)
    # one noise atom keeps the atom count low; the pair count still bounds
    # the cost table, the successor cache and each sweep
    LQParams(1.0, 2.0, -3.0, 3.0, MAX_SUCCESSOR_PAIRS, 1, 1)
    with pytest.raises(ValueError, match=r"\(state, action\) pairs"):
        LQParams(1.0, 2.0, -3.0, 3.0, MAX_SUCCESSOR_PAIRS, 2, 1)
    with pytest.raises(ValueError, match=r"\(state, action\) pairs"):
        InvestmentParams(0.05, 0.0, 0.2, 1.0, 0.0, 2.0, 10 ** 4, 10 ** 3, 1)


def test_build_investment_rejects_an_overflowing_growth_factor():
    with pytest.raises(ValueError, match="growth factor"):
        build_investment(InvestmentParams(1e308, -1e308, 0.2, 1.0, 0.0, 2.0, 5, 3, 3), 0.9)


def test_build_lq_dynamics():
    params = LQParams(
        sigma=1.0, action_bound=2.0, x_lo=-3.0, x_hi=3.0,
        grid_points=41, n_actions=9, noise_atoms=5,
    )
    model = build_lq(params, 0.5)
    assert model.transition.next_state(1.0, -1.0, 0.0) == 0.0
    assert model.cost(1.0, -1.0) == 2.0
    # the model clamps successors at the grid edges
    assert model.clamp(model.transition.next_state(3.0, 2.0, 3.0)) == 3.0
    assert model.clamp(model.transition.next_state(-3.0, -2.0, -3.0)) == -3.0
    assert len(model.grid) == 41
    assert model.actions.values.tolist() == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]


def test_build_tabular_embeds_indices():
    model = two_state_model()
    assert model.grid.points.tolist() == [0.0, 1.0]
    assert model.actions.values.tolist() == [0.0, 1.0]
    assert model.cost_at(0, 1) == 1.0
    assert model.cost_at(1, 0) == 0.0


def test_build_tabular_rejects_bad_rows():
    kernel = [
        [[0.3, 0.6], [1.0, 0.0]],  # state 0, action 0 sums to 0.9
        [[0.5, 0.5], [0.0, 1.0]],
    ]
    with pytest.raises(ValueError, match="state 0, action 0"):
        build_tabular(kernel, [[0.0, 0.0], [0.0, 0.0]], 0.5)
    with pytest.raises(ValueError):
        build_tabular(np.full((2, 2, 3), 0.5), [[0.0, 0.0], [0.0, 0.0]], 0.5)


@pytest.mark.parametrize(
    "offset, accepted",
    [(2 * PROB_TOL, False), (-2 * PROB_TOL, False), (PROB_TOL / 2, True), (-PROB_TOL / 2, True)],
    ids=["twice-the-slack-high", "twice-the-slack-low", "half-the-slack-high", "half-the-slack-low"],
)
def test_tabular_rows_sum_to_one_within_prob_tol(offset, accepted):
    """``Tabular`` is the one check of a tabular model's probabilities: a row
    off by twice ``PROB_TOL`` is rejected, and one off by half of it builds a
    model whose successor reads take the row as it is."""
    kernel = [[[0.5, 0.5 + offset], [1.0, 0.0]], [[0.5, 0.5], [0.0, 1.0]]]
    if not accepted:
        with pytest.raises(ValueError, match="state 0, action 0 sums to"):
            Tabular(np.array(kernel))
        return
    model = build_tabular(kernel, [[0.0, 0.0], [0.0, 0.0]], 0.5)
    dist = successor_distribution(model, 0, 0, np.array([1.0, 2.0]))
    assert dist.probs.tolist() == [0.5, 0.5 + offset]


def test_tabular_keeps_a_read_only_copy_of_the_kernel():
    kernel = np.full((2, 2, 2), 0.5)
    model = build_tabular(kernel, np.zeros((2, 2)), 0.5)
    kernel[0, 0] = [5.0, -4.0]
    assert not model.transition.kernel.flags.writeable
    assert successor_distribution(model, 0, 0, np.array([1.0, 2.0])).probs.tolist() == [0.5, 0.5]


def test_a_late_write_to_the_noise_arrays_reaches_neither_distribution_nor_model():
    """The probabilities every dynamics successor is made of are the noise
    distribution's read-only copies, checked once: a write to the caller's
    arrays, before or after the model is built, reaches neither.  The noise
    must be a ``DiscreteDistribution``, so the model's are always checked."""
    probs = np.array([0.5, 0.5])
    noise = NoiseModel(DiscreteDistribution(np.array([-1.0, 1.0]), probs))
    grid, actions = StateGrid(np.linspace(-2.0, 2.0, 5)), ActionSet(np.zeros(1))

    def build():
        dynamics = Dynamics(lambda x, a, xi: x + xi, noise)
        return MarkovModel(grid, actions, dynamics, lambda x, a: x * x, 0.5)

    probs[0] = 5.0
    assert noise.dist.probs.tolist() == [0.5, 0.5]
    model = build()
    probs[1] = -4.0
    assert successor_distribution(model, 2, 0, np.zeros(5)).probs.tolist() == [1.0]
    assert successor_distribution(model, 2, 0, grid.points).probs.tolist() == [0.5, 0.5]
    with pytest.raises(TypeError, match="noise must be a DiscreteDistribution, got tuple"):
        NoiseModel((np.array([-1.0, 1.0]), probs))


def _actions_case(write):
    """A 5 x 3 LQ-style model's cost table and the successor structure it
    builds at the first read are made from the same actions."""
    caller = np.array([-1.0, 0.0, 1.0])
    model = MarkovModel(
        StateGrid(np.linspace(-2.0, 2.0, 5)),
        ActionSet(caller),
        Dynamics(lambda x, a, xi: x + a + 0.5 * xi, quantize_standard_normal(3)),
        lambda x, a: x * x + a * a,
        0.5,
    )
    if write:
        caller[:] = [-50.0, 0.0, 50.0]
    v = model.grid.points ** 2
    dists = [successor_distribution(model, i, a, v).atoms for i in range(5) for a in range(3)]
    return [model.actions.values], (model.cost_table.tolist(), dists)


def _distribution_case(write):
    values, probs = np.array([0.0, 10.0]), np.array([0.5, 0.5])
    dist = DiscreteDistribution(values, probs)
    if write:
        probs[1] = -0.5
        values[0] = np.nan
    return [dist.values, dist.probs], (avar_primal(0.5, dist), dist.mean())


def _density_case(write):
    caller = np.array([0.5, 1.5])
    density = DualDensity(caller)
    if write:
        caller[0] = -3.0
    return [density.weights], density.weights.tolist()


def _cost_table_case(write):
    costs = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = build_tabular(np.full((2, 2, 2), 0.5), costs, 0.5)
    if write:
        costs[0, 0] = -1.0
    return [model.cost_table], (model.cost_table.tolist(), model.cost(0.0, 0.0))


@pytest.mark.parametrize(
    "case",
    [_actions_case, _distribution_case, _density_case, _cost_table_case],
    ids=["ActionSet", "DiscreteDistribution", "DualDensity", "cost_table"],
)
def test_each_checked_array_is_a_read_only_copy(case):
    """Each type that checks an array keeps a read-only copy of it, so a
    write to the caller's array after construction changes nothing that
    the type holds or computes, however late it is first read.  The grid's
    and the tabular kernel's copies have their own tests above."""
    held, read = case(write=True)
    assert not any(array.flags.writeable for array in held)
    assert read == case(write=False)[1]


def test_build_tabular_rejects_negative_cost():
    kernel = np.full((2, 2, 2), 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        build_tabular(kernel, [[0.0, -1.0], [0.0, 0.0]], 0.5)


def test_model_rejects_bad_discount():
    kernel = np.full((2, 2, 2), 0.5)
    costs = [[0.0, 0.0], [0.0, 0.0]]
    for discount in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            build_tabular(kernel, costs, discount)


def test_model_cost_table_cache_matches_function():
    params = LQParams(
        sigma=1.0, action_bound=1.0, x_lo=-1.0, x_hi=1.0,
        grid_points=5, n_actions=3, noise_atoms=2,
    )
    model = build_lq(params, 0.5)
    for i, x in enumerate(model.grid.points):
        for a_idx in model.actions.indices_for(i):
            a = float(model.actions.values[a_idx])
            assert model.cost_at(i, a_idx) == model.cost(float(x), a)


def test_model_rejects_mismatched_kernel_shape():
    grid = StateGrid(np.array([0.0, 1.0, 2.0]))
    actions = ActionSet(np.array([0.0]))
    kernel = Tabular(np.full((2, 1, 2), 0.5))
    with pytest.raises(ValueError):
        MarkovModel(grid, actions, kernel, lambda x, a: 0.0, 0.5)
