"""Controlled Markov models on finite state grids.

A model couples a strictly increasing state grid, a finite action set with
optional per-state admissibility, a transition mechanism (an explicit
tabular kernel over grid indices, or point dynamics driven by finite noise),
a nonnegative stage cost, and a discount factor in (0, 1).  Successor states
produced by dynamics are clamped to the grid range and value lookups between
grid points use piecewise-linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .risk import DiscreteDistribution

__all__ = [
    "StateGrid",
    "ActionSet",
    "NoiseModel",
    "Tabular",
    "Dynamics",
    "MarkovModel",
    "InvestmentParams",
    "LQParams",
    "quantize_standard_normal",
    "interpolate",
    "successor_distribution",
    "build_investment",
    "build_lq",
    "build_tabular",
]


@dataclass(frozen=True)
class StateGrid:
    """Strictly increasing grid of at least two finite state points."""

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", points)
        if points.ndim != 1 or len(points) < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if not np.all(np.diff(points) > 0.0):
            raise ValueError("grid points must be strictly increasing")

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return len(self.points)

    def nearest_index(self, x: float) -> int:
        """Index of the grid point closest to ``x`` (lowest index on ties)."""
        return int(np.argmin(np.abs(self.points - x)))


@dataclass(frozen=True)
class ActionSet:
    """Finite list of action values with optional per-state admissibility.

    ``admissible`` maps each state index to the sorted action indices
    allowed there; ``None`` allows every action everywhere.  Every
    admissible set must be nonempty.
    """

    values: np.ndarray
    admissible: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("action set must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("action values must be finite")
        if self.admissible is not None:
            normalized = []
            for state, indices in enumerate(self.admissible):
                idx = tuple(sorted(int(i) for i in indices))
                if len(idx) == 0:
                    raise ValueError(f"state {state} has no admissible actions")
                if idx[0] < 0 or idx[-1] >= len(values):
                    raise ValueError(
                        f"state {state} lists an out-of-range action index"
                    )
                if len(set(idx)) != len(idx):
                    raise ValueError(f"state {state} repeats an action index")
                normalized.append(idx)
            object.__setattr__(self, "admissible", tuple(normalized))

    def indices_for(self, state_index: int) -> Tuple[int, ...]:
        """Admissible action indices at a state, in increasing order."""
        if self.admissible is None:
            return tuple(range(len(self.values)))
        return self.admissible[state_index]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class NoiseModel:
    """Finitely supported noise driving point dynamics."""

    dist: DiscreteDistribution


@dataclass(frozen=True)
class Tabular:
    """Explicit transition kernel: ``kernel[i, a, j]`` is the probability of
    moving from grid index ``i`` to ``j`` under action index ``a``."""

    kernel: np.ndarray

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        object.__setattr__(self, "kernel", kernel)
        if kernel.ndim != 3:
            raise ValueError("kernel must be a (states, actions, states) array")
        if np.any(kernel < 0.0) or not np.all(np.isfinite(kernel)):
            raise ValueError("kernel entries must be finite and nonnegative")
        sums = kernel.sum(axis=2)
        bad = np.argwhere(np.abs(sums - 1.0) > 1e-12)
        if len(bad):
            i, a = (int(v) for v in bad[0])
            raise ValueError(
                f"kernel row for state {i}, action {a} sums to {sums[i, a]!r}, not 1"
            )


@dataclass(frozen=True)
class Dynamics:
    """Point dynamics ``next_state(x, a, xi)`` driven by finite noise; the
    model clamps every successor state to the grid range."""

    next_state: Callable[[float, float, float], float]
    noise: NoiseModel


TransitionMechanism = Union[Tabular, Dynamics]


@dataclass
class MarkovModel:
    """Discounted controlled Markov model on a state grid.

    The stage cost is validated to be finite and nonnegative on every
    (grid point, admissible action) pair at construction time, and the
    resulting table is cached.  Instances are treated as immutable after
    construction.

    Relying on that rule, each (state, action) pair's successor support is
    also cached, lazily, the first time the pair's successors are read: the
    clamped successor states with the noise probabilities for dynamics, the
    grid indices of the kernel row's support with their probabilities for a
    tabular kernel.  The transition map then runs once per pair per model
    rather than once per pair per sweep.
    """

    grid: StateGrid
    actions: ActionSet
    transition: TransitionMechanism
    cost: Callable[[float, float], float]
    discount: float

    def __post_init__(self):
        if not (0.0 < self.discount < 1.0):
            raise ValueError(f"discount must lie in (0, 1), got {self.discount!r}")
        n, m = len(self.grid), len(self.actions)
        if self.actions.admissible is not None and len(self.actions.admissible) != n:
            raise ValueError("admissibility table length must match the grid")
        if isinstance(self.transition, Tabular):
            if self.transition.kernel.shape != (n, m, n):
                raise ValueError(
                    f"kernel shape {self.transition.kernel.shape} does not match "
                    f"{n} states and {m} actions"
                )
        table = np.full((n, m), np.nan)
        for i in range(n):
            x = float(self.grid.points[i])
            for a_idx in self.actions.indices_for(i):
                c = float(self.cost(x, float(self.actions.values[a_idx])))
                if not np.isfinite(c) or c < 0.0:
                    raise ValueError(
                        f"cost at state {x!r}, action "
                        f"{float(self.actions.values[a_idx])!r} is {c!r}; "
                        "costs must be finite and nonnegative"
                    )
                table[i, a_idx] = c
        self._cost_table = table
        self._successors = {}

    @property
    def cost_table(self) -> np.ndarray:
        """Stage costs for every (state, action) pair, NaN where the action
        is inadmissible."""
        return self._cost_table

    @property
    def n_states(self) -> int:
        return len(self.grid)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def cost_at(self, state_index: int, action_index: int) -> float:
        """Cached stage cost for a (state index, action index) pair."""
        return float(self._cost_table[state_index, action_index])

    def clamp(self, x: float) -> float:
        """Clamp a successor state into the grid range."""
        return float(min(max(x, self.grid.lo), self.grid.hi))

    def _successor_support(self, state_index, action_index):
        """Cached (support, probabilities) of one pair's successors: grid
        indices for a tabular kernel, clamped successor states for
        dynamics."""
        key = (state_index, action_index)
        support = self._successors.get(key)
        if support is None:
            if isinstance(self.transition, Tabular):
                row = self.transition.kernel[state_index, action_index]
                mask = row > 0.0
                support = (np.flatnonzero(mask), row[mask])
            else:
                x = float(self.grid.points[state_index])
                a = float(self.actions.values[action_index])
                noise = self.transition.noise.dist
                next_state = self.transition.next_state
                succ = np.array([self.clamp(next_state(x, a, float(xi))) for xi in noise.values])
                support = (succ, noise.probs)
            self._successors[key] = support
        return support


def quantize_standard_normal(k: int) -> NoiseModel:
    """Quantize the standard normal into ``k`` equally likely atoms.

    Atom ``i`` (1-based) sits at the normal quantile of ``(2i - 1) / (2k)``.
    The construction mirrors the upper half so the support is exactly
    symmetric about zero and the mean is exactly zero.
    """
    if k < 1:
        raise ValueError(f"atom count must be at least 1, got {k!r}")
    nd = NormalDist()
    values = np.zeros(k)
    for i in range(k // 2):
        z = nd.inv_cdf((2 * (k - i) - 1) / (2.0 * k))
        values[k - 1 - i] = z
        values[i] = -z
    probs = np.full(k, 1.0 / k)
    return NoiseModel(DiscreteDistribution(values, probs))


def _grid_points(grid) -> np.ndarray:
    return grid.points if isinstance(grid, StateGrid) else np.asarray(grid, dtype=float)


def _bracket(points: np.ndarray, xs: np.ndarray):
    """``(xs, lo, hi, frac)``: the queries ``xs`` clamped to the grid range,
    read as ``v[lo] + frac * (v[hi] - v[lo])`` except ``v[-1]`` at the end."""
    xs = np.minimum(np.maximum(xs, points[0]), points[-1])
    # side="right" puts queries that hit a grid point exactly at frac == 0,
    # so on-grid lookups return the stored value with no rounding
    hi = points.searchsorted(xs, side="right")
    hi = np.minimum(np.maximum(hi, 1), len(points) - 1)
    lo = hi - 1
    frac = (xs - points[lo]) / (points[hi] - points[lo])
    return xs, lo, hi, frac


def interpolate(grid, values, x):
    """Piecewise-linear interpolation of grid values, clamping ``x`` to the
    grid range.  ``x`` may be a scalar or an array."""
    points = _grid_points(grid)
    values = np.asarray(values, dtype=float)
    if values.shape != points.shape:
        raise ValueError("values must align with the grid")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs, lo, hi, frac = _bracket(points, np.atleast_1d(np.asarray(x, dtype=float)))
    out = values[lo] + frac * (values[hi] - values[lo])
    out = np.where(xs == points[-1], values[-1], out)
    return float(out[0]) if scalar else out


def successor_distribution(
    model: MarkovModel, state_index: int, action_index: int, v_next: np.ndarray
) -> DiscreteDistribution:
    """Distribution of next-step values seen from one (state, action) pair.

    For a tabular mechanism the atoms pair ``v_next[j]`` with the kernel row
    probabilities; for dynamics each noise atom is pushed through the
    transition map, clamped to the grid, and read off ``v_next`` by linear
    interpolation.  Atoms with identical values are merged.
    """
    n = model.n_states
    if not (0 <= state_index < n):
        raise ValueError(f"state index {state_index} out of range")
    if action_index not in model.actions.indices_for(state_index):
        raise ValueError(
            f"action index {action_index} is not admissible at state {state_index}"
        )
    # ``DiscreteDistribution`` rejects any non-finite value the pair reads
    v_next = np.asarray(v_next, dtype=float)
    if v_next.shape != (n,):
        raise ValueError("v_next must align with the grid")

    support, probs = model._successor_support(state_index, action_index)
    if isinstance(model.transition, Tabular):
        values = v_next[support]
    else:
        values = interpolate(model.grid, v_next, support)
    return DiscreteDistribution(*_merge_atoms(values, probs))


def _merge_atoms(values: np.ndarray, probs: np.ndarray):
    """Sorted distinct atom values with the summed probability of each.

    Equal to ``np.unique(values, return_inverse=True)`` followed by
    ``np.bincount(inverse, weights=probs)``, bit for bit: distinct atoms
    come back in sorted order untouched, and merged ones are summed by the
    same ``bincount`` in input order.
    """
    order = values.argsort(kind="stable")
    values = values[order]
    distinct = values[1:] != values[:-1]
    if distinct.all():
        return values, probs[order]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.concatenate(([0], distinct.cumsum()))
    return values[np.concatenate(([True], distinct))], np.bincount(inverse, weights=probs)


def _check_shared_params(params):
    """Checks common to ``InvestmentParams`` and ``LQParams``, run after
    each class's own grid-bounds checks."""
    if params.sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if params.action_bound < 0.0:
        raise ValueError("action bound must be nonnegative")
    if params.grid_points < 2:
        raise ValueError("grid needs at least two points")
    if params.n_actions < 1:
        raise ValueError("need at least one action")
    if params.noise_atoms < 1:
        raise ValueError("need at least one noise atom")


@dataclass(frozen=True)
class InvestmentParams:
    """Parameters of the wealth-investment model.

    Wealth evolves multiplicatively: a fraction ``a`` of wealth (bounded by
    ``action_bound`` in absolute value) earns the risky return while the
    rest earns the risk-free rate ``r``; the stage cost is current wealth.
    """

    mu: float
    r: float
    sigma: float
    action_bound: float
    wealth_lo: float
    wealth_hi: float
    grid_points: int
    n_actions: int
    noise_atoms: int

    def __post_init__(self):
        if self.wealth_lo < 0.0:
            raise ValueError("wealth grid lower bound must be nonnegative")
        if not self.wealth_hi > self.wealth_lo:
            raise ValueError("wealth grid upper bound must exceed the lower bound")
        _check_shared_params(self)


@dataclass(frozen=True)
class LQParams:
    """Parameters of the linear-state, quadratic-cost model.

    The state moves by the chosen action plus ``sigma`` times standard
    normal noise; the stage cost is ``x**2 + a**2``.
    """

    sigma: float
    action_bound: float
    x_lo: float
    x_hi: float
    grid_points: int
    n_actions: int
    noise_atoms: int

    def __post_init__(self):
        if not self.x_hi > self.x_lo:
            raise ValueError("state grid upper bound must exceed the lower bound")
        _check_shared_params(self)


def _uniform_actions(bound: float, n: int) -> np.ndarray:
    """``n`` actions uniformly spaced in [-bound, bound]; a single action
    sits at zero."""
    if n == 1:
        return np.zeros(1)
    return np.linspace(-bound, bound, n)


def build_investment(params: InvestmentParams, discount: float) -> MarkovModel:
    """Wealth model: ``x' = x * (1 + r + (mu - r) * a + sigma * a * xi)``
    with stage cost equal to wealth."""
    grid = StateGrid(np.linspace(params.wealth_lo, params.wealth_hi, params.grid_points))
    actions = ActionSet(_uniform_actions(params.action_bound, params.n_actions))
    noise = quantize_standard_normal(params.noise_atoms)
    mu, r, sigma = params.mu, params.r, params.sigma

    def next_state(x, a, xi):
        return x * (1.0 + r + (mu - r) * a + sigma * a * xi)

    def cost(x, a):
        return x

    return MarkovModel(grid, actions, Dynamics(next_state, noise), cost, discount)


def build_lq(params: LQParams, discount: float) -> MarkovModel:
    """Linear-quadratic model: ``x' = x + a + sigma * xi`` with stage cost
    ``x**2 + a**2``."""
    grid = StateGrid(np.linspace(params.x_lo, params.x_hi, params.grid_points))
    actions = ActionSet(_uniform_actions(params.action_bound, params.n_actions))
    noise = quantize_standard_normal(params.noise_atoms)
    sigma = params.sigma

    def next_state(x, a, xi):
        return x + a + sigma * xi

    def cost(x, a):
        return x * x + a * a

    return MarkovModel(grid, actions, Dynamics(next_state, noise), cost, discount)


def build_tabular(kernel, costs, discount: float) -> MarkovModel:
    """Model from an explicit kernel and cost table.

    States and actions are abstract indices embedded as the reals
    ``0 .. n-1``; ``kernel[i][a][j]`` are transition probabilities and
    ``costs[i][a]`` the stage costs.
    """
    mechanism = Tabular(np.asarray(kernel, dtype=float))
    n, m, _ = mechanism.kernel.shape
    cost_table = np.asarray(costs, dtype=float)
    if cost_table.shape != (n, m):
        raise ValueError(
            f"cost table shape {cost_table.shape} does not match "
            f"{n} states and {m} actions"
        )
    grid = StateGrid(np.arange(n, dtype=float))
    actions = ActionSet(np.arange(m, dtype=float))

    def cost(x, a):
        return float(cost_table[int(round(x)), int(round(a))])

    return MarkovModel(grid, actions, mechanism, cost, discount)
