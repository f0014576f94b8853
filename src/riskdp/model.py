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

from .risk import DiscreteDistribution, _check_probs

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
        # a read-only copy: the successor brackets a model caches are only
        # valid for the points they were computed on
        points = np.array(self.points, dtype=float)
        points.setflags(write=False)
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
        object.__setattr__(self, "_every_index", tuple(range(len(values))))

    def indices_for(self, state_index: int) -> Tuple[int, ...]:
        """Admissible action indices at a state, in increasing order."""
        if self.admissible is None:
            return self._every_index
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
    also cached, lazily, the first time the pair's successors are read.  For
    dynamics, noise atoms whose clamped successor states are bit-identical
    (often several at each grid end) form one group: the cache holds the
    grid bracket of each distinct state (lower and upper grid index and
    interpolation weight, and which sit on the last grid point), the group
    of each atom (``inverse``), each group's probability summed in atom
    order, and the noise probabilities.  For a tabular kernel it holds the
    grid indices of the kernel row's support with their probabilities.  The
    transition map, the grouping and the bracketing then run once per pair
    per model, and a sweep only reads the grid values of the distinct
    states through the cached bracket.  The cached probabilities a pair's
    successor distributions are made of (the group probabilities, or the
    kernel row's) are checked once, when the pair is cached, with the
    checks every ``DiscreteDistribution`` runs; each read then checks only
    that its values are finite.  The cached arrays and the grid points are
    read-only.
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
        # read on every successor read: a plain attribute, not a property
        # through ``StateGrid.__len__``
        self._n_states = n
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
        if isinstance(self.transition, Dynamics):
            # read-only arrays shared by every pair's cached successors: the
            # noise probabilities, and the groups of a pair whose atoms all
            # reach distinct states
            self._noise_probs = self.transition.noise.dist.probs.copy()
            self._atom_index = np.arange(len(self._noise_probs))
            for array in (self._noise_probs, self._atom_index):
                array.setflags(write=False)

    @property
    def cost_table(self) -> np.ndarray:
        """Stage costs for every (state, action) pair, NaN where the action
        is inadmissible."""
        return self._cost_table

    @property
    def n_states(self) -> int:
        return self._n_states

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
        """Cached successors of one pair.  For a tabular kernel,
        ``(indices, probs)``: the grid indices of the kernel row's support
        and their probabilities.  For dynamics, ``(query, probs, inverse,
        group_probs)``: the ``_GridQuery`` bracketing the distinct clamped
        successor states, the noise probabilities, the distinct state each
        noise atom reaches (``query`` reads atom ``j`` at ``inverse[j]``)
        and the summed probability of each distinct state, added in atom
        order by ``np.bincount``.  Caching a pair checks those summed
        probabilities, or the kernel row's, with ``_check_probs``."""
        key = (state_index, action_index)
        support = self._successors.get(key)
        if support is None:
            if isinstance(self.transition, Tabular):
                row = self.transition.kernel[state_index, action_index]
                mask = row > 0.0
                indices, probs = np.flatnonzero(mask), row[mask]
                _check_probs(probs)
                indices.setflags(write=False)
                probs.setflags(write=False)
                support = (indices, probs)
            else:
                x = float(self.grid.points[state_index])
                a = float(self.actions.values[action_index])
                noise = self.transition.noise.dist
                next_state = self.transition.next_state
                succ = np.array([self.clamp(next_state(x, a, float(xi))) for xi in noise.values])
                # group bit-identical states (so 0.0 and -0.0 stay apart):
                # they read bit-identical values from any grid values
                _, first, inverse = np.unique(
                    succ.view(np.int64), return_index=True, return_inverse=True
                )
                if len(first) < len(succ):
                    group_probs = np.bincount(inverse, weights=self._noise_probs)
                    inverse.setflags(write=False)
                    group_probs.setflags(write=False)
                    succ = succ[first]
                else:
                    # one atom a state: ``bincount``'s ``0.0 + p`` is ``p``
                    inverse, group_probs = self._atom_index, self._noise_probs
                _check_probs(group_probs)
                query = _bracket(self.grid.points, succ)
                support = (query, self._noise_probs, inverse, group_probs)
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


class _GridQuery:
    """Fixed query points bracketed on one grid, made by ``_bracket``.

    ``read(v)`` interpolates grid values ``v`` at the points as
    ``v[lo] + frac * (v[hi] - v[lo])``, with ``v[-1]`` at the ``ends``
    (points on the last grid point, where that form can round).  ``v`` is
    one value vector or a 2-d stack of them, read row by row.
    """

    __slots__ = ("points", "lo", "hi", "frac", "ends")

    def __init__(self, points, lo, hi, frac, ends):
        for array in (lo, hi, frac, ends):
            array.setflags(write=False)
        self.points, self.lo, self.hi, self.frac, self.ends = points, lo, hi, frac, ends

    def read(self, values: np.ndarray) -> np.ndarray:
        # one vector is the solver's hot path, and ``values[..., idx]``
        # gathers several times slower than ``values[idx]``
        if values.ndim == 1:
            lo, hi = values[self.lo], values[self.hi]
            out = lo + self.frac * (hi - lo)
            if len(self.ends):
                out[self.ends] = values[-1]
            return out
        lo, hi = values[:, self.lo], values[:, self.hi]
        out = lo + self.frac * (hi - lo)
        if len(self.ends):
            out[..., self.ends] = values[..., -1:]
        return out


def _bracket(points: np.ndarray, xs: np.ndarray) -> _GridQuery:
    """The queries ``xs``, clamped to the grid range, bracketed on
    ``points``."""
    xs = np.minimum(np.maximum(xs, points[0]), points[-1])
    # side="right" puts queries that hit a grid point exactly at frac == 0,
    # so on-grid lookups return the stored value with no rounding
    hi = points.searchsorted(xs, side="right")
    hi = np.minimum(np.maximum(hi, 1), len(points) - 1)
    lo = hi - 1
    frac = (xs - points[lo]) / (points[hi] - points[lo])
    return _GridQuery(points, lo, hi, frac, np.flatnonzero(xs == points[-1]))


def interpolate(grid, values, x):
    """Piecewise-linear interpolation of grid values, clamping ``x`` to the
    grid range.  ``x`` may be a scalar or an array."""
    points = _grid_points(grid)
    values = np.asarray(values, dtype=float)
    if values.shape != points.shape:
        raise ValueError("values must align with the grid")
    if isinstance(x, _GridQuery):
        # a model's cached successor bracket
        if x.points is not points:
            raise ValueError("query was bracketed on another grid")
        return x.read(values)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    out = _bracket(points, np.atleast_1d(np.asarray(x, dtype=float))).read(values)
    return float(out[0]) if scalar else out


def successor_distribution(
    model: MarkovModel, state_index: int, action_index: int, v_next: np.ndarray
) -> DiscreteDistribution:
    """Distribution of next-step values seen from one (state, action) pair.

    For a tabular mechanism the atoms pair ``v_next[j]`` with the kernel row
    probabilities; for dynamics each noise atom is pushed through the
    transition map, clamped to the grid, and read off ``v_next`` by linear
    interpolation.  Atoms with identical values are merged, so the returned
    atoms are sorted ascending and distinct; their arrays are read-only, and
    ``avar_primal`` reads them worst first in that order instead of sorting
    them again.

    For dynamics the atoms that reach one successor state were grouped when
    the pair was cached, so only the distinct states are read and sorted,
    and each takes its group's cached probability.  The result is bit for
    bit that of ``_merge_atoms`` on every atom's value.  Atoms in a group
    have bit-identical states, which read bit-identical values.  When the
    distinct states read distinct values, the groups are exactly the sets
    of equal values ``_merge_atoms`` merges, and ``np.bincount`` summed each
    group in atom order from 0.0, as ``_merge_atoms`` does (a lone atom's
    ``0.0 + p`` is ``p``).  When two distinct states read equal values (a
    chance tie), the values already read are expanded to every atom and
    handed to ``_merge_atoms``, with nothing read again.
    """
    n = model._n_states
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

    support = model._successor_support(state_index, action_index)
    if isinstance(model.transition, Tabular):
        indices, probs = support
        return DiscreteDistribution._from_ascending(*_merge_atoms(v_next[indices], probs))
    query, probs, inverse, group_probs = support
    values = interpolate(model.grid, v_next, query)
    order = values.argsort()
    ascending = values[order]
    # a set of Python floats keeps NaNs apart and merges 0.0 with -0.0, as
    # ``!=`` on adjacent sorted values does, and builds faster on a few atoms
    if len(set(ascending.tolist())) == len(ascending):
        return DiscreteDistribution._from_ascending(ascending, group_probs[order])
    # a chance tie: distinct successor states read equal values
    return DiscreteDistribution._from_ascending(*_merge_atoms(values[inverse], probs))


def _merge_atoms(values: np.ndarray, probs: np.ndarray):
    """Sorted distinct atom values with the summed probability of each.

    Equal to ``np.unique(values, return_inverse=True)`` followed by
    ``np.bincount(inverse, weights=probs)``, bit for bit: distinct atoms
    come back in sorted order untouched, and merged ones are summed by a
    ``bincount`` over the sorted atoms.  The sort is stable, so each group's
    atoms keep their input order and are added in the order the unsorted
    ``bincount`` adds them.  Both returned arrays are new.

    ``successor_distribution`` merges a tabular row's atoms here, and a
    dynamics pair's atoms only on a chance tie: its grouped probabilities
    are sums in the same order, so both routes give the same bits.
    """
    order = values.argsort(kind="stable")
    values = values[order]
    probs = probs[order]
    # ``successor_distribution``'s distinctness test
    if len(set(values.tolist())) == len(values):
        return values, probs
    keep = np.concatenate(([True], values[1:] != values[:-1]))
    return values[keep], np.bincount(keep.cumsum() - 1, weights=probs)


#: largest ``grid_points * n_actions * noise_atoms`` of a parametric model:
#: the model caches up to one bracketed successor per atom, and a sweep reads
#: them all (1001 x 41 x 15 is 615,615)
MAX_SUCCESSOR_ATOMS = 10 ** 7
#: largest ``grid_points * n_actions`` of a parametric model: the cost table,
#: the successor cache and each sweep grow per (state, action) pair, about
#: 1.1 to 1.4 KB a cached pair (1,352 bytes at 1001 x 41 x 15, where 45% of
#: the 41,041 pairs merge atoms; measured with tracemalloc, numpy 2.4)
MAX_SUCCESSOR_PAIRS = 10 ** 6


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
    if params.grid_points * params.n_actions * params.noise_atoms > MAX_SUCCESSOR_ATOMS:
        raise ValueError(
            "grid_points * n_actions * noise_atoms exceeds the budget of "
            f"{MAX_SUCCESSOR_ATOMS} successor atoms"
        )
    if params.grid_points * params.n_actions > MAX_SUCCESSOR_PAIRS:
        raise ValueError(
            "grid_points * n_actions exceeds the budget of "
            f"{MAX_SUCCESSOR_PAIRS} (state, action) pairs"
        )


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
    # wealth times a finite growth factor is finite or clamped; an infinite
    # one would make the successor of zero wealth NaN
    a, xi = actions.values[:, None], noise.dist.values
    with np.errstate(over="ignore", invalid="ignore"):
        growth = 1.0 + r + (mu - r) * a + sigma * a * xi
    if not np.isfinite(growth).all():
        raise ValueError(
            "growth factor 1 + r + (mu - r) * a + sigma * a * xi overflows; "
            "mu, r, sigma or the action bound are too large"
        )

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
